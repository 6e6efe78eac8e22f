"""Command-line front end.

Subcommands: ``annotate`` (run the teachers), ``merge``, ``evaluate``,
``simulate`` and ``iterate``.  Each reads a declarative JSON configuration
via ``--config``, which only ``simulate`` may omit.

Exit codes: 0 success (``--help`` included), 1 usage or configuration
error (a ConfigError), 2 data error (a DataError, or an OSError on any
input or output), 3 any other exception, which is a bug.  README's CLI
section lists what each code covers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from typing import Any

from .core import ConfigError, DataError, json_fields, json_path, read_json_config
from .evaluate import DEFAULT_IOU_THRESHOLDS, evaluate, validate_iou_thresholds
from .pipeline import (
    DEFAULT_ITERATE_SCORE_THRESHOLD,
    iterate,
    merge_supersets,
    parse_merge_config,
    parse_pipeline_config,
    run_annotate,
    validate_score_threshold,
)
from .simulate import default_scene, load_scene, write_scene_outputs

log = logging.getLogger("roadlidar")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _cmd_annotate(args: argparse.Namespace) -> int:
    config = parse_pipeline_config(args.config)
    if args.jobs is not None:
        config = dataclasses.replace(config, parallelism=args.jobs)
    stats, failures = run_annotate(config)
    for dataset in stats:
        log.info("dataset %s: %s", dataset["dataset"], json.dumps(dataset, sort_keys=True))
    if failures:
        for name, message in sorted(failures.items()):
            log.error("dataset %s failed: %s", name, message)
        return EXIT_DATA
    return EXIT_OK


def _cmd_merge(args: argparse.Namespace) -> int:
    inputs, output_root = parse_merge_config(args.config)
    index = merge_supersets(inputs, output_root)
    log.info("superset index written to %s", index)
    return EXIT_OK


def _evaluate_config(data: Any) -> tuple:
    f = json_fields(data, "evaluate config", pred_dir=json_path, truth_dir=json_path, report=json_path,
                    thresholds=lambda value, name: validate_iou_thresholds(value))
    return f["pred_dir"], f["truth_dir"], f.get("thresholds", DEFAULT_IOU_THRESHOLDS), f.get("report")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pred_dir, truth_dir, thresholds, report_path = read_json_config(args.config, _evaluate_config)
    report = evaluate(pred_dir, truth_dir, thresholds, report_path)
    print(report.to_table())
    if report_path is not None:
        log.info("report written to %s", report_path)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_scene(args.config) if args.config else default_scene()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    paths = write_scene_outputs(spec, args.out)
    log.info("rendered %d frames (%d beams) to %s", spec.duration, spec.sensor.beam_count, args.out)
    for kind, path in paths.items():
        log.info("  %s: %s", kind, path)
    return EXIT_OK


def _iterate_config(data: Any) -> tuple:
    f = json_fields(data, "iterate config", predictions=json_path, workspace=json_path,
                    score_threshold=lambda value, name: validate_score_threshold(value))
    return f["predictions"], f["workspace"], f.get("score_threshold", DEFAULT_ITERATE_SCORE_THRESHOLD)


def _cmd_iterate(args: argparse.Namespace) -> int:
    predictions, workspace, threshold = read_json_config(args.config, _iterate_config)
    round_dir = iterate(predictions, workspace, threshold)
    log.info("next-round labels written to %s", round_dir)
    return EXIT_OK


_COMMANDS = {
    "annotate": (_cmd_annotate, "run one teacher per configured dataset"),
    "merge": (_cmd_merge, "unify labeled datasets into a training superset"),
    "evaluate": (_cmd_evaluate, "score predicted labels against reference labels"),
    "simulate": (_cmd_simulate, "render a synthetic scene with ground truth"),
    "iterate": (_cmd_iterate, "turn detector predictions into next-round labels"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadlidar",
        description="Self-supervised auto-annotation for stationary roadside LiDAR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (_, help_text) in _COMMANDS.items():
        parsers[name] = sub.add_parser(name, help=help_text)
        parsers[name].add_argument("--config", help="declarative JSON configuration file")
    parsers["simulate"].add_argument("--seed", type=int, help="override the configured random seed")
    parsers["simulate"].add_argument("--out", default="scene_out", help="output directory (default: %(default)s)")
    parsers["annotate"].add_argument("--jobs", type=int, help="override the configured worker count")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if not args.config and args.command != "simulate":
            raise ConfigError(f"{args.command} requires --config")
        handler, _ = _COMMANDS[args.command]
        return handler(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - map unexpected failures to exit code 3
        log.error("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
