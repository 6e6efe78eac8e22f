"""Command-line front end.

Subcommands: ``annotate`` (run the teachers), ``merge``, ``evaluate``,
``simulate`` and ``iterate``.  Each reads a declarative JSON configuration
via ``--config``, which only ``simulate`` may omit.  ``simulate --seed``
overrides the scene's seed and ``annotate --jobs`` the configured worker
count; no other subcommand takes either flag, so ``annotate --seed`` is a
usage error (the teacher uses no randomness).

Exit codes: 0 success (``--help`` included), 1 usage or configuration error,
2 data error, 3 internal invariant violation.  Exit 1 covers a bad
invocation (an unknown subcommand or flag, a flag value of the wrong type)
and every malformed configuration: a missing ``--config``, an unreadable
file, invalid JSON, a missing field, a field or section of the wrong JSON
type, an ``annotate`` dataset with a ``transform`` (only ``merge`` applies
one), a sensor ``unit_scale`` or ``merge`` scale that is not finite and
positive, ``evaluate`` thresholds that are empty, outside (0, 1] or equal at
two decimals, an ``iterate`` score_threshold outside [0, 1] or NaN,
``--jobs`` below 1, a count that is not an integral number (a bool, a
fraction, a string or NaN: a sensor's ray counts, a teacher's n_query,
n_bin, n_tall and min_pts, parallelism, and a scene's duration, seed,
min_truth_points, azimuth_count and elevation_count), a scene seed
(``--seed`` included) below 0, a static cylinder whose z_low is not below
its z_high, and a scene value that is NaN or out of range: a non-finite
sensor origin, azimuth_deg or elevation_deg, a frequency_hz or max_range that is not
finite and positive, a range_noise_sigma or jitter_sigma that is negative
or not finite, a non-finite ground z, box center or yaw, or cylinder center
or z bounds, a box dims or cylinder radius that is not finite and positive,
an actor speed or dimension that is not finite and positive, a non-finite
waypoint coordinate and a start_time that is negative or not finite.  Exit 2 covers
input data that cannot be used, such as a frame file that cannot be read,
whose record count is not the sensor's beam count or that holds a
coordinate that is not finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .core import ConfigError, DataError, InternalError, read_json_config
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


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pred_dir, truth_dir, thresholds, report_path = read_json_config(args.config, lambda data: (
        Path(data["pred_dir"]),
        Path(data["truth_dir"]),
        validate_iou_thresholds(data.get("thresholds", DEFAULT_IOU_THRESHOLDS)),
        Path(data["report"]) if "report" in data else None,
    ))
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


def _cmd_iterate(args: argparse.Namespace) -> int:
    predictions, workspace, threshold = read_json_config(args.config, lambda data: (
        Path(data["predictions"]),
        Path(data["workspace"]),
        validate_score_threshold(data.get("score_threshold", DEFAULT_ITERATE_SCORE_THRESHOLD)),
    ))
    round_dir = iterate(predictions, workspace, threshold)
    log.info("next-round labels written to %s", round_dir)
    return EXIT_OK


_COMMANDS = {
    "annotate": _cmd_annotate,
    "merge": _cmd_merge,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "iterate": _cmd_iterate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadlidar",
        description="Self-supervised auto-annotation for stationary roadside LiDAR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, help_text in (
        ("annotate", "run one teacher per configured dataset"),
        ("merge", "unify labeled datasets into a training superset"),
        ("evaluate", "score predicted labels against reference labels"),
        ("simulate", "render a synthetic scene with ground truth"),
        ("iterate", "turn detector predictions into next-round labels"),
    ):
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
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except InternalError as exc:
        log.error("internal invariant violation: %s", exc)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - map unexpected failures to exit code 3
        log.error("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
