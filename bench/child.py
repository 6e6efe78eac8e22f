"""One child process of the benchmark.

    python3 child.py round <steps.json> <result.json>
    python3 child.py trace <job.json> <result.json>
    python3 child.py render <job.json> <result.json>

``round`` calls ``roadlidar.cli.main`` once per step, in order (a step with
a repeat time runs again until it has run that long), stops at the first
call that exits nonzero, and records each call's exit code and wall time.
A gauge reading (``gauge.py``) goes before every step and after the last, so
each step is bracketed by two.

``trace`` first runs ``pipeline.run_teacher`` untraced on every dataset of
the job's annotate config, timing each (these are the reference labels).
It runs it once more after the re-enactment, warm like the re-enactment,
as the base of the tracing overhead.
It then re-enacts the same work through the public functions of each
module, with a span around every call: load, unify, pad and crop, the
background model, then per frame filter, DBSCAN and box fitting, the
label and statistics writers; then evaluation against simulator truth,
merge and iterate.  The re-enacted outputs must be byte-identical to
``run_teacher``'s, so the spans describe the same program.  Counts at the
same boundaries (points cropped and removed, clusters, labels, recall
against the simulator masks) go next to the spans.

``render`` writes one site of a workload (frames, masks, truth) and records
the seconds it took.

The parent sets PYTHONPATH to the checkout's ``src`` and pins BLAS/OpenMP
threads to 1.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracing import Tracer


def run_round(steps_path: Path, result_path: Path) -> int:
    from gauge import gauge
    from roadlidar.cli import main

    results = []
    steps = json.loads(steps_path.read_text(encoding="utf-8"))
    gauge()  # the first reading pays for warming up
    for step, (kind, site, argv, repeat_s) in enumerate(steps):
        results.append({"step": step, "kind": "gauge", "site": "", "exit": 0, "seconds": gauge()})
        spent = 0.0
        while True:
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
            results.append({"step": step, "kind": kind, "site": site, "exit": code, "seconds": seconds})
            spent += seconds
            if code != 0 or spent >= repeat_s:
                break
        if code != 0:
            break
    else:
        results.append({"step": len(steps), "kind": "gauge", "site": "", "exit": 0, "seconds": gauge()})
    result_path.write_text(json.dumps(results), encoding="utf-8")
    return 0


def _reenact_teacher(tracer, entry, out_root: Path, mask_dir: Path, transform, counts):
    """Mirror ``pipeline.run_teacher`` call for call, with a span per call."""
    from roadlidar.annotate import annotate_frame
    from roadlidar.background import (
        build_histogram, extract_query_frames, filter_frame,
        save_background_model, select_background,
    )
    from roadlidar.clustering import dbscan
    from roadlidar.core import FrameSequence, load_frame_sequence, write_labels
    from roadlidar.preprocess import crop_frame, pad_frame, unify_datasets, unify_units
    import numpy as np

    if entry.background_model_in is not None:
        raise ValueError("the re-enactment builds its own background model")
    cfg = entry.teacher
    out_dir = out_root / entry.name
    out_dir.mkdir(parents=True, exist_ok=True)
    filtered_paddings = []
    with tracer.span("pipeline.teacher", dataset=entry.name):
        with tracer.span("core.load_frame_sequence"):
            seq = load_frame_sequence(entry.frames_dir, entry.meta)
        with tracer.span("preprocess.unify_units"):
            seq = unify_units(seq)
        unified = seq
        frames = []
        for frame in seq.frames:
            with tracer.span("preprocess.pad_frame"):
                padded = pad_frame(frame, cfg.n_total)
            with tracer.span("preprocess.crop_frame"):
                frames.append(crop_frame(padded, cfg.crop))
        seq = FrameSequence(frames, seq.meta, seq.stems)
        with tracer.span("background.extract_query_frames"):
            query = extract_query_frames(seq, cfg.n_query)
        with tracer.span("background.build_histogram"):
            hist = build_histogram(query, cfg.n_bin)
        with tracer.span("background.select_background"):
            model = select_background(hist, cfg.n_tall)
        with tracer.span("background.save_background_model"):
            save_background_model(model, out_dir / "background.model")

        rejects = []
        labels_by_stem = {}
        points_data = points_removed = clusters_total = noise_total = labels_total = 0
        for frame, stem in zip(seq.frames, seq.stems):
            with tracer.span("pipeline.frame", stem=stem):
                n_before = frame.n_data_points
                with tracer.span("background.filter_frame"):
                    filtered = filter_frame(frame, model, cfg.d_threshold)
                with tracer.span("clustering.dbscan"):
                    clusters, noise = dbscan(filtered, cfg.epsilon, cfg.min_pts)
                with tracer.span("annotate.annotate_frame"):
                    labels = annotate_frame(filtered, clusters, cfg, reject_sink=rejects.append)
                labels_by_stem[stem] = labels
                points_data += n_before
                points_removed += n_before - filtered.n_data_points
                clusters_total += len(clusters)
                noise_total += len(noise)
                labels_total += len(labels)
                filtered_paddings.append(filtered.padding)

        with tracer.span("core.write_labels"):
            write_labels(labels_by_stem, out_dir / "labels")
        with tracer.span("pipeline.write_stats"):
            stats = {
                "dataset": entry.name,
                "frames": len(seq),
                "points_data": points_data,
                "points_removed": points_removed,
                "points_removed_pct": round(100.0 * points_removed / points_data, 4) if points_data else 0.0,
                "clusters_found": clusters_total,
                "noise_points": noise_total,
                "boxes_rejected": len(rejects),
                "labels_written": labels_total,
            }
            (out_dir / "stats.json").write_text(
                json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            (out_dir / "rejects.log").write_text(
                "".join(r.format_line() + "\n" for r in rejects), encoding="utf-8"
            )

    with tracer.span("preprocess.unify_datasets", dataset=entry.name):
        unify_datasets([unified], [transform])

    # Bookkeeping outside the teacher span, so it does not count as teacher time.
    counts["frames"] += len(seq)
    counts["load_bytes"] += sum(p.stat().st_size for p in entry.frames_dir.glob("*.bin"))
    counts["points_cropped"] += sum(
        raw.n_data_points - cropped.n_data_points for raw, cropped in zip(unified.frames, seq.frames)
    )
    counts["points_removed"] += points_removed
    counts["points_in"] += points_data - points_removed
    counts["clusters"] += clusters_total
    counts["noise_points"] += noise_total
    counts["labels_out"] += labels_total
    for frame, stem, filtered_padding in zip(seq.frames, seq.stems, filtered_paddings):
        mask = np.frombuffer((mask_dir / f"{stem}.mask").read_bytes(), dtype=np.uint8)
        mask = np.pad(mask, (0, frame.n_points - len(mask)), constant_values=2)
        data = ~frame.padding
        removed = filtered_padding & data
        counts["bg_points"] += int((data & (mask == 0)).sum())
        counts["bg_removed"] += int((removed & (mask == 0)).sum())
        counts["fg_points"] += int((data & (mask == 1)).sum())
        counts["fg_kept"] += int((data & ~removed & (mask == 1)).sum())


def _mismatches(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(p) for p in files_a ^ files_b
    ) + sorted(str(p) for p in files_a & files_b if (a / p).read_bytes() != (b / p).read_bytes())


def run_trace(job_path: Path, result_path: Path) -> int:
    from collections import Counter

    from roadlidar.core import LabelClass, LabelSource, read_labels
    from roadlidar.evaluate import evaluate_labels
    from roadlidar.pipeline import (
        iterate, merge_supersets, parse_merge_config, parse_pipeline_config, run_teacher,
    )

    job = json.loads(job_path.read_text(encoding="utf-8"))
    out = Path(job["out"])
    config = parse_pipeline_config(job["annotate"])
    inputs, merge_root = parse_merge_config(job["merge"])
    transforms = {item.name: item.transform for item in inputs}

    def time_teachers(output_root):
        seconds = {}
        for entry in config.datasets:
            begin = time.perf_counter()
            run_teacher(entry, output_root)
            seconds[entry.name] = time.perf_counter() - begin
        return seconds

    # Cold, like the annotate step it is compared with for pool efficiency.
    teacher_s = time_teachers(config.output_root)

    tracer = Tracer(job["run_id"])
    counts = Counter()
    traced_root = out / "traced"
    for entry in config.datasets:
        site = job["sites"][entry.name]
        _reenact_teacher(tracer, entry, traced_root, Path(site["masks"]), transforms[entry.name], counts)
        with tracer.span("core.read_labels", dataset=entry.name):
            preds = read_labels(traced_root / entry.name / "labels", source=LabelSource.EXTERNAL)
            truths = read_labels(site["truth"], source=LabelSource.TEACHER)
        with tracer.span("evaluate.evaluate_labels", dataset=entry.name):
            evaluate_labels(preds, truths, tuple(job["thresholds"]))
        for stem, truth in truths.items():
            for cls in LabelClass:
                n_pred = sum(lb.label_class is cls for lb in preds.get(stem, []))
                counts["iou_pairs"] += n_pred * sum(lb.label_class is cls for lb in truth)

    # Warm, like the re-enactment, for the tracing overhead.
    warm_teacher_s = time_teachers(out / "warm")

    with tracer.span("pipeline.merge_supersets"):
        merge_supersets(inputs, merge_root)
    for entry in config.datasets:
        with tracer.span("pipeline.iterate", dataset=entry.name):
            iterate(
                config.output_root / entry.name / "labels",
                out / "rounds" / entry.name,
                job["score_threshold"],
            )

    fidelity = []
    for entry in config.datasets:
        ref = config.output_root / entry.name
        fidelity += [f"{entry.name}/{p}" for p in _mismatches(ref, traced_root / entry.name)]
    result_path.write_text(json.dumps({
        "teacher_s": teacher_s,
        "warm_teacher_s": warm_teacher_s,
        "counts": dict(counts),
        "fidelity_mismatches": fidelity,
        "spans": tracer.spans,
    }), encoding="utf-8")
    return 0


def run_render(job_path: Path, result_path: Path) -> int:
    from workloads import WORKLOADS, render_site

    job = json.loads(job_path.read_text(encoding="utf-8"))
    site = next(s for s in WORKLOADS[job["workload"]](job["seed"]).sites if s.name == job["site"])
    seconds = render_site(site.spec, Path(job["out"]))
    result_path.write_text(json.dumps({"seconds": seconds}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    mode, job, result = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    sys.exit({"round": run_round, "trace": run_trace, "render": run_render}[mode](job, result))
