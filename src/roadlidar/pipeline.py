"""End-to-end orchestration: teacher runs, superset merging, iteration loop.

One teacher processes one dataset with its own hyper-parameters; several
teachers with different configurations (or different datasets) produce label
sets that ``merge_supersets`` unifies into a single training superset.  The
iteration loop is a pure file contract: an external detector's predictions,
written in the standard label format, become the next round's ground truth.

Everything is deterministic: identical configuration and data produce
byte-identical label files, statistics and reports.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .annotate import RejectedBox, annotate_frame
from .background import (
    build_histogram,
    extract_query_frames,
    filter_frame,
    load_background_model,
    save_background_model,
    select_background,
)
from .clustering import dbscan
from .core import (
    ConfigError,
    CropBounds,
    DataError,
    FrameSequence,
    LabelSource,
    ObjectLabel,
    SensorMeta,
    TeacherConfig,
    frame_points,
    json_floats,
    list_frame_files,
    load_frame_sequence,
    read_frame_file,
    read_json_config,
    read_labels,
    write_frame_file,
    write_labels,
)
from .preprocess import UnificationTransform, apply_transform_points, crop_frame, pad_frame, transform_label, unify_units

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
DEFAULT_ITERATE_SCORE_THRESHOLD = 0.5


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    frames_dir: Path
    meta: SensorMeta
    teacher: TeacherConfig
    background_model_in: Path | None = None


@dataclass
class PipelineConfig:
    datasets: list[DatasetEntry]
    output_root: Path
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ConfigError("pipeline needs at least one dataset")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ConfigError("dataset names must be distinct (they name output directories)")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")


@dataclass
class TeacherRunResult:
    name: str
    labels_dir: Path
    stats: dict


def _parse_sensor(data: dict) -> SensorMeta:
    return SensorMeta(
        rays_horizontal=int(data["rays_horizontal"]),
        rays_vertical=int(data["rays_vertical"]),
        unit_scale=float(data.get("unit_scale", 1.0)),
    )


def _parse_crop(data: dict) -> CropBounds:
    return CropBounds(
        float(data["x_min"]), float(data["x_max"]),
        float(data["y_min"]), float(data["y_max"]),
        float(data["z_min"]), float(data["z_max"]),
    )


def _parse_teacher(data: dict) -> TeacherConfig:
    return TeacherConfig(
        n_total=int(data["n_total"]),
        n_query=int(data["n_query"]),
        n_bin=int(data["n_bin"]),
        n_tall=int(data["n_tall"]),
        d_threshold=float(data["d_threshold"]),
        epsilon=float(data["epsilon"]),
        min_pts=int(data["min_pts"]),
        l_min=float(data["l_min"]),
        h_min=float(data["h_min"]),
        beta_min=float(data["beta_min"]),
        crop=_parse_crop(data["crop"]),
    )


def _parse_transform(data: dict | None) -> UnificationTransform:
    if data is None:
        return UnificationTransform()
    return UnificationTransform(
        translation=json_floats(data.get("translation", (0.0, 0.0, 0.0)), 3),
        scale=float(data.get("scale", 1.0)),
    )


def _parse_dataset(entry: dict) -> DatasetEntry:
    if "transform" in entry:
        # a plain ValueError, so that read_json_config names the file
        raise ValueError(
            f"dataset '{entry.get('name')}': annotate applies no transform; "
            "set it on the merge input instead"
        )
    meta = _parse_sensor(entry["sensor"])
    teacher = _parse_teacher(entry["teacher"])
    if meta.beam_count > teacher.n_total:
        raise ConfigError(
            f"dataset '{entry.get('name')}': sensor beam count {meta.beam_count} "
            f"exceeds n_total {teacher.n_total}"
        )
    model_in = entry.get("background_model_in")
    return DatasetEntry(
        name=str(entry["name"]),
        frames_dir=Path(entry["frames"]),
        meta=meta,
        teacher=teacher,
        background_model_in=Path(model_in) if model_in else None,
    )


def parse_pipeline_config(path: str | Path) -> PipelineConfig:
    """Load the declarative pipeline configuration (JSON)."""
    return read_json_config(path, lambda data: PipelineConfig(
        datasets=[_parse_dataset(entry) for entry in data["datasets"]],
        output_root=Path(data["output_root"]),
        parallelism=int(data.get("parallelism", 1)),
    ))


# ---------------------------------------------------------------------------
# Teacher run
# ---------------------------------------------------------------------------

def run_teacher(entry: DatasetEntry, output_root: str | Path) -> TeacherRunResult:
    """Run the full teacher on one dataset and write labels plus run artifacts.

    Stages: unit unification, padding, cropping, background model over the
    query window, then per frame background filtering, clustering and
    annotation.  Outputs under ``<output_root>/<name>/``: ``labels/``, the
    background model sidecar, ``stats.json`` and ``rejects.log``.
    """
    cfg = entry.teacher
    out_dir = Path(output_root) / entry.name
    labels_dir = out_dir / "labels"
    out_dir.mkdir(parents=True, exist_ok=True)

    seq = load_frame_sequence(entry.frames_dir, entry.meta)
    seq = unify_units(seq)
    frames = [crop_frame(pad_frame(f, cfg.n_total), cfg.crop) for f in seq.frames]
    seq = FrameSequence(frames, seq.meta, seq.stems)

    if entry.background_model_in is not None:
        model = load_background_model(entry.background_model_in)
        if model.n_total != cfg.n_total:
            raise DataError(
                f"background model arity {model.n_total} does not match n_total {cfg.n_total}"
            )
    else:
        query = extract_query_frames(seq, cfg.n_query)
        hist = build_histogram(query, cfg.n_bin)
        model = select_background(hist, cfg.n_tall)
    save_background_model(model, out_dir / "background.model")

    rejects: list[RejectedBox] = []
    labels_by_stem: dict[str, list[ObjectLabel]] = {}
    points_data = 0
    points_removed = 0
    clusters_total = 0
    noise_total = 0
    labels_total = 0
    for frame, stem in zip(seq.frames, seq.stems):
        n_before = frame.n_data_points
        filtered = filter_frame(frame, model, cfg.d_threshold)
        clusters, noise = dbscan(filtered, cfg.epsilon, cfg.min_pts)
        labels = annotate_frame(filtered, clusters, cfg, reject_sink=rejects.append)
        labels_by_stem[stem] = labels
        points_data += n_before
        points_removed += n_before - filtered.n_data_points
        clusters_total += len(clusters)
        noise_total += len(noise)
        labels_total += len(labels)

    _publish_whole(labels_dir, lambda staged: write_labels(labels_by_stem, staged))
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
    return TeacherRunResult(entry.name, labels_dir, stats)


def _publish_whole(directory: Path, write: Callable[[Path], None]) -> None:
    """Replace ``directory`` by exactly the files ``write`` puts into it.

    ``write`` fills a sibling staging directory that is then renamed into
    place, so a rerun leaves no file of a frame that no longer exists.  If
    ``write`` raises, the staging directory is removed and ``directory`` is
    left as it was.
    """
    staged = directory.with_name(f".{directory.name}.partial")
    shutil.rmtree(staged, ignore_errors=True)
    staged.mkdir(parents=True)
    try:
        write(staged)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(staged, directory)


def run_annotate(config: PipelineConfig) -> tuple[list[TeacherRunResult], dict[str, str]]:
    """Run every dataset's teacher; one dataset's failure leaves others intact.

    Returns the successful results and a name -> error-message map for the
    failures.
    """
    results: list[TeacherRunResult] = []
    failures: dict[str, str] = {}
    use_pool = config.parallelism > 1 and len(config.datasets) > 1
    with ProcessPoolExecutor(max_workers=config.parallelism) if use_pool else nullcontext() as pool:
        futures = [
            pool.submit(run_teacher, entry, config.output_root) if pool else None
            for entry in config.datasets
        ]
        for entry, future in zip(config.datasets, futures):
            try:
                results.append(future.result() if future else run_teacher(entry, config.output_root))
            except Exception as exc:  # noqa: BLE001 - isolate dataset failures
                failures[entry.name] = str(exc)
                log.error("dataset %s failed: %s", entry.name, exc)
    results.sort(key=lambda r: r.name)
    return results, failures


# ---------------------------------------------------------------------------
# Superset merging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeInput:
    name: str
    frames_dir: Path
    labels_dir: Path
    meta: SensorMeta
    transform: UnificationTransform


def _parse_merge_input(entry: dict) -> MergeInput:
    return MergeInput(
        name=str(entry["name"]),
        frames_dir=Path(entry["frames"]),
        labels_dir=Path(entry["labels"]),
        meta=_parse_sensor(entry["sensor"]),
        transform=_parse_transform(entry.get("transform")),
    )


def parse_merge_config(path: str | Path) -> tuple[list[MergeInput], Path]:
    """Load the merge configuration: labeled inputs and the output root."""
    return read_json_config(path, lambda data: (
        [_parse_merge_input(entry) for entry in data["inputs"]], Path(data["output_root"])
    ))


def _write_merged_frames(item: MergeInput, files: list[Path], directory: Path) -> None:
    """Transform each frame file into ``directory``, one file at a time.

    An overflow is not warned about: ``write_frame_file`` rejects the
    non-finite value it leaves, and the error names the source file.
    """
    for file in files:
        xyz, padding = frame_points(read_frame_file(file))
        with np.errstate(over="ignore", invalid="ignore"):
            if item.meta.unit_scale != 1.0:
                xyz *= item.meta.unit_scale
            if not item.transform.is_identity:
                xyz = apply_transform_points(xyz, padding, item.transform)
        try:
            write_frame_file(directory / file.name, xyz)
        except DataError as exc:
            raise DataError(f"dataset '{item.name}': cannot merge {file}: {exc}") from None


def merge_supersets(inputs: list[MergeInput], output_root: str | Path) -> Path:
    """Unify several labeled datasets into one training superset.

    Frames and labels are mapped into the common coordinate frame (labels
    transform covariantly) and listed in an index file with provenance tags:
    one ``name frame_path label_path`` line per frame.  No labels are created,
    dropped or deduplicated by merging.  Frames are transformed one file at
    a time, with the float64 arithmetic of ``unify_units`` and
    ``unify_datasets``.  Each dataset's ``frames/`` and then ``labels/`` are
    replaced whole, so a rerun leaves no stale files, and a frame that fails
    (say, a coordinate that is not finite as float32) leaves both as they
    were.
    """
    if not inputs:
        raise ConfigError("merge needs at least one labeled dataset")
    names = [item.name for item in inputs]
    if len(set(names)) != len(names):
        raise ConfigError("merge input names must be distinct (they name output directories)")
    output_root = Path(output_root)
    output_root.mkdir(parents=True, exist_ok=True)
    index_lines = []
    for item in inputs:
        files = list_frame_files(item.frames_dir)
        stems = [file.stem for file in files]
        labels = read_labels(item.labels_dir)
        missing = sorted(set(stems) - set(labels))
        if missing:
            raise DataError(
                f"dataset '{item.name}': no label file for frames: " + ", ".join(missing)
            )
        frames_out = output_root / item.name / "frames"
        labels_out = output_root / item.name / "labels"
        transformed = {
            stem: [transform_label(lb, item.transform) for lb in labels[stem]]
            for stem in stems
        }
        _publish_whole(frames_out, lambda staged: _write_merged_frames(item, files, staged))
        _publish_whole(labels_out, lambda staged: write_labels(transformed, staged))
        index_lines += [
            f"{item.name} {frames_out / (stem + '.bin')} {labels_out / (stem + '.txt')}\n"
            for stem in stems
        ]
    index_path = output_root / "index.txt"
    index_path.write_text("".join(index_lines), encoding="utf-8")
    return index_path


# ---------------------------------------------------------------------------
# Iterative re-labeling loop
# ---------------------------------------------------------------------------

def _read_manifest(workspace: Path) -> dict:
    manifest_path = workspace / MANIFEST_NAME
    if not manifest_path.exists():
        return {"rounds": []}
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"unreadable manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("rounds"), list):
        raise DataError(f"manifest {manifest_path} has no list of rounds")
    return manifest


def iterate(
    predictions_dir: str | Path,
    workspace: str | Path,
    score_threshold: float = DEFAULT_ITERATE_SCORE_THRESHOLD,
) -> Path:
    """Turn external detector predictions into the next round's ground truth.

    Predictions are read as external (an in-memory tag that label files do
    not carry), thresholded on score, and written to
    ``<workspace>/round_NNN/``, replaced whole so that a round left behind
    by an interrupted run keeps no stale files; the workspace manifest
    records the round index and provenance.  Running on predictions
    identical to the previous round's labels reproduces them
    byte-identically (fixed point).
    """
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    predictions = read_labels(predictions_dir, source=LabelSource.EXTERNAL)
    if not predictions:
        raise DataError(f"no prediction files in {predictions_dir}")
    manifest = _read_manifest(workspace)
    round_index = len(manifest["rounds"]) + 1
    round_dir = workspace / f"round_{round_index:03d}"

    kept_total = 0
    next_labels = {}
    for stem, labels in predictions.items():
        kept = [lb for lb in labels if lb.score >= score_threshold]
        kept_total += len(kept)
        next_labels[stem] = kept
    if kept_total == 0:
        log.warning(
            "iterate: every prediction fell below score threshold %.3f; "
            "round %d labels are empty", score_threshold, round_index,
        )
    _publish_whole(round_dir, lambda staged: write_labels(next_labels, staged))
    manifest["rounds"].append(
        {
            "round": round_index,
            "directory": round_dir.name,
            "predictions": str(predictions_dir),
            "score_threshold": score_threshold,
            "labels_kept": kept_total,
        }
    )
    (workspace / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return round_dir
