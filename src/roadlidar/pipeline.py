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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

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
    LabelSource,
    ObjectLabel,
    SensorMeta,
    TeacherConfig,
    json_floats,
    list_frame_files,
    load_frame_sequence,
    publish,
    read_frame_file,
    read_json_config,
    read_labels,
    write_frame_file,
    write_labels,
)
from .preprocess import UnificationTransform, apply_transform_points, crop_frame, transform_label, unify_units

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

    def __post_init__(self) -> None:
        if self.teacher.n_total != self.meta.beam_count:
            raise ConfigError(
                f"dataset '{self.name}': n_total {self.teacher.n_total} is not "
                f"the sensor's beam count {self.meta.beam_count}"
            )


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


def _parse_teacher(data: dict, n_total: int) -> TeacherConfig:
    return TeacherConfig(
        n_total=n_total,
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
        raise ConfigError(
            f"dataset '{entry.get('name')}': annotate applies no transform; "
            "set it on the merge input instead"
        )
    meta = _parse_sensor(entry["sensor"])
    model_in = entry.get("background_model_in")
    return DatasetEntry(
        name=str(entry["name"]),
        frames_dir=Path(entry["frames"]),
        meta=meta,
        teacher=_parse_teacher(entry["teacher"], meta.beam_count),
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

    Stages: unit unification, cropping, background model over the query
    window, then per frame background filtering, clustering and annotation.
    Outputs under ``<output_root>/<name>/``: ``labels/``, ``stats.json``,
    ``rejects.log`` and the background model sidecar, published together
    by ``publish`` after the last frame: a run that fails or is cut short,
    even while writing them, leaves the previous four as they were.
    """
    cfg = entry.teacher
    out_dir = Path(output_root) / entry.name
    labels_dir = out_dir / "labels"

    seq = load_frame_sequence(entry.frames_dir, entry.meta)
    seq = unify_units(seq)
    # One frame at a time, so no frame is alive next to its cropped copy.
    for i, frame in enumerate(seq.frames):
        seq.frames[i] = crop_frame(frame, cfg.crop)

    if entry.background_model_in is not None:
        model = load_background_model(entry.background_model_in)
        if model.n_total != cfg.n_total:
            raise DataError(
                f"background model {entry.background_model_in} has arity {model.n_total}, "
                f"but the sensor has {cfg.n_total} beams"
            )
    else:
        query = extract_query_frames(seq, cfg.n_query)
        hist = build_histogram(query, cfg.n_bin)
        model = select_background(hist, cfg.n_tall)

    rejects: list[RejectedBox] = []
    labels_by_stem: dict[str, list[ObjectLabel]] = {}
    points_data = points_removed = clusters_total = noise_total = 0
    for frame, stem in zip(seq.frames, seq.stems):
        n_before = frame.n_data_points
        filtered = filter_frame(frame, model, cfg.d_threshold)
        clusters, noise = dbscan(filtered, cfg.epsilon, cfg.min_pts)
        labels_by_stem[stem] = annotate_frame(filtered, clusters, cfg, reject_sink=rejects.append)
        points_data += n_before
        points_removed += n_before - filtered.n_data_points
        clusters_total += len(clusters)
        noise_total += len(noise)

    stats = {
        "dataset": entry.name,
        "frames": len(seq),
        "points_data": points_data,
        "points_removed": points_removed,
        "points_removed_pct": round(100.0 * points_removed / points_data, 4) if points_data else 0.0,
        "clusters_found": clusters_total,
        "noise_points": noise_total,
        "boxes_rejected": len(rejects),
        "labels_written": sum(map(len, labels_by_stem.values())),
    }
    stats_text = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    rejects_text = "".join(r.format_line() + "\n" for r in rejects)
    publish({
        labels_dir: partial(write_labels, labels_by_stem),
        out_dir / "stats.json": lambda path: path.write_text(stats_text, encoding="utf-8"),
        out_dir / "rejects.log": lambda path: path.write_text(rejects_text, encoding="utf-8"),
        out_dir / "background.model": partial(save_background_model, model),
    })
    return TeacherRunResult(entry.name, labels_dir, stats)


def run_annotate(config: PipelineConfig) -> tuple[list[TeacherRunResult], dict[str, str]]:
    """Run every dataset's teacher; one dataset's failure leaves others intact.

    Returns the successful results and a name -> error-message map for the
    failures.
    """
    results: list[TeacherRunResult] = []
    failures: dict[str, str] = {}
    # A pool starts all of its workers at the first submit: ask for no more than needed.
    workers = min(config.parallelism, len(config.datasets))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        futures = [
            pool.submit(run_teacher, entry, config.output_root) if pool else None
            for entry in config.datasets
        ]
        for entry, future in zip(config.datasets, futures):
            try:
                results.append(future.result() if future else run_teacher(entry, config.output_root))
            except Exception as exc:  # noqa: BLE001 - isolate dataset failures
                failures[entry.name] = str(exc)
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
    """Create ``directory`` and transform each frame file into it, one at a time.

    An overflow is not warned about: ``write_frame_file`` rejects the
    non-finite value it leaves, and the error names the source file.
    """
    directory.mkdir()
    for file in files:
        xyz, padding = read_frame_file(file, item.meta.beam_count)
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
    ``unify_datasets``.  Every dataset's ``frames/`` and ``labels/`` and
    ``index.txt`` are published together by ``publish``: a rerun leaves no
    stale files, and a failure on any input (say, a coordinate that is not
    finite as float32) leaves the output root as it was.
    """
    if not inputs:
        raise ConfigError("merge needs at least one labeled dataset")
    names = [item.name for item in inputs]
    if len(set(names)) != len(names):
        raise ConfigError("merge input names must be distinct (they name output directories)")
    output_root = Path(output_root)
    index_lines = []
    outputs = {}
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
        outputs[frames_out] = partial(_write_merged_frames, item, files)
        outputs[labels_out] = partial(write_labels, transformed)
        index_lines += [
            f"{item.name} {frames_out / (stem + '.bin')} {labels_out / (stem + '.txt')}\n"
            for stem in stems
        ]
    index_path = output_root / "index.txt"
    outputs[index_path] = lambda path: path.write_text("".join(index_lines), encoding="utf-8")
    publish(outputs)
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


def validate_score_threshold(value) -> float:
    """A score threshold as a float in [0, 1]; NaN, which would keep no label, is refused."""
    threshold = float(value)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"score_threshold must be in [0, 1], got {value!r}")
    return threshold


def iterate(
    predictions_dir: str | Path,
    workspace: str | Path,
    score_threshold: float = DEFAULT_ITERATE_SCORE_THRESHOLD,
) -> Path:
    """Turn external detector predictions into the next round's ground truth.

    Predictions are read as external (an in-memory tag that label files do
    not carry), thresholded on score, and written to
    ``<workspace>/round_NNN/``; the workspace manifest records the round
    index and provenance.  The round directory and the manifest are
    published together by ``publish``, so a round left behind by an
    interrupted run keeps no stale files.  Running on predictions identical
    to the previous round's labels reproduces them byte-identically (fixed
    point).
    """
    score_threshold = validate_score_threshold(score_threshold)
    workspace = Path(workspace)
    predictions = read_labels(predictions_dir, source=LabelSource.EXTERNAL)
    if not predictions:
        raise DataError(f"no prediction files in {predictions_dir}")
    manifest = _read_manifest(workspace)
    round_index = len(manifest["rounds"]) + 1
    round_dir = workspace / f"round_{round_index:03d}"

    next_labels = {
        stem: [lb for lb in labels if lb.score >= score_threshold] for stem, labels in predictions.items()
    }
    kept_total = sum(map(len, next_labels.values()))
    if kept_total == 0:
        log.warning(
            "iterate: every prediction fell below score threshold %.3f; "
            "round %d labels are empty", score_threshold, round_index,
        )
    manifest["rounds"].append(
        {
            "round": round_index,
            "directory": round_dir.name,
            "predictions": str(predictions_dir),
            "score_threshold": score_threshold,
            "labels_kept": kept_total,
        }
    )
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    publish({
        round_dir: partial(write_labels, next_labels),
        workspace / MANIFEST_NAME: lambda path: path.write_text(manifest_text, encoding="utf-8"),
    })
    return round_dir
