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
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotate import RejectedBox, annotate_frame
from .background import (
    DistanceHistogram,
    histogram_of_ranges,
    load_background_model,
    near_background,
    point_ranges,
    save_background_model,
    select_background,
)
from .clustering import dbscan
from .core import (
    ConfigError,
    CropBounds,
    DataError,
    Frame,
    FrameBuffers,
    LabelSource,
    SensorMeta,
    TeacherConfig,
    json_floats,
    json_int,
    list_frame_files,
    publish,
    read_frame_file,
    read_json_config,
    read_labels,
    write_label_file,
    write_labels,
)
from .preprocess import UnificationTransform, apply_transform_points, transform_label

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


def _parse_sensor(data: dict) -> SensorMeta:
    return SensorMeta(
        rays_horizontal=json_int(data["rays_horizontal"], "rays_horizontal"),
        rays_vertical=json_int(data["rays_vertical"], "rays_vertical"),
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
        n_query=json_int(data["n_query"], "n_query"),
        n_bin=json_int(data["n_bin"], "n_bin"),
        n_tall=json_int(data["n_tall"], "n_tall"),
        d_threshold=float(data["d_threshold"]),
        epsilon=float(data["epsilon"]),
        min_pts=json_int(data["min_pts"], "min_pts"),
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
        parallelism=json_int(data.get("parallelism", 1), "parallelism"),
    ))


# ---------------------------------------------------------------------------
# Teacher run
# ---------------------------------------------------------------------------

def _read_beams(file: Path, meta: SensorMeta, crop: CropBounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame file in meters, as its xyz, each beam's range and the mask
    of the beams that hold data inside the crop.

    The bits are those of ``load_frame_sequence``, ``unify_units`` and
    ``crop_frame``, but nothing is copied: a cropped beam keeps its point
    and is only masked out.
    """
    xyz, padding = read_frame_file(file, meta.beam_count)
    if meta.unit_scale != 1.0:
        xyz *= meta.unit_scale
    return xyz, point_ranges(xyz), ~padding & crop.contains(xyz)


def _query_histogram(files: list[Path], meta: SensorMeta, cfg: TeacherConfig) -> DistanceHistogram:
    """The histogram of the first ``n_query`` files, which are read once and
    kept, until it is built, only as each beam's range and data mask."""
    if cfg.n_query > len(files):
        raise DataError(f"n_query {cfg.n_query} exceeds sequence length {len(files)}")
    window = [_read_beams(file, meta, cfg.crop)[1:] for file in files[:cfg.n_query]]
    return histogram_of_ranges(window, cfg.n_total, cfg.n_bin)


def run_teacher(entry: DatasetEntry, output_root: str | Path) -> dict:
    """Run the full teacher on one dataset and write labels plus run artifacts.

    Stages: unit unification, cropping, background model over the query
    window, then per frame background filtering, clustering and annotation.
    Frames stream from disk, one pass over each frame's beams: the first
    ``n_query`` files are read for the model (none when
    ``background_model_in`` is set), keeping only each beam's range and
    data mask, then every file is read in turn.  Its ranges are computed
    once; the crop and the filter are masks over them, and only the
    foreground points left are copied out, into the compact frame that
    DBSCAN and the box fit take.  Peak memory is the query window's ranges
    plus one frame, whatever the recording length; only rejects and counts
    accumulate.
    Outputs under ``<output_root>/<name>/``: ``labels/``, ``stats.json``,
    ``rejects.log`` and the background model sidecar.  Each frame's label
    file is written as soon as the frame is labelled, into the paths that
    ``publish`` stages once the model is built and renames into place
    together after the last frame: a run that fails or is cut short, even
    while writing them, leaves the previous four as they were.
    Returns the statistics that ``stats.json`` holds.
    """
    cfg = entry.teacher
    out_dir = Path(output_root) / entry.name
    files = list_frame_files(entry.frames_dir)

    if entry.background_model_in is not None:
        model = load_background_model(entry.background_model_in)
        if model.n_total != cfg.n_total:
            raise DataError(
                f"background model {entry.background_model_in} has arity {model.n_total}, "
                f"but the sensor has {cfg.n_total} beams"
            )
    else:
        model = select_background(_query_histogram(files, entry.meta, cfg), cfg.n_tall)

    rejects: list[RejectedBox] = []
    points_data = points_removed = clusters_total = noise_total = labels_total = 0
    with publish(
        out_dir / "labels", out_dir / "stats.json", out_dir / "rejects.log", out_dir / "background.model"
    ) as (labels_dir, stats_path, rejects_path, model_path):
        labels_dir.mkdir()
        for t, file in enumerate(files, start=1):
            xyz, ranges, data = _read_beams(file, entry.meta, cfg.crop)
            active = np.flatnonzero(data & ~near_background(ranges, model, cfg.d_threshold))
            foreground = Frame(t, xyz[active], np.zeros(len(active), dtype=bool))
            clusters, noise = dbscan(foreground, cfg.epsilon, cfg.min_pts)
            labels = annotate_frame(foreground, clusters, cfg, reject_sink=rejects.append)
            write_label_file(labels, labels_dir / f"{file.stem}.txt")
            n_data = int(np.count_nonzero(data))
            points_data += n_data
            points_removed += n_data - len(active)
            clusters_total += len(clusters)
            noise_total += len(noise)
            labels_total += len(labels)

        stats = {
            "dataset": entry.name,
            "frames": len(files),
            "points_data": points_data,
            "points_removed": points_removed,
            "points_removed_pct": round(100.0 * points_removed / points_data, 4) if points_data else 0.0,
            "clusters_found": clusters_total,
            "noise_points": noise_total,
            "boxes_rejected": len(rejects),
            "labels_written": labels_total,
        }
        stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        rejects_path.write_text("".join(r.format_line() + "\n" for r in rejects), encoding="utf-8")
        save_background_model(model, model_path)
    return stats


def run_annotate(config: PipelineConfig) -> tuple[list[dict], dict[str, str]]:
    """Run every dataset's teacher; one dataset's failure leaves others intact.

    Returns the successful datasets' statistics, in name order, and a
    name -> error-message map for the failures.  A worker killed outright
    breaks the whole pool, so each dataset the pool failed reruns once,
    alone, in a fresh one-worker pool: only a dataset that kills that
    worker too fails.
    """
    stats: list[dict] = []
    failures: dict[str, str] = {}
    broken: list[DatasetEntry] = []
    # A pool starts all of its workers at the first submit: ask for no more than needed.
    workers = min(config.parallelism, len(config.datasets))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        futures = [
            pool.submit(run_teacher, entry, config.output_root) if pool else None
            for entry in config.datasets
        ]
        for entry, future in zip(config.datasets, futures):
            try:
                stats.append(future.result() if future else run_teacher(entry, config.output_root))
            except BrokenProcessPool:
                broken.append(entry)
            except Exception as exc:  # noqa: BLE001 - isolate dataset failures
                failures[entry.name] = str(exc)
    for entry in broken:
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                stats.append(pool.submit(run_teacher, entry, config.output_root).result())
        except Exception as exc:  # noqa: BLE001 - isolate dataset failures
            failures[entry.name] = str(exc)
    stats.sort(key=lambda s: s["dataset"])
    return stats, failures


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
    """Create ``directory`` and transform each frame file into it, one at a
    time, through one set of ``FrameBuffers`` and one transformed frame.

    An overflow is not warned about: ``FrameBuffers.write`` rejects the
    non-finite value it leaves, and the error names the source file.
    """
    directory.mkdir()
    buffers = FrameBuffers(item.meta.beam_count)
    transformed = None  # the first frame's result, into which every later frame is transformed
    for file in files:
        xyz, padding = buffers.read(file)
        with np.errstate(over="ignore", invalid="ignore"):
            if item.meta.unit_scale != 1.0:
                xyz *= item.meta.unit_scale
            if not item.transform.is_identity:
                xyz = transformed = apply_transform_points(xyz, padding, item.transform, out=transformed)
        try:
            buffers.write(directory / file.name, xyz)
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
    index_path = output_root / "index.txt"
    targets = [output_root / item.name / kind for item in inputs for kind in ("frames", "labels")]
    with publish(*targets, index_path) as staged:
        index_lines = []
        for item, frames_out, labels_out, frames_dir, labels_dir in zip(
            inputs, targets[::2], targets[1::2], staged[::2], staged[1::2]
        ):
            files = list_frame_files(item.frames_dir)
            stems = [file.stem for file in files]
            labels = read_labels(item.labels_dir)
            missing = sorted(set(stems) - set(labels))
            if missing:
                raise DataError(
                    f"dataset '{item.name}': no label file for frames: " + ", ".join(missing)
                )
            _write_merged_frames(item, files, frames_dir)
            write_labels({
                stem: [transform_label(lb, item.transform) for lb in labels[stem]] for stem in stems
            }, labels_dir)
            index_lines += [
                f"{item.name} {frames_out / (stem + '.bin')} {labels_out / (stem + '.txt')}\n"
                for stem in stems
            ]
        staged[-1].write_text("".join(index_lines), encoding="utf-8")
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
    with publish(round_dir, workspace / MANIFEST_NAME) as (round_staged, manifest_staged):
        write_labels(next_labels, round_staged)
        manifest_staged.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return round_dir
