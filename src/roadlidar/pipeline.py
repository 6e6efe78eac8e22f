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
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .annotate import RejectedBox, label_rows
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
    LabelSet,
    SensorMeta,
    TeacherConfig,
    check_label_rows,
    json_fields,
    json_float,
    json_floats,
    json_int,
    json_list,
    json_path,
    json_value,
    list_frame_files,
    publish,
    read_json_config,
)
from .preprocess import UnificationTransform, apply_transform_points

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
        _check_output_names([d.name for d in self.datasets], "dataset")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")


def _check_output_names(names: list[str], kind: str) -> None:
    """Names that each name an output directory must be distinct, and each
    one plain path component: a string, not empty, ``.`` or ``..``, and with
    no ``/``, ``\\`` or whitespace.  Anything else is a ConfigError."""
    for name in names:
        plain = isinstance(name, str) and name not in ("", ".", "..")
        if not plain or any(c in "/\\" or c.isspace() for c in name):
            raise ConfigError(
                f"{kind} name {name!r} must be one plain path component: "
                "not empty, '.' or '..', and with no '/', '\\' or whitespace"
            )
    if len(set(names)) != len(names):
        raise ConfigError(f"{kind} names must be distinct (they name output directories)")


# The readers of each config section's fields, keyed as the file spells them.
_SENSOR_FIELDS = {"rays_horizontal": json_int, "rays_vertical": json_int, "unit_scale": json_float}
_TEACHER_FIELDS = {
    **dict.fromkeys(("n_query", "n_bin", "n_tall", "min_pts"), json_int),
    **dict.fromkeys(("d_threshold", "epsilon", "l_min", "h_min", "beta_min"), json_float),
    "crop": lambda value, name: CropBounds(**json_fields(
        value, name, **dict.fromkeys(("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"), json_float)
    )),
}


def _read_sensor(value: Any, name: str) -> SensorMeta:
    return SensorMeta(**json_fields(value, name, **_SENSOR_FIELDS))


def _parse_dataset(entry: Any, name: str) -> DatasetEntry:
    f = json_fields(entry, name, name=json_value, frames=json_path, sensor=_read_sensor,
                    teacher=partial(json_fields, **_TEACHER_FIELDS), background_model_in=json_path,
                    transform=json_value)
    if "transform" in f:
        raise ConfigError(
            f"dataset '{f.get('name')}': annotate applies no transform; "
            "set it on the merge input instead"
        )
    meta = f.pop("sensor")
    return DatasetEntry(f.pop("name"), f.pop("frames"), meta,
                        TeacherConfig(n_total=meta.beam_count, **f.pop("teacher")), **f)


def _pipeline_config(data: Any) -> PipelineConfig:
    f = json_fields(data, "annotate config", datasets=partial(json_list, read=_parse_dataset),
                    output_root=json_path, parallelism=json_int)
    return PipelineConfig(f.pop("datasets"), **f)


def parse_pipeline_config(path: str | Path) -> PipelineConfig:
    """Load the declarative pipeline configuration (JSON)."""
    return read_json_config(path, _pipeline_config)


# ---------------------------------------------------------------------------
# Teacher run
# ---------------------------------------------------------------------------

def _read_beams(
    buffers: FrameBuffers, file: Path, meta: SensorMeta, crop: CropBounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame file in meters, as its xyz (a view into ``buffers``), each
    beam's range and the mask of the beams that hold data inside the crop.

    The bits are those of ``load_frame_sequence``, ``unify_units`` and
    ``crop_frame``, but nothing is copied: a cropped beam keeps its point
    and is only masked out.  A range that is not finite (a point that the
    unit scale carries past float64) is a DataError naming the file.
    """
    xyz, padding = buffers.read(file)
    with np.errstate(over="ignore"):
        if meta.unit_scale != 1.0:
            xyz *= meta.unit_scale
        ranges = point_ranges(xyz)
    if not np.isfinite(ranges).all():
        raise DataError(f"frame file {file}: a point's range overflows float64 at unit_scale {meta.unit_scale!r}")
    return xyz, ranges, ~padding & crop.contains(xyz)


def _query_histogram(
    buffers: FrameBuffers, files: list[Path], meta: SensorMeta, cfg: TeacherConfig
) -> DistanceHistogram:
    """The histogram of the first ``n_query`` files, each read once and handed
    to ``histogram_of_ranges`` as it is read, which keeps only its data
    beams' ranges and packed mask until the histogram is built."""
    if cfg.n_query > len(files):
        raise DataError(f"n_query {cfg.n_query} exceeds sequence length {len(files)}")
    window = (_read_beams(buffers, file, meta, cfg.crop)[1:] for file in files[:cfg.n_query])
    return histogram_of_ranges(window, cfg.n_total, cfg.n_bin)


def run_teacher(entry: DatasetEntry, output_root: str | Path) -> dict:
    """Run the full teacher on one dataset and write labels plus run artifacts.

    Stages: unit unification, cropping, background model over the query
    window, then per frame background filtering, clustering and annotation.
    Frames stream from disk through one ``FrameBuffers``, in one pass over
    each frame's beams: the first ``n_query`` files are read for the model
    (none when ``background_model_in`` is set), keeping only each beam's
    range and data mask, then every file is read in turn.  Its ranges are
    computed once; the crop and the filter are masks over them, and only
    the foreground points left are copied out, into the compact frame that
    DBSCAN and the box fit take.  A frame's boxes go from ``label_rows`` to
    its label file as arrays, checked once by ``check_label_rows``, which
    names the frame file.  Peak memory is the model build: the query
    window, held as each frame's data-beam ranges and packed mask, plus the
    histogram and the codec's one frame, whatever the recording length;
    only rejects and counts accumulate.
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
    buffers = FrameBuffers(cfg.n_total)

    if entry.background_model_in is not None:
        model = load_background_model(entry.background_model_in)
        if model.n_total != cfg.n_total:
            raise DataError(
                f"background model {entry.background_model_in} has arity {model.n_total}, "
                f"but the sensor has {cfg.n_total} beams"
            )
    else:
        model = select_background(_query_histogram(buffers, files, entry.meta, cfg), cfg.n_tall)

    rejects: list[RejectedBox] = []
    points_data = points_removed = clusters_total = noise_total = labels_total = 0
    with publish(
        out_dir / "labels", out_dir / "stats.json", out_dir / "rejects.log", out_dir / "background.model"
    ) as (labels_dir, stats_path, rejects_path, model_path):
        labels_dir.mkdir()
        for t, file in enumerate(files, start=1):
            xyz, ranges, data = _read_beams(buffers, file, entry.meta, cfg.crop)
            active = np.flatnonzero(data & ~near_background(ranges, model, cfg.d_threshold))
            foreground = Frame(t, xyz[active], np.zeros(len(active), dtype=bool))
            try:
                clusters, noise = dbscan(foreground, cfg.epsilon, cfg.min_pts)
            except DataError as exc:
                raise DataError(f"frame file {file}: {exc}") from None
            codes, values = label_rows(foreground.xyz, clusters, cfg, t, rejects.append)
            check_label_rows(values, lambda k: f"frame file {file}")
            LabelSet((file.stem,), np.array([len(codes)], dtype=np.int64), codes, values).write(labels_dir)
            n_data = int(np.count_nonzero(data))
            points_data += n_data
            points_removed += n_data - len(active)
            clusters_total += len(clusters)
            noise_total += len(noise)
            labels_total += len(codes)

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
    transform: UnificationTransform = UnificationTransform()


def _parse_merge_input(entry: Any, name: str) -> MergeInput:
    f = json_fields(entry, name, name=json_value, frames=json_path, labels=json_path, sensor=_read_sensor,
                    transform=lambda value, name: UnificationTransform(**json_fields(
                        value, name, translation=partial(json_floats, n=3), scale=json_float
                    )))
    return MergeInput(f.pop("name"), f.pop("frames"), f.pop("labels"), f.pop("sensor"), **f)


def _merge_config(data: Any) -> tuple[list[MergeInput], Path]:
    f = json_fields(data, "merge config", inputs=partial(json_list, read=_parse_merge_input),
                    output_root=json_path)
    return f["inputs"], f["output_root"]


def parse_merge_config(path: str | Path) -> tuple[list[MergeInput], Path]:
    """Load the merge configuration: labeled inputs and the output root."""
    return read_json_config(path, _merge_config)


def _map_labels(table: LabelSet, item: MergeInput) -> LabelSet:
    """The input's labels mapped covariantly, in float64: centers ``* scale
    + translation``, dimensions ``* scale``, yaw and score kept.  The identity
    keeps every value as read, ``-0.0`` too.  A row the mapping makes invalid
    (say, an overflow to inf) is a DataError naming the dataset and file."""
    transform = item.transform
    if transform.is_identity:
        return table
    values = table.values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        values[:, :3] = values[:, :3] * transform.scale + np.array(transform.translation)
        values[:, 3:6] *= transform.scale
    ends = np.cumsum(table.counts)
    check_label_rows(values, lambda k: f"dataset '{item.name}': cannot merge "
                     f"{item.labels_dir / table.stems[int(np.searchsorted(ends, k, side='right'))]}.txt")
    return LabelSet(table.stems, table.counts, table.classes, values)


def merge_supersets(inputs: list[MergeInput], output_root: str | Path) -> Path:
    """Unify several labeled datasets into one training superset.

    Frames and labels are mapped into the common coordinate frame (labels
    transform covariantly) and listed in an index file with provenance tags:
    one ``name frame_path label_path`` line per frame.  No labels are created,
    dropped or deduplicated by merging: every frame needs a label file and
    every label file a frame.  An input's labels are read and mapped as one
    ``LabelSet`` (``_map_labels``), so a bad label file or label is a
    DataError before any of its frames is written.  Each stem is then one
    pass: its frame is read through the input's ``FrameBuffers``, scaled
    and transformed in place in float64 and written, then its label file
    and index line.  Every dataset's ``frames/`` and ``labels/`` and
    ``index.txt`` are published together by ``publish``: a rerun leaves no
    stale files, and a failure on any input (say, a coordinate that is not
    finite as float32) leaves the output root as it was.
    """
    if not inputs:
        raise ConfigError("merge needs at least one labeled dataset")
    names = [item.name for item in inputs]
    _check_output_names(names, "merge input")
    output_root = Path(output_root)
    index_path = output_root / "index.txt"
    for name in ("index.txt", ".index.txt.partial"):
        if name in names:
            raise ConfigError(f"merge input name {name!r} is reserved: the index is staged and written there")
    targets = [output_root / item.name / kind for item in inputs for kind in ("frames", "labels")]
    with publish(*targets, index_path) as staged:
        index_lines = []
        for item, frames_out, labels_out, frames_dir, labels_dir in zip(
            inputs, targets[::2], targets[1::2], staged[::2], staged[1::2]
        ):
            files = list_frame_files(item.frames_dir)
            stems = [file.stem for file in files]
            table = LabelSet.read(item.labels_dir)
            missing = sorted(set(stems) - set(table.stems))
            if missing:
                raise DataError(
                    f"dataset '{item.name}': no label file for frames: " + ", ".join(missing)
                )
            unmatched = sorted(set(table.stems) - set(stems))
            if unmatched:
                raise DataError(
                    f"dataset '{item.name}': no frame for label files: " + ", ".join(unmatched)
                )
            texts = _map_labels(table, item).texts()
            frames_dir.mkdir()
            labels_dir.mkdir()
            buffers = FrameBuffers(item.meta.beam_count)
            for file, stem in zip(files, stems):
                try:
                    xyz, padding = buffers.read(file)
                except DataError as exc:  # it names the file
                    raise DataError(f"dataset '{item.name}': {exc}") from None
                # An overflow is not warned about: ``FrameBuffers.write`` rejects what it leaves.
                with np.errstate(over="ignore", invalid="ignore"):
                    if item.meta.unit_scale != 1.0:
                        xyz *= item.meta.unit_scale
                    apply_transform_points(xyz, padding, item.transform)
                try:
                    buffers.write(frames_dir / file.name, xyz)
                except DataError as exc:
                    raise DataError(f"dataset '{item.name}': cannot merge {file}: {exc}") from None
                (labels_dir / f"{stem}.txt").write_text(texts[stem], encoding="utf-8")
                index_lines.append(f"{item.name} {frames_out / file.name} {labels_out / f'{stem}.txt'}\n")
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
    """A score threshold as a float in [0, 1]: a bool or a string is refused,
    as in a config, and so is NaN, which would keep no label."""
    threshold = json_float(value, "score_threshold")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"score_threshold must be in [0, 1], got {value!r}")
    return threshold


def iterate(
    predictions_dir: str | Path,
    workspace: str | Path,
    score_threshold: float = DEFAULT_ITERATE_SCORE_THRESHOLD,
) -> Path:
    """Turn external detector predictions into the next round's ground truth.

    The predictions' ``LabelSet`` keeps the labels scored at or above the
    threshold, every stem keeping its file, and is written to
    ``<workspace>/round_NNN/``; the workspace manifest records the round
    index, provenance and labels kept.  The round directory and the
    manifest are published together by ``publish``, so a round left behind
    by an interrupted run keeps no stale files.  Running on predictions
    identical to the previous round's labels reproduces them
    byte-identically (fixed point).
    """
    score_threshold = validate_score_threshold(score_threshold)
    workspace = Path(workspace)
    predictions = LabelSet.read(predictions_dir)
    if not predictions.stems:
        raise DataError(f"no prediction files in {predictions_dir}")
    manifest = _read_manifest(workspace)
    round_index = len(manifest["rounds"]) + 1
    round_dir = workspace / f"round_{round_index:03d}"

    kept = predictions.values[:, 7] >= score_threshold
    kept_total = int(np.count_nonzero(kept))
    stem_of_row = np.repeat(np.arange(len(predictions.stems)), predictions.counts)
    next_labels = LabelSet(predictions.stems, np.bincount(stem_of_row[kept], minlength=len(predictions.stems)),
                           predictions.classes[kept], predictions.values[kept])
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
        round_staged.mkdir()
        next_labels.write(round_staged)
        manifest_staged.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return round_dir
