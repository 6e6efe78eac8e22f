"""Domain types and on-disk formats shared by the whole annotation pipeline.

A frame is a fixed-arity, ordered set of 3D points in a right-handed
Cartesian system centered at the sensor (meters).  Arity is preserved end to
end so that point index ``j`` always refers to the same beam across frames of
one sensor; beams without a return, and points a stage removes, are stored as
zero-padded entries with the padding flag set instead of being deleted.

On-disk formats:

* Frame files: ``<stem>.bin`` -- little-endian float32, four values per
  point (x, y, z, intensity), frames ordered lexicographically by filename.
  A file holds exactly one record per beam of its sensor
  (``rays_horizontal * rays_vertical``), so record ``j`` is beam ``j`` in
  every frame; a beam without a return is an all-zero row, which loads as
  padding (a return at exactly the sensor origin cannot occur physically).
  Intensity is read and discarded, and written as zero.  ``FrameBuffers``
  is the one frame codec (``read_frame_file`` and ``write_frame_file`` wrap
  it), and its ``read`` the one place a frame file is checked: a wrong
  record count or a coordinate that is not finite is a DataError naming the
  file, so the stages after it may assume finite data and zero padding.
* Label files: ``<stem>.txt`` -- UTF-8 text, one object per line::

      class cx cy cz length width height yaw score

  with reals printed at fixed 6-decimal precision, space-separated, class
  spelled ``Vehicle`` or ``Pedestrian``, newline-terminated.  One label file
  per frame, named after the frame stem.
"""

from __future__ import annotations

import enum
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

# Bytes per point record in frame files: 4 x float32.
_POINT_RECORD_BYTES = 16


class ConfigError(ValueError):
    """Invalid configuration or parameter combination (CLI exit code 1)."""


class DataError(ValueError):
    """Malformed or missing input data (CLI exit code 2)."""


class InternalError(RuntimeError):
    """Violated internal invariant (CLI exit code 3)."""


class LabelClass(enum.Enum):
    VEHICLE = "Vehicle"
    PEDESTRIAN = "Pedestrian"


class LabelSource(enum.Enum):
    TEACHER = "Teacher"
    EXTERNAL = "External"


def normalize_yaw_half(yaw: float) -> float:
    """Map an angle to [-pi/2, pi/2); canonical heading of an unoriented box."""
    return (yaw + math.pi / 2.0) % math.pi - math.pi / 2.0


@dataclass(frozen=True)
class SensorMeta:
    """Static description of one LiDAR unit.

    ``unit_scale`` converts the source file units to meters (1.0 when the
    source is already metric).
    """

    rays_horizontal: int
    rays_vertical: int
    unit_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rays_horizontal < 1 or self.rays_vertical < 1:
            raise ConfigError("sensor ray counts must be positive")
        if not (math.isfinite(self.unit_scale) and self.unit_scale > 0):
            raise ConfigError("unit_scale must be finite and positive")

    @property
    def beam_count(self) -> int:
        return self.rays_horizontal * self.rays_vertical


@dataclass(frozen=True)
class CropBounds:
    """Closed cuboid region; points on a boundary face are inside."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise ConfigError("crop bounds must satisfy min < max on every axis")

    def contains(self, xyz: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (n, 3) array."""
        x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
        return (
            (x >= self.x_min) & (x <= self.x_max)
            & (y >= self.y_min) & (y <= self.y_max)
            & (z >= self.z_min) & (z <= self.z_max)
        )


@dataclass
class Frame:
    """One sweep of the sensor.

    ``xyz`` is an (n, 3) float64 array; ``padding`` is an (n,) bool array
    marking filler points.  A padding point is always (0, 0, 0) and every
    other point is finite: ``read_frame_file`` checks this where data enters,
    and the stages keep it true, so construction checks only shapes.  Frames
    are treated as immutable: pipeline stages return new frames and never
    write into an input array.
    """

    timestamp_index: int
    xyz: np.ndarray
    padding: np.ndarray

    def __post_init__(self) -> None:
        self.xyz = np.asarray(self.xyz, dtype=np.float64)
        self.padding = np.asarray(self.padding, dtype=bool)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise DataError("frame xyz must be an (n, 3) array")
        if self.padding.shape != (self.xyz.shape[0],):
            raise DataError("padding mask length must match point count")
        if self.timestamp_index < 1:
            raise DataError("timestamp_index must be >= 1")

    @property
    def n_points(self) -> int:
        return self.xyz.shape[0]

    @property
    def n_data_points(self) -> int:
        return int((~self.padding).sum())

    def without(self, drop: np.ndarray) -> "Frame":
        """This frame with the ``drop`` points replaced by padding (itself if none)."""
        if not drop.any():
            return self
        xyz = self.xyz.copy()
        xyz[drop] = 0.0
        return Frame(self.timestamp_index, xyz, self.padding | drop)


@dataclass
class FrameSequence:
    """Ordered frames from one stationary sensor.

    ``stems`` carries the per-frame file stems so labels can be written next
    to their source frames; synthetic sequences use zero-padded indices.
    """

    frames: list[Frame]
    meta: SensorMeta
    stems: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.frames:
            raise DataError("empty sequence")
        if not self.stems:
            self.stems = [f"{i:06d}" for i in range(len(self.frames))]
        if len(self.stems) != len(self.frames):
            raise InternalError("stem count must match frame count")
        ts = [f.timestamp_index for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DataError("timestamp_index must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ObjectLabel:
    """A validated 3D bounding box with class and score.

    ``length >= width`` by convention, so the longer horizontal extent is
    always the ``length`` field.  ``yaw`` is in radians about +z; producers
    normalize it to [-pi, pi) (values a rounding step outside the interval
    are tolerated so 6-decimal files round-trip exactly).
    """

    center_x: float
    center_y: float
    center_z: float
    length: float
    width: float
    height: float
    yaw: float
    label_class: LabelClass
    score: float
    source: LabelSource = LabelSource.TEACHER

    def __post_init__(self) -> None:
        for name in ("center_x", "center_y", "center_z", "length", "width", "height", "yaw", "score"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"label field {name} must be finite")
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise DataError("box dimensions must be positive")
        if self.length < self.width:
            raise DataError("box length must be >= width")
        if not 0.0 <= self.score <= 1.0:
            raise DataError("score must be in [0, 1]")


@dataclass(frozen=True)
class TeacherConfig:
    """Hyper-parameters of one statistical teacher.

    ``n_total`` is N_total, the beams per frame; a configuration file does
    not set it, the parser takes it from the sensor.
    """

    n_total: int
    n_query: int
    n_bin: int
    n_tall: int
    d_threshold: float
    epsilon: float
    min_pts: int
    l_min: float
    h_min: float
    beta_min: float
    crop: CropBounds

    def __post_init__(self) -> None:
        if self.n_total < 1 or self.n_query < 1 or self.n_bin < 1:
            raise ConfigError("n_total, n_query and n_bin must be >= 1")
        if self.n_tall < 1 or self.n_tall > self.n_bin:
            raise ConfigError("n_tall must be in [1, n_bin]")
        if self.min_pts < 1:
            raise ConfigError("min_pts must be >= 1")
        for name in ("d_threshold", "epsilon", "l_min", "h_min", "beta_min"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def read_json_config(path: str | Path, build: Callable[[Any], T]) -> T:
    """Parse a declarative JSON configuration file into settings via ``build``.

    ``build`` turns the parsed JSON into typed settings and need not guard its
    field reads: a missing field, or a field or section of the wrong JSON
    type, surfaces as a ConfigError naming the file, as do an unreadable file,
    invalid JSON and any ValueError (ConfigError included) that ``build``
    raises for an out-of-range value.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        return build(data)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"invalid config {path}: {detail}") from exc


def json_int(value: Any, name: str) -> int:
    """A config field holding an integral number, as an int; a bool, a
    fraction, a string, NaN or an infinity is a ValueError naming the field."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_floats(value: Any, n: int) -> tuple[float, ...]:
    """A config field holding a list of exactly ``n`` numbers, as floats."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValueError(f"expected a list of {n} numbers, got {value!r}")
    return tuple(float(v) for v in value)


# ---------------------------------------------------------------------------
# Publishing outputs
# ---------------------------------------------------------------------------

def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


@contextmanager
def publish(*targets: Path) -> Iterator[list[Path]]:
    """Replace each target path, a file or a directory, with what the block
    writes; every command publishes its outputs through this one context.

    ``with publish(*targets) as staged:`` yields each target's sibling
    ``.<name>.partial``, in target order, with its parents created and any
    partial a killed run left removed.  The block writes the file, or
    creates the directory, at each staged path, in any order and for as
    long as it runs.  When it exits cleanly, each is renamed over its
    target, a directory replacing the old one whole.  If the block raises,
    an interrupt included, or an existing target is a directory where a
    file was written or the reverse (a DataError naming it), every staged
    path is removed and no target is touched.
    """
    staged = [target.with_name(f".{target.name}.partial") for target in targets]
    try:
        for partial in staged:
            partial.parent.mkdir(parents=True, exist_ok=True)
            _remove(partial)
        yield staged
        for target, partial in zip(targets, staged):
            if target.exists() and target.is_dir() != partial.is_dir():
                kinds = ("file", "directory")
                raise DataError(f"cannot replace the {kinds[target.is_dir()]} {target} "
                                f"with a {kinds[partial.is_dir()]}")
        for target, partial in zip(targets, staged):
            if target.is_dir():
                shutil.rmtree(target)
            os.replace(partial, target)
    except BaseException:
        for partial in staged:
            _remove(partial)
        raise


# ---------------------------------------------------------------------------
# Frame file I/O
# ---------------------------------------------------------------------------

class FrameBuffers:
    """The frame file codec: decodes and encodes the frames of one sensor
    through arrays allocated once, for its ``beam_count``, and reused by
    every call.

    ``read`` returns views of these arrays, valid until the next ``read``;
    ``write`` takes any (beam_count, 3) array, such a view included.  A
    call that fails leaves the arrays to be overwritten whole by the next.
    Each array is allocated at its first use, after ``read`` has checked a
    file's size: a beam count too large to allocate is reported as the
    malformed frame file it meets, and a codec that only reads, such as
    ``read_frame_file``'s, never allocates the write record (which made a
    loop of such reads three times slower).
    """

    def __init__(self, beam_count: int) -> None:
        self.beam_count = beam_count

    @cached_property
    def _decoded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The file's records, its xyz and its padding mask.  The xyz is
        column-major: the per-beam stages read it one coordinate at a time,
        and a contiguous column reads several times faster."""
        n = self.beam_count
        return np.empty((n, 4), dtype="<f4"), np.empty((n, 3), order="F"), np.empty(n, dtype=bool)

    @cached_property
    def _scratch(self) -> np.ndarray:
        return np.empty(self.beam_count, dtype=bool)

    @cached_property
    def _record(self) -> np.ndarray:
        """The records ``write`` encodes; their intensity stays zero."""
        return np.zeros((self.beam_count, 4), dtype="<f4")

    def _all_finite(self, columns: np.ndarray) -> bool:
        return all(np.isfinite(column, out=self._scratch).all() for column in columns.T)

    def read(self, path: Path) -> tuple[np.ndarray, np.ndarray]:
        """One .bin frame file: its xyz as a column-major (n, 3) float64
        array and its padding mask, the all-zero rows (``-0.0`` counts as
        zero).

        The file must be readable and hold exactly ``beam_count`` records,
        every x, y and z of them finite; otherwise a DataError names the file.
        """
        expected = self.beam_count * _POINT_RECORD_BYTES
        try:
            with open(path, "rb", buffering=0) as file:
                size = os.fstat(file.fileno()).st_size
                if size == expected:
                    size = file.readinto(self._decoded[0])
        except OSError as exc:
            raise DataError(f"cannot read frame file {path}: {exc}") from exc
        if size != expected:
            raise DataError(
                f"malformed frame file {path}: {size} bytes, but the sensor's "
                f"{self.beam_count} beams take {expected} "
                f"({_POINT_RECORD_BYTES} bytes each)"
            )
        raw, xyz, padding = self._decoded
        np.copyto(xyz, raw[:, :3])
        if not self._all_finite(xyz):
            raise DataError(f"malformed frame file {path}: a coordinate is not finite")
        np.equal(xyz[:, 0], 0.0, out=padding)
        for axis in (1, 2):
            padding &= np.equal(xyz[:, axis], 0.0, out=self._scratch)
        return xyz, padding

    def write(self, path: Path, xyz: np.ndarray) -> None:
        """Write points as little-endian float32 (x, y, z, intensity) records,
        with zero intensity.

        A record that is not finite in float32 -- NaN or infinite input, or
        a value beyond the float32 range -- is a DataError naming the file,
        and nothing is written.
        """
        record = self._record
        with np.errstate(over="ignore", invalid="ignore"):
            for axis in range(3):
                record[:, axis] = xyz[:, axis]
        if not self._all_finite(record[:, :3]):
            raise DataError(f"frame file {path}: a value is not finite as float32")
        with open(path, "wb") as file:
            file.write(record.data)


def read_frame_file(path: Path, beam_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read one .bin frame file through fresh ``FrameBuffers`` (see ``read``)."""
    return FrameBuffers(beam_count).read(path)


def write_frame_file(path: Path, xyz: np.ndarray) -> None:
    """Write one .bin frame file through fresh ``FrameBuffers`` (see ``write``)."""
    xyz = np.asarray(xyz, dtype=np.float64)
    FrameBuffers(xyz.shape[0]).write(path, xyz)


def list_frame_files(path: str | Path) -> list[Path]:
    """The .bin files of a frame directory, in lexicographic filename order."""
    directory = Path(path)
    if not directory.is_dir():
        raise DataError(f"frame directory not found: {directory}")
    files = sorted(directory.glob("*.bin"))
    if not files:
        raise DataError(f"empty sequence: no .bin files in {directory}")
    return files


def load_frame_sequence(path: str | Path, meta: SensorMeta) -> FrameSequence:
    """Load a directory of per-frame .bin files, lexicographic filename order.

    Raw units are preserved; scaling to meters happens in the preprocessor.
    Every file is checked against ``meta`` by ``read_frame_file``.
    """
    files = list_frame_files(path)
    frames = [
        Frame(t, *read_frame_file(file, meta.beam_count)) for t, file in enumerate(files, start=1)
    ]
    return FrameSequence(frames, meta, [file.stem for file in files])


# ---------------------------------------------------------------------------
# Label file I/O
# ---------------------------------------------------------------------------

def format_label_line(label: ObjectLabel) -> str:
    return (
        f"{label.label_class.value} "
        f"{label.center_x:.6f} {label.center_y:.6f} {label.center_z:.6f} "
        f"{label.length:.6f} {label.width:.6f} {label.height:.6f} "
        f"{label.yaw:.6f} {label.score:.6f}"
    )


def write_label_file(labels: Sequence[ObjectLabel], path: str | Path) -> None:
    """Write one frame's labels; an empty list produces an empty file."""
    lines = [format_label_line(lb) + "\n" for lb in labels]
    try:
        Path(path).write_text("".join(lines), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write label file {path}: {exc}") from exc


def read_label_file(path: str | Path, source: LabelSource = LabelSource.TEACHER) -> list[ObjectLabel]:
    """Parse one label file; errors name the file and 1-based line number."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read label file {path}: {exc}") from exc
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 9:
            raise DataError(f"{path}:{lineno}: expected 9 fields, got {len(tokens)}")
        cls_token = tokens[0]
        try:
            cls = LabelClass(cls_token)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown class '{cls_token}'") from None
        try:
            values = [float(tok) for tok in tokens[1:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable number ({exc})") from None
        try:
            labels.append(ObjectLabel(*values[:3], *values[3:6], values[6], cls, values[7], source))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return labels


def write_labels(labels_by_stem: Mapping[str, Sequence[ObjectLabel]], directory: str | Path) -> None:
    """Write one ``<stem>.txt`` per frame under ``directory``."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create label directory {directory}: {exc}") from exc
    for stem in sorted(labels_by_stem):
        write_label_file(labels_by_stem[stem], directory / f"{stem}.txt")


def read_labels(directory: str | Path, source: LabelSource = LabelSource.TEACHER) -> dict[str, list[ObjectLabel]]:
    """Read every label file in a directory, keyed by frame stem.

    ``source`` is External when ingesting detector predictions through the
    iteration entry point, Teacher otherwise.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"label directory not found: {directory}")
    return {
        file.stem: read_label_file(file, source)
        for file in sorted(directory.glob("*.txt"))
    }
