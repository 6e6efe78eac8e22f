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
  is the one frame codec, held by each reader and writer for its whole
  run, and its ``read`` the one place a frame file is checked: a wrong
  record count or a coordinate that is not finite is a DataError naming the
  file, so the stages after it may assume finite data and zero padding.
* Label files: ``<stem>.txt`` -- UTF-8 text, one object per line::

      class cx cy cz length width height yaw score

  with reals printed at fixed 6-decimal precision, space-separated, class
  spelled ``Vehicle`` or ``Pedestrian``, newline-terminated.  One label file
  per frame, named after the frame stem.  A ``LabelSet`` table is the
  label value: ``LabelSet.read`` is the one parser, checking every row at
  once by the rules of ``ObjectLabel`` (the first bad line in (file, line)
  order, or unreadable file, is a DataError naming it), and
  ``LabelSet.write`` the one writer.  ``read_labels`` and ``write_labels``
  adapt it to per-stem ``ObjectLabel`` lists.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import os
import shutil
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, islice
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

log = logging.getLogger(__name__)

# Bytes per point record in frame files: 4 x float32.
_POINT_RECORD_BYTES = 16


class ConfigError(ValueError):
    """Invalid configuration or parameter combination (CLI exit code 1)."""


class DataError(ValueError):
    """Malformed or missing input data (CLI exit code 2)."""


class LabelClass(enum.Enum):
    VEHICLE = "Vehicle"
    PEDESTRIAN = "Pedestrian"


class LabelSource(enum.Enum):
    TEACHER = "Teacher"
    EXTERNAL = "External"


def normalize_yaw_half(yaw: float) -> float:
    """Map an angle to [-pi/2, pi/2); canonical heading of an unoriented box."""
    return (yaw + math.pi / 2.0) % math.pi - math.pi / 2.0


# Each range check takes a number or a (nested) tuple of them, names its
# field, and refuses NaN, which fails every comparison: a test written as
# "v <= 0" would let it through.

def check_finite(name: str, value: float | tuple) -> None:
    if not all(math.isfinite(v) for v in np.ravel(value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def check_positive(name: str, value: float | tuple) -> None:
    if not all(math.isfinite(v) and v > 0 for v in np.ravel(value)):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be >= 0 and finite, got {value!r}")


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
        check_positive("unit_scale", self.unit_scale)

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
    other point is finite: ``FrameBuffers.read`` checks this where data enters,
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
            raise DataError("stem count must match frame count")
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
            check_positive(name, getattr(self, name))


def read_json_config(path: str | Path, build: Callable[[Any], T]) -> T:
    """Parse a declarative JSON configuration file into settings via ``build``.

    ``build`` turns the parsed JSON into typed settings, each field through
    the ``json_*`` reader of its kind (every object through ``json_fields``,
    every list through ``json_list``), and need not guard its field reads: a
    missing field, or a field or section of the wrong JSON type, surfaces as
    a ConfigError naming the file, as do an unreadable file, invalid JSON
    and any ValueError (ConfigError included) that ``build`` raises for an
    out-of-range value.
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


def json_float(value: Any, name: str) -> float:
    """A config field holding a number, as a float; a bool or a string is a
    ValueError naming the field.  NaN and the infinities pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_floats(value: Any, name: str, n: int) -> tuple[float, ...]:
    """A config field holding a list of exactly ``n`` numbers, as floats."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValueError(f"{name} must be a list of {n} numbers, got {value!r}")
    return tuple(json_float(v, name) for v in value)


def json_path(value: Any, name: str) -> Path:
    """A config field holding a path: a non-empty string without NUL."""
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValueError(f"{name} must be a non-empty path string without NUL, got {value!r}")
    return Path(value)


def json_value(value: Any, name: str) -> Any:
    """A config field as it is, for a setting that checks it itself."""
    return value


def json_list(value: Any, name: str, read: Callable[[Any, str], T]) -> list[T]:
    """A config field holding a list, each entry read by ``read`` under the
    name ``name[i]``; a value that is not a list is a ValueError naming the
    field."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return [read(entry, f"{name}[{i}]") for i, entry in enumerate(value)]


def json_fields(section: Any, name: str, /, **readers: Callable[[Any, str], Any]) -> dict[str, Any]:
    """Each key of the JSON object ``section`` that ``readers`` names, read
    by its reader; every other key is ignored with a warning naming it and
    the section, and an absent key keeps the default of the parameter it
    fills.  A ``section`` that is not a JSON object is a ConfigError naming
    it ``name``."""
    if not isinstance(section, Mapping):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    for key in section:
        if key not in readers:
            log.warning("%s: ignoring unknown key %r", name, key)
    return {key: readers[key](value, key) for key, value in section.items() if key in readers}


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
    path and every directory made for them that is still empty are
    removed, and no target is touched.
    """
    staged = [target.with_name(f".{target.name}.partial") for target in targets]
    created = sorted({parent for partial in staged for parent in partial.parents if not parent.exists()},
                     key=lambda directory: len(directory.parts), reverse=True)
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
        for directory in created:  # deepest first; one another output filled stays
            with suppress(OSError):  # so that the block's own error is the one raised
                directory.rmdir()
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
    Each direction's arrays are allocated at its first use, after ``read``
    has checked a file's size, so a beam count too large to allocate is
    reported as the malformed frame file it meets; a codec that only reads
    never holds ``write``'s records, and one that only writes never holds
    ``read``'s.
    """

    def __init__(self, beam_count: int) -> None:
        self.beam_count = beam_count

    @cached_property
    def _scratch(self) -> np.ndarray:
        """The mask that both directions' finiteness checks write into."""
        return np.empty(self.beam_count, dtype=bool)

    @cached_property
    def _read_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The file's records, its xyz and its padding mask.  The xyz is
        column-major: the per-beam stages read it one coordinate at a time,
        and a contiguous column reads several times faster."""
        n = self.beam_count
        return np.empty((n, 4), dtype="<f4"), np.empty((n, 3), order="F"), np.empty(n, dtype=bool)

    @cached_property
    def _write_records(self) -> np.ndarray:
        """The records ``write`` encodes, whose intensity stays zero."""
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
                    size = file.readinto(self._read_arrays[0])
        except OSError as exc:
            raise DataError(f"cannot read frame file {path}: {exc}") from exc
        if size != expected:
            raise DataError(
                f"malformed frame file {path}: {size} bytes, but the sensor's "
                f"{self.beam_count} beams take {expected} "
                f"({_POINT_RECORD_BYTES} bytes each)"
            )
        raw, xyz, padding = self._read_arrays
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
        record = self._write_records
        with np.errstate(over="ignore", invalid="ignore"):
            for axis in range(3):
                record[:, axis] = xyz[:, axis]
        if not self._all_finite(record[:, :3]):
            raise DataError(f"frame file {path}: a value is not finite as float32")
        with open(path, "wb") as file:
            file.write(record.data)


def _entries(directory: Path, suffix: str) -> list[Path]:
    """The entries of a directory whose names end in ``suffix``, in name
    order: what ``sorted(directory.glob("*" + suffix))`` lists, dot-names,
    subdirectories and broken links included, from one sorted listing."""
    return [directory / name for name in sorted(os.listdir(directory)) if name.endswith(suffix)]


def list_frame_files(path: str | Path) -> list[Path]:
    """The .bin files of a frame directory, in lexicographic filename order."""
    directory = Path(path)
    if not directory.is_dir():
        raise DataError(f"frame directory not found: {directory}")
    files = _entries(directory, ".bin")
    if not files:
        raise DataError(f"empty sequence: no .bin files in {directory}")
    return files


def load_frame_sequence(path: str | Path, meta: SensorMeta) -> FrameSequence:
    """Load a directory of per-frame .bin files, lexicographic filename order.

    Raw units are preserved; scaling to meters happens in the preprocessor.
    Every file is read and checked against ``meta`` through one
    ``FrameBuffers``, and each frame is copied out of it.
    """
    files = list_frame_files(path)
    buffers = FrameBuffers(meta.beam_count)
    frames = []
    for t, file in enumerate(files, start=1):
        xyz, padding = buffers.read(file)
        frames.append(Frame(t, xyz.copy(order="F"), padding.copy()))
    return FrameSequence(frames, meta, [file.stem for file in files])


# ---------------------------------------------------------------------------
# Label file I/O
# ---------------------------------------------------------------------------

# A label's class is stored in a LabelSet as its index in LABEL_CLASSES.
LABEL_CLASSES = tuple(LabelClass)
_CLASS_CODES = {cls.value: code for code, cls in enumerate(LABEL_CLASSES)}
# One label line: the class, then the eight values at fixed 6-decimal precision.
_LABEL_LINE = "%s" + " %.6f" * 8 + "\n"


def check_label_rows(values: np.ndarray, where: Callable[[int], str]) -> None:
    """Check every row of (n, 8) label values in one pass by the rules of
    ``ObjectLabel``; the first row k that breaks one is a DataError reading
    ``<where(k)>: <what ObjectLabel says of it>``."""
    length, width, height, score = values[:, 3], values[:, 4], values[:, 5], values[:, 7]
    bad = (~np.isfinite(values).all(axis=1) | (length <= 0) | (width <= 0) | (height <= 0)
           | (length < width) | (score < 0) | (score > 1))
    if bad.any():
        k = int(np.argmax(bad))
        try:  # the class is not checked, so any will do
            ObjectLabel(*values[k, :7].tolist(), LABEL_CLASSES[0], float(values[k, 7]))
        except DataError as exc:
            raise DataError(f"{where(k)}: {exc}") from None


def label_values(labels: Sequence[ObjectLabel]) -> np.ndarray:
    """The labels' (n, 8) float64 values in file column order."""
    return np.array([
        (lb.center_x, lb.center_y, lb.center_z, lb.length, lb.width, lb.height, lb.yaw, lb.score)
        for lb in labels
    ], dtype=np.float64).reshape(len(labels), 8)


@dataclass(frozen=True, eq=False)
class LabelSet:
    """The labels of one directory as a table.

    ``stems`` are sorted and ``counts[k]`` is the number of labels of
    ``stems[k]``; a label's row follows those of the stems before its own,
    in its file's line order.  ``classes`` holds each label's index in
    ``LABEL_CLASSES``; ``values`` is (n, 8) float64 in file column order:
    cx cy cz length width height yaw score.
    """

    stems: tuple[str, ...]
    counts: np.ndarray
    classes: np.ndarray
    values: np.ndarray

    @classmethod
    def read(cls, directory: str | Path) -> LabelSet:
        """Parse and check every ``*.txt`` label file of a directory.

        Files are read in filename order, as bytes decoded as UTF-8, and
        cut into lines by ``str.splitlines``, which counts CR LF, a lone CR
        and LF as one line end each, as text mode does.  Each line is split
        as ``str.split`` and each number parsed as ``float`` parses it;
        blank lines are skipped.  The values of every line are then checked
        in one pass by the rules of ``ObjectLabel``.  The first fault in
        (file, line) order is a DataError: a file that cannot be read names
        the file, and a bad line reads ``<path>:<line>: <what>``.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise DataError(f"label directory not found: {directory}")
        paths, counts, names, tokens, lines = [], [], [], [], []
        fault = None
        for path in _entries(directory, ".txt"):
            try:
                text = path.read_bytes().decode("utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                fault = f"cannot read label file {path}: {exc}"
                break
            paths.append(path)
            first = len(lines)
            for lineno, row in enumerate(map(str.split, text.splitlines()), start=1):
                if not row:
                    continue
                if len(row) != 9:
                    fault = f"{path}:{lineno}: expected 9 fields, got {len(row)}"
                    break
                if row[0] not in _CLASS_CODES:
                    fault = f"{path}:{lineno}: unknown class '{row[0]}'"
                    break
                names.append(row[0])
                tokens += row[1:]
                lines.append(lineno)
            counts.append(len(lines) - first)
            if fault:
                break

        def where(row: int) -> str:
            return f"{paths[bisect_right(list(accumulate(counts)), row)]}:{lines[row]}"

        try:
            values = np.fromiter(map(float, tokens), np.float64, len(tokens))
        except ValueError:
            for k, token in enumerate(tokens):
                try:
                    float(token)
                except ValueError as exc:
                    fault = f"{where(k // 8)}: unparsable number ({exc})"
                    del names[k // 8:], tokens[k // 8 * 8:]
                    break
            values = np.fromiter(map(float, tokens), np.float64, len(tokens))
        values = values.reshape(-1, 8)
        check_label_rows(values, where)  # these rows all precede ``fault``
        if fault:
            raise DataError(fault)
        codes = np.array([_CLASS_CODES[name] for name in names], dtype=np.int8)
        order = sorted(range(len(paths)), key=lambda f: paths[f].stem)
        rank = np.empty(len(paths), dtype=np.int64)
        rank[order] = np.arange(len(paths))
        rows = np.argsort(np.repeat(rank, counts), kind="stable")
        return cls(tuple(paths[f].stem for f in order), np.array(counts, dtype=np.int64)[order],
                   codes[rows], values[rows])

    @classmethod
    def from_labels(cls, labels_by_stem: Mapping[str, Sequence[ObjectLabel]]) -> LabelSet:
        """The table of per-stem label lists, as ``read`` gives it for their files."""
        stems = sorted(labels_by_stem)
        labels = [lb for stem in stems for lb in labels_by_stem[stem]]
        return cls(
            tuple(stems),
            np.array([len(labels_by_stem[stem]) for stem in stems], dtype=np.int64),
            np.array([_CLASS_CODES[lb.label_class.value] for lb in labels], dtype=np.int8),
            label_values(labels),
        )

    def texts(self) -> dict[str, str]:
        """Each stem's label file text, one line per label in row order; a
        stem without labels has an empty text."""
        names = [cls.value for cls in LABEL_CLASSES]
        lines = [_LABEL_LINE % (names[code], *row)
                 for code, row in zip(self.classes.tolist(), self.values.tolist())]
        counts = self.counts.tolist()
        return {stem: "".join(lines[end - count:end])
                for stem, count, end in zip(self.stems, counts, accumulate(counts))}

    def write(self, directory: Path) -> None:
        """Write one ``<stem>.txt`` per stem into the existing ``directory``."""
        for stem, text in self.texts().items():
            (directory / f"{stem}.txt").write_text(text, encoding="utf-8")


def write_labels(labels_by_stem: Mapping[str, Sequence[ObjectLabel]], directory: str | Path) -> None:
    """Write one ``<stem>.txt`` per frame under ``directory``, made if missing."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    LabelSet.from_labels(labels_by_stem).write(directory)


def read_labels(directory: str | Path, source: LabelSource = LabelSource.TEACHER) -> dict[str, list[ObjectLabel]]:
    """Read every label file in a directory, keyed by frame stem in sorted
    order: ``LabelSet.read``, one ``ObjectLabel`` a row tagged ``source``.
    """
    table = LabelSet.read(directory)
    rows = iter(zip(table.values.tolist(), table.classes.tolist()))
    return {
        stem: [ObjectLabel(*v[:7], LABEL_CLASSES[code], v[7], source) for v, code in islice(rows, count)]
        for stem, count in zip(table.stems, table.counts.tolist())
    }
