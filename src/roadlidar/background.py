"""Statistical background model for a stationary sensor, and the point filter.

The model is a per-beam histogram of point ranges over an initial window of
query frames.  Because the sensor does not move, a beam that keeps hitting
the same static surface piles its ranges into one tall bin; the mean ranges
of the tallest bins per beam act as that beam's background locations.  A
point is then background iff its range lies within ``d_threshold`` of one of
its own beam's tall-bin means.

Conventions (fixed here because the degenerate cases need a rule):

* binning is over ``n_bin`` equal-width bins spanning [d_min, d_max] per
  beam; a range equal to d_max is clamped into the last bin;
* a beam whose ranges are all identical stores a single full bin at index 0;
* padding points contribute nothing to the histogram and stay padding when
  a frame is filtered;
* "tallest" means highest member count, ties broken by lower bin index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import DataError, Frame, FrameSequence

_MODEL_MAGIC = b"RLBM"
_MODEL_VERSION = 1


def point_ranges(xyz: np.ndarray) -> np.ndarray:
    """Euclidean range per point, computed as sqrt(x*x + y*y + z*z).

    The literal operation order is part of the contract: the naive
    reference transcription used in tests must produce bit-identical values.
    """
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    return np.sqrt(x * x + y * y + z * z)


@dataclass
class DistanceHistogram:
    """Per-beam binned range statistics over the query window.

    ``bin_mean[i, k]`` is the mean of the ranges that fell into bin k of beam
    i (0.0 where the bin is empty) and ``bin_count[i, k]`` their number.
    ``d_min`` and ``d_max`` are per-beam, and the ``n_bin`` bins of a beam
    split [d_min, d_max] evenly; beams that were padding in every query
    frame have d_min = d_max = 0 and no occupied bins.
    """

    bin_mean: np.ndarray
    bin_count: np.ndarray
    d_min: np.ndarray
    d_max: np.ndarray


@dataclass
class BackgroundModel:
    """Tall-bin mean ranges per beam, NaN-padded to ``n_tall`` columns.

    ``tall[i, m]`` is the m-th background range of beam i, ordered by
    descending bin count; rows with fewer occupied bins than ``n_tall`` are
    NaN beyond their last entry.
    """

    tall: np.ndarray

    @property
    def n_total(self) -> int:
        return self.tall.shape[0]

    @property
    def n_tall(self) -> int:
        return self.tall.shape[1]


def extract_query_frames(seq: FrameSequence, n_query: int) -> FrameSequence:
    """First ``n_query`` frames of the sequence, order preserved."""
    if n_query < 1:
        raise DataError("n_query must be >= 1")
    if n_query > len(seq):
        raise DataError(f"n_query {n_query} exceeds sequence length {len(seq)}")
    return FrameSequence(seq.frames[:n_query], seq.meta, seq.stems[:n_query])


def histogram_of_ranges(
    window: Iterable[tuple[np.ndarray, np.ndarray]], n_total: int, n_bin: int
) -> DistanceHistogram:
    """Bin every beam's ranges across a query window, one frame at a time.

    ``window`` yields each query frame's ``(ranges, data)``: the range of
    every beam and the mask of the beams that hold data.  It is iterated
    once.  As each frame arrives it widens every beam's range extent, and it
    is then kept only as the ranges of its beams with data (float64) and its
    packed mask, about 8f + 1/8 bytes a beam for a data fraction f.  The
    extent arrays are allocated once the first frame has been read, so a
    frame source that checks its input first reports a bad frame before a
    beam count too large to allocate fails.  The kept frames are then
    binned in query-frame order, each scattered into the bin sums and
    counts by one ``np.add.at``.  A frame gives each beam at most one
    range, so a frame's bin indices are unique, each bin takes at most one
    add a frame whatever order ``np.add.at`` adds them in, and every bin
    is summed in query-frame order.  A beam whose width is not positive
    divides by an infinite width, which puts every range in bin 0.  The
    result agrees bit-for-bit with the naive per-beam double loop (see
    tests/oracles.py).  Ranges of beams without data are never read.
    """
    if n_bin < 1:
        raise DataError("n_bin must be >= 1")
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for r, data in window:
        if not kept:
            seen = np.zeros(n_total, dtype=bool)
            d_min = np.full(n_total, np.inf)
            d_max = np.full(n_total, -np.inf)
        seen |= data
        np.minimum(d_min, r, out=d_min, where=data)
        np.maximum(d_max, r, out=d_max, where=data)
        kept.append((r[data], np.packbits(data)))
    if not kept:
        raise DataError("empty query set")
    d_min[~seen] = 0.0
    d_max[~seen] = 0.0
    width = (d_max - d_min) / n_bin
    width[~(width > 0)] = np.inf  # so that (r - d_min) / width is 0

    bin_sum = np.zeros(n_total * n_bin)
    bin_count = np.zeros(n_total * n_bin, dtype=np.int64)
    for r, packed in kept:
        beams = np.flatnonzero(np.unpackbits(packed, count=n_total))
        k = np.floor((r - d_min[beams]) / width[beams])
        flat = beams * n_bin + np.clip(k, 0, n_bin - 1).astype(np.int64)
        np.add.at(bin_sum, flat, r)
        np.add.at(bin_count, flat, 1)
    bin_sum = bin_sum.reshape(n_total, n_bin)
    bin_count = bin_count.reshape(n_total, n_bin)
    # Each mean overwrites its bin's sum, so no third (beams x n_bin) array
    # is made; an empty bin's sum stays 0.0.
    bin_mean = np.divide(bin_sum, bin_count, out=bin_sum, where=bin_count > 0)

    return DistanceHistogram(bin_mean=bin_mean, bin_count=bin_count, d_min=d_min, d_max=d_max)


def build_histogram(query: FrameSequence, n_bin: int) -> DistanceHistogram:
    """Bin every beam's ranges across the query frames (``histogram_of_ranges``
    over each frame's ranges and non-padding mask, computed as it is read)."""
    frames = query.frames
    if not frames:
        raise DataError("empty query set")
    n_total = frames[0].n_points
    for f in frames:
        if f.n_points != n_total:
            raise DataError("query frames must share one arity, the sensor's beam count")
    return histogram_of_ranges(((point_ranges(f.xyz), ~f.padding) for f in frames), n_total, n_bin)


def select_background(hist: DistanceHistogram, n_tall: int) -> BackgroundModel:
    """Keep the means of the ``n_tall`` most populated occupied bins per beam.

    Each of ``n_tall`` rounds takes every beam's ``argmax`` over a copy of
    the counts and then marks that bin -1.  ``argmax`` returns the first
    maximum, so ties go to the lower bin index, as a stable sort on
    descending count would order them.  A round whose winner has count 0
    gives NaN: the beam has no more occupied bins.  No (beams x n_bin)
    array is made beyond the one copy.
    """
    n_bin = hist.bin_count.shape[1]
    if n_tall < 1 or n_tall > n_bin:
        raise DataError(f"n_tall must be in [1, n_bin]; got {n_tall} with n_bin {n_bin}")
    counts = hist.bin_count.copy()
    rows = np.arange(len(counts))
    tall = np.empty((len(counts), n_tall))
    for m in range(n_tall):
        k = np.argmax(counts, axis=1)
        tall[:, m] = np.where(counts[rows, k] > 0, hist.bin_mean[rows, k], np.nan)
        counts[rows, k] = -1
    return BackgroundModel(tall=tall)


def near_background(r: np.ndarray, model: BackgroundModel, d_threshold: float) -> np.ndarray:
    """Mask of the ranges ``r`` (one per beam) within ``d_threshold`` of one
    of their beam's tall-bin means: ``|r - d| <= d_threshold``.

    One tall-bin column at a time, into reused buffers.  A NaN column entry
    (a beam with fewer occupied bins than ``n_tall``) never matches.
    """
    near = np.zeros(len(r), dtype=bool)
    diff = np.empty(len(r))
    hit = np.empty(len(r), dtype=bool)
    with np.errstate(invalid="ignore"):
        for d in model.tall.T:
            np.subtract(r, d, out=diff)
            np.abs(diff, out=diff)
            np.less_equal(diff, d_threshold, out=hit)
            near |= hit
    return near


def filter_frame(frame: Frame, model: BackgroundModel, d_threshold: float) -> Frame:
    """Replace background points with padding.

    A non-padding point at beam i is background iff some tall-bin mean d of
    beam i satisfies ``|range - d| <= d_threshold`` (``near_background``).
    Foreground passes unchanged and padding stays padding.
    """
    if not d_threshold > 0:  # NaN included
        raise DataError(f"d_threshold must be positive, got {d_threshold!r}")
    if frame.n_points != model.n_total:
        raise DataError(
            f"arity mismatch: frame has {frame.n_points} points, model expects {model.n_total}"
        )
    return frame.without(near_background(point_ranges(frame.xyz), model, d_threshold) & ~frame.padding)


# ---------------------------------------------------------------------------
# Model sidecar file
# ---------------------------------------------------------------------------

def save_background_model(model: BackgroundModel, path: str | Path) -> None:
    """Serialize to the binary sidecar: versioned header then float64 rows.

    Absent entries are stored as NaN so records have fixed width and the
    file round-trips exactly.
    """
    header = _MODEL_MAGIC + struct.pack("<III", _MODEL_VERSION, model.n_total, model.n_tall)
    Path(path).write_bytes(header + model.tall.astype("<f8").tobytes())


def load_background_model(path: str | Path) -> BackgroundModel:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != _MODEL_MAGIC:
        raise DataError(f"not a background model file: {path}")
    version, n_total, n_tall = struct.unpack("<III", raw[4:16])
    if version != _MODEL_VERSION:
        raise DataError(f"unsupported background model version {version} in {path}")
    if n_tall == 0:
        raise DataError(f"background model {path} has no tall bins, so it would filter nothing")
    body = raw[16:]
    expected = n_total * n_tall * 8
    if len(body) != expected:
        raise DataError(f"truncated background model file: {path}")
    tall = np.frombuffer(body, dtype="<f8").reshape(n_total, n_tall).copy()
    return BackgroundModel(tall=tall)
