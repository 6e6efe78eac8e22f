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
    ``d_min``, ``d_max`` and ``bin_width`` are per-beam; beams that were
    padding in every query frame have zero width and no occupied bins.
    """

    n_bin: int
    bin_mean: np.ndarray
    bin_count: np.ndarray
    d_min: np.ndarray
    d_max: np.ndarray
    bin_width: np.ndarray


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


def build_histogram(query: FrameSequence, n_bin: int) -> DistanceHistogram:
    """Bin every beam's ranges across the query frames.

    Equivalent to the naive per-beam double loop (see tests/oracles.py), in
    two passes over the frames: one for each beam's range extent, one to
    bin.  A frame gives each beam at most one range, so every bin is summed
    in query-frame order and the two agree bit-for-bit.
    """
    if n_bin < 1:
        raise DataError("n_bin must be >= 1")
    frames = query.frames
    if not frames:
        raise DataError("empty query set")
    n_total = frames[0].n_points
    for f in frames:
        if f.n_points != n_total:
            raise DataError("query frames must share one arity, the sensor's beam count")

    seen = np.zeros(n_total, dtype=bool)
    d_min = np.full(n_total, np.inf)
    d_max = np.full(n_total, -np.inf)
    for f in frames:
        r = point_ranges(f.xyz)
        data = ~f.padding
        seen |= data
        np.minimum(d_min, r, out=d_min, where=data)
        np.maximum(d_max, r, out=d_max, where=data)
    d_min[~seen] = 0.0
    d_max[~seen] = 0.0
    width = (d_max - d_min) / n_bin

    bin_sum = np.zeros(n_total * n_bin)
    bin_count = np.zeros(n_total * n_bin, dtype=np.int64)
    for f in frames:
        beams = np.flatnonzero(~f.padding)
        r = point_ranges(f.xyz)[beams]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((r - d_min[beams]) / width[beams])
        k = np.where(width[beams] > 0, k, 0.0)
        flat = beams * n_bin + np.clip(k, 0, n_bin - 1).astype(np.int64)
        bin_sum[flat] += r
        bin_count[flat] += 1
    bin_sum = bin_sum.reshape(n_total, n_bin)
    bin_count = bin_count.reshape(n_total, n_bin)
    with np.errstate(invalid="ignore"):
        bin_mean = np.where(bin_count > 0, bin_sum / bin_count, 0.0)

    return DistanceHistogram(
        n_bin=n_bin, bin_mean=bin_mean, bin_count=bin_count,
        d_min=d_min, d_max=d_max, bin_width=width,
    )


def select_background(hist: DistanceHistogram, n_tall: int) -> BackgroundModel:
    """Keep the means of the ``n_tall`` most populated occupied bins per beam."""
    if n_tall < 1 or n_tall > hist.n_bin:
        raise DataError(f"n_tall must be in [1, n_bin]; got {n_tall} with n_bin {hist.n_bin}")
    # Stable sort on descending count: ties keep ascending bin index, and
    # empty bins (count 0) sort last, after every occupied bin.
    order = np.argsort(-hist.bin_count, axis=1, kind="stable")
    sorted_counts = np.take_along_axis(hist.bin_count, order, axis=1)
    sorted_means = np.take_along_axis(hist.bin_mean, order, axis=1)
    tall = np.where(sorted_counts[:, :n_tall] > 0, sorted_means[:, :n_tall], np.nan)
    return BackgroundModel(tall=tall)


def background_mask(frame: Frame, model: BackgroundModel, d_threshold: float) -> np.ndarray:
    """Boolean mask of the background points, the ones filter_frame removes.

    A non-padding point at beam i is background iff some tall-bin mean d of
    beam i satisfies ``|range - d| <= d_threshold``.  Padding is never
    background.
    """
    if d_threshold <= 0:
        raise DataError("d_threshold must be positive")
    if frame.n_points != model.n_total:
        raise DataError(
            f"arity mismatch: frame has {frame.n_points} points, model expects {model.n_total}"
        )
    r = point_ranges(frame.xyz)
    with np.errstate(invalid="ignore"):
        near = np.abs(r[:, None] - model.tall) <= d_threshold
    return near.any(axis=1) & ~frame.padding


def filter_frame(frame: Frame, model: BackgroundModel, d_threshold: float) -> Frame:
    """Replace background points (see background_mask) with padding.

    Foreground passes unchanged and padding stays padding.
    """
    return frame.without(background_mask(frame, model, d_threshold))


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
