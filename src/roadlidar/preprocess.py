"""Unit unification, zero padding, cuboid cropping and dataset alignment.

All functions are pure: they return new frames/sequences and never mutate
their inputs.  Cropping replaces out-of-bounds points with padding instead of
deleting them, so the per-beam index correspondence the background model
relies on survives preprocessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigError,
    CropBounds,
    DataError,
    Frame,
    FrameSequence,
    ObjectLabel,
)


@dataclass(frozen=True)
class UnificationTransform:
    """Similarity transform (uniform scale then translation) into a shared frame."""

    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("unification scale must be finite and positive")
        if not np.all(np.isfinite(self.translation)):
            raise ConfigError("unification translation must be finite")

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0 and all(t == 0.0 for t in self.translation)


def unify_units(seq: FrameSequence) -> FrameSequence:
    """Scale every coordinate by the sensor's unit_scale and reset it to 1.

    Padding points stay at the origin under pure scaling, so no mask handling
    is needed.  Identity when the source is already metric.
    """
    s = seq.meta.unit_scale
    if s == 1.0:
        return seq
    frames = [Frame(f.timestamp_index, f.xyz * s, f.padding.copy()) for f in seq.frames]
    return FrameSequence(frames, replace(seq.meta, unit_scale=1.0), list(seq.stems))


def pad_frame(frame: Frame, n_total: int) -> Frame:
    """Zero-pad a frame to exactly ``n_total`` points.

    Original point order and values are untouched; appended points are
    padding.  A frame larger than ``n_total`` is an error.
    """
    n = frame.n_points
    if n > n_total:
        raise DataError(f"frame exceeds N_total: {n} points > {n_total}")
    if n == n_total:
        return frame
    xyz = np.vstack([frame.xyz, np.zeros((n_total - n, 3))])
    padding = np.concatenate([frame.padding, np.ones(n_total - n, dtype=bool)])
    return Frame(frame.timestamp_index, xyz, padding)


def crop_frame(frame: Frame, bounds: CropBounds) -> Frame:
    """Replace points outside the closed cuboid with padding, in place by index.

    Arity is preserved so index j stays stable across frames; boundary points
    are kept.  Idempotent, and padding never turns back into data.
    """
    return frame.without(~bounds.contains(frame.xyz) & ~frame.padding)


def apply_transform_points(
    xyz: np.ndarray, padding: np.ndarray, transform: UnificationTransform, out: np.ndarray | None = None
) -> np.ndarray:
    """Map non-padding points through scale then translation, in float64,
    into ``out`` (a new array by default, never ``xyz``), which is returned.

    Padding rows keep their input bits, so a ``-0.0`` stays ``-0.0``.  The
    input is not modified.  One coordinate column at a time, which is
    contiguous in a frame that ``read_frame_file`` read.
    """
    out = np.empty_like(xyz) if out is None else out
    for axis, shift in enumerate(transform.translation):
        column, target = xyz[:, axis], out[:, axis]
        np.multiply(column, transform.scale, out=target)
        target += shift
        np.copyto(target, column, where=padding)
    return out


def unify_datasets(
    seqs: list[FrameSequence], transforms: list[UnificationTransform]
) -> list[FrameSequence]:
    """Bring several sequences into one coordinate frame for superset training.

    Each non-padding point p becomes scale * p + translation.  Within-frame
    pairwise distance ratios are preserved (the transform is a similarity).
    """
    if len(seqs) != len(transforms):
        raise ConfigError(
            f"dataset/transform count mismatch: {len(seqs)} sequences, {len(transforms)} transforms"
        )
    out = []
    for seq, tf in zip(seqs, transforms):
        if tf.is_identity:
            out.append(seq)
            continue
        frames = [
            Frame(f.timestamp_index, apply_transform_points(f.xyz, f.padding, tf), f.padding.copy())
            for f in seq.frames
        ]
        out.append(FrameSequence(frames, seq.meta, list(seq.stems)))
    return out


def transform_label(label: ObjectLabel, transform: UnificationTransform) -> ObjectLabel:
    """Map a box covariantly: center transformed, dimensions scaled, yaw kept.

    Valid because the transform is a pure translation plus uniform scale.
    """
    if transform.is_identity:
        return label
    s = transform.scale
    tx, ty, tz = transform.translation
    return ObjectLabel(
        label.center_x * s + tx,
        label.center_y * s + ty,
        label.center_z * s + tz,
        label.length * s,
        label.width * s,
        label.height * s,
        label.yaw,
        label.label_class,
        label.score,
        label.source,
    )
