"""Unit unification, zero padding, cuboid cropping and dataset alignment.

All functions but the in-place kernel ``apply_transform_points`` are pure.
Cropping replaces out-of-bounds points with padding instead of
deleting them, so the per-beam index correspondence the background model
relies on survives preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigError,
    CropBounds,
    DataError,
    Frame,
    FrameSequence,
    check_finite,
    check_positive,
)


@dataclass(frozen=True)
class UnificationTransform:
    """Similarity transform (uniform scale then translation) into a shared frame."""

    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("unification scale", self.scale)
        check_finite("unification translation", self.translation)

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


def apply_transform_points(xyz: np.ndarray, padding: np.ndarray, transform: UnificationTransform) -> None:
    """Map the non-padding points of ``xyz`` through scale then translation,
    in place, in float64, one contiguous column at a time.

    Every row is scaled but only data rows are shifted: a padding row is
    zeros, which a positive finite scale keeps, so a ``-0.0`` stays ``-0.0``.
    """
    if transform.is_identity:
        return
    data = ~padding if padding.any() else True  # a masked add is slower than a plain one
    for axis, shift in enumerate(transform.translation):
        column = xyz[:, axis]
        np.multiply(column, transform.scale, out=column)
        np.add(column, shift, out=column, where=data)


def unify_datasets(
    seqs: list[FrameSequence], transforms: list[UnificationTransform]
) -> list[FrameSequence]:
    """Bring several sequences into one coordinate frame for superset training.

    Each non-padding point p of a copy of each frame becomes scale * p +
    translation.  Within-frame pairwise distance ratios are preserved (the
    transform is a similarity).
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
        frames = [Frame(f.timestamp_index, f.xyz.copy(order="F"), f.padding.copy()) for f in seq.frames]
        for f in frames:
            apply_transform_points(f.xyz, f.padding, tf)
        out.append(FrameSequence(frames, seq.meta, list(seq.stems)))
    return out
