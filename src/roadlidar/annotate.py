"""Bounding-box fitting, size-heuristic validation and class assignment.

A cluster becomes a box whose footprint is the minimum-area rotated
rectangle of its XY projection (rotating calipers over Qhull's 2D convex hull)
and whose height spans the cluster's z extent.  Degenerate projections
(single point, collinear) floor the collapsed dimensions at 1 cm.

Validation and classification follow simple shape rules: a box must clear a
minimum base length and height, and its base length must differ from its
height by a margin; a box longer than it is tall is a vehicle, taller than
it is long a pedestrian.  The margin makes the classifier total: the
equality case never reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DataError,
    Frame,
    InternalError,
    LabelClass,
    LabelSource,
    ObjectLabel,
    TeacherConfig,
    normalize_yaw_half,
)

DEGENERATE_FLOOR = 0.01


@dataclass(frozen=True)
class FittedBox:
    """Oriented box around one cluster; ``length >= width`` always holds, so
    ``length`` is the base length the size heuristics compare."""

    center_x: float
    center_y: float
    center_z: float
    length: float
    width: float
    height: float
    yaw: float


@dataclass(frozen=True)
class RejectedBox:
    frame_index: int
    base_length: float
    height: float
    reason: str

    def format_line(self) -> str:
        return f"{self.frame_index} {self.base_length:.6f} {self.height:.6f} {self.reason}"


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of (n, 2) points, counter-clockwise, no collinear vertices.

    Qhull's hull, started at the lexicographically smallest vertex.  Returns
    1 point for a degenerate single-point set and the 2 end points for
    collinear input, which Qhull rejects as flat.
    """
    # Deferred: importing scipy.spatial adds ~0.1 s to every CLI start, and
    # only annotate fits boxes.
    from scipy.spatial import ConvexHull, QhullError

    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    try:
        vertices = ConvexHull(pts).vertices
    except QhullError:
        # flat within Qhull's precision: the extremes along the wider axis
        axis = int(np.ptp(pts[:, 1]) > np.ptp(pts[:, 0]))
        return pts[sorted({int(pts[:, axis].argmin()), int(pts[:, axis].argmax())})]
    # pts is sorted, so the smallest index is the lexicographic minimum
    return pts[np.roll(vertices, -int(vertices.argmin()))]


def min_area_rect(points: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Minimum-area enclosing rectangle of 2D points.

    Returns (center, long_side, short_side, yaw) with yaw the long-axis
    angle in [-pi/2, pi/2).  Uses the edge-alignment property of the optimal
    rectangle: one side is collinear with a hull edge.
    """
    hull = convex_hull_2d(points)
    if len(hull) == 1:
        return hull[0], 0.0, 0.0, 0.0
    if len(hull) == 2:
        d = hull[1] - hull[0]
        yaw = normalize_yaw_half(math.atan2(d[1], d[0]))
        return (hull[0] + hull[1]) / 2.0, float(np.hypot(d[0], d[1])), 0.0, yaw

    # One row per hull edge, one column per hull point.  The angles and
    # their sine and cosine come from math: numpy's may differ in the last
    # ulp, which would move the labels.
    edges = np.roll(hull, -1, axis=0) - hull
    thetas = [math.atan2(dy, dx) for dx, dy in edges]
    c = np.array([math.cos(t) for t in thetas])[:, None]
    s = np.array([math.sin(t) for t in thetas])[:, None]
    x, y = hull[:, 0], hull[:, 1]
    u = x * c + y * s
    v = -x * s + y * c
    u_min, u_max = u.min(axis=1), u.max(axis=1)
    v_min, v_max = v.min(axis=1), v.max(axis=1)
    du = u_max - u_min
    dv = v_max - v_min
    area = du * dv

    best = 0
    for i in range(1, len(thetas)):
        # exact area ties are geometric facts (every edge-aligned rectangle
        # of an acute triangle has area 2x the triangle), so break them by
        # the rotation-invariant longer side
        tie_band = 1e-9 * max(area[i], area[best])
        if area[i] < area[best] - tie_band or (
            abs(area[i] - area[best]) <= tie_band
            and max(du[i], dv[i]) > max(du[best], dv[best])
        ):
            best = i

    theta = thetas[best]
    uc = (u_max[best] + u_min[best]) / 2.0
    vc = (v_max[best] + v_min[best]) / 2.0
    c, s = math.cos(theta), math.sin(theta)
    center = np.array([uc * c - vc * s, uc * s + vc * c])
    du, dv = du[best], dv[best]
    if du >= dv:
        return center, float(du), float(dv), normalize_yaw_half(theta)
    return center, float(dv), float(du), normalize_yaw_half(theta + math.pi / 2.0)


def fit_bbox(cluster: np.ndarray, frame: Frame) -> FittedBox:
    """Fit the minimal oriented box around a cluster's points.

    ``cluster`` holds the indices of the cluster's points in ``frame``.

    Height spans [min z, max z]; collapsed dimensions are floored at
    DEGENERATE_FLOOR so every fitted box has positive volume.  Flooring only
    grows the box around its center, so containment of the cluster (within
    1e-6) is preserved.
    """
    if len(cluster) == 0:
        raise DataError("cannot fit a box to an empty cluster")
    pts = frame.xyz[cluster]
    z_min = float(pts[:, 2].min())
    z_max = float(pts[:, 2].max())
    center, long_side, short_side, yaw = min_area_rect(pts[:, :2])
    return FittedBox(
        center_x=float(center[0]),
        center_y=float(center[1]),
        center_z=(z_min + z_max) / 2.0,
        length=max(long_side, DEGENERATE_FLOOR),
        width=max(short_side, DEGENERATE_FLOOR),
        height=max(z_max - z_min, DEGENERATE_FLOOR),
        yaw=yaw,
    )


def validate_bbox(box: FittedBox, cfg: TeacherConfig) -> tuple[bool, str]:
    """Apply the three size gates; returns (valid, failed_predicate).

    Valid iff length >= l_min, height >= h_min and
    |length - height| >= beta_min.  The last gate drops shape-ambiguous
    boxes instead of guessing their class.
    """
    if box.length < cfg.l_min:
        return False, "base_length<l_min"
    if box.height < cfg.h_min:
        return False, "height<h_min"
    if abs(box.length - box.height) < cfg.beta_min:
        return False, "|base_length-height|<beta_min"
    return True, ""


def classify(box: FittedBox) -> LabelClass:
    """Vehicle if longer than tall, pedestrian if taller than long."""
    if box.length > box.height:
        return LabelClass.VEHICLE
    if box.length < box.height:
        return LabelClass.PEDESTRIAN
    raise InternalError("length == height should have been rejected by validation")


def annotate_frame(
    frame: Frame,
    clusters: list[np.ndarray],
    cfg: TeacherConfig,
    reject_sink: Callable[[RejectedBox], None] | None = None,
) -> list[ObjectLabel]:
    """Fit, validate and classify every cluster of a frame.

    Output order follows cluster order (ascending cluster index).  Invalid
    boxes are skipped; when ``reject_sink`` is given each reject is reported
    to it for the rejects log.
    """
    labels = []
    for cluster in clusters:
        box = fit_bbox(cluster, frame)
        ok, reason = validate_bbox(box, cfg)
        if not ok:
            if reject_sink is not None:
                reject_sink(RejectedBox(frame.timestamp_index, box.length, box.height, reason))
            continue
        labels.append(
            ObjectLabel(
                box.center_x, box.center_y, box.center_z,
                box.length, box.width, box.height,
                box.yaw, classify(box), 1.0, LabelSource.TEACHER,
            )
        )
    return labels
