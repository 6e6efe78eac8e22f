"""Bounding-box fitting, size-heuristic validation and class assignment.

A cluster becomes a box whose footprint is the minimum-area rotated
rectangle of its XY projection and whose height spans the cluster's z
extent.  All clusters of a frame are fitted in one batched pass: quickhull
(Barber, Dobkin & Huhdanpaa 1996) grows every cluster's convex hull at once,
then rotating calipers (Toussaint 1983) project each hull onto each of its
edge directions.  Degenerate projections (single point, collinear) floor the
collapsed dimensions at 1 cm.

Each box is a row of floats from the fit to the label table.  One array
pass gates and classifies a frame's boxes by simple shape rules: a box must
clear a minimum base length and height, and its base length must differ
from its height by a positive margin; a box longer than it is tall is a
vehicle, taller than it is long a pedestrian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    LABEL_CLASSES,
    DataError,
    Frame,
    LabelClass,
    ObjectLabel,
    TeacherConfig,
    normalize_yaw_half,
)

DEGENERATE_FLOOR = 0.01
_VEHICLE, _PEDESTRIAN = LABEL_CLASSES.index(LabelClass.VEHICLE), LABEL_CLASSES.index(LabelClass.PEDESTRIAN)
# The size gates' reject reasons, in the order the gates are tried.
_REASONS = ("base_length<l_min", "height<h_min", "|base_length-height|<beta_min")


@dataclass(frozen=True)
class RejectedBox:
    frame_index: int
    base_length: float
    height: float
    reason: str

    def format_line(self) -> str:
        return f"{self.frame_index} {self.base_length:.6f} {self.height:.6f} {self.reason}"


def _cross(ax, ay, bx, by, px, py):
    """Orientation of p against the directed line a -> b; negative to its right."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ..."""
    out = np.empty(2 * len(a), dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def _convex_hulls(x: np.ndarray, y: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Convex hull of each cluster of the points (x, y); cluster k starts at ``starts[k]``.

    Quickhull over every cluster at once: each round splits every open edge
    at its farthest point strictly to its right.  Returns the vertices' x, y
    and the vertex count of each hull, hull after hull, counter-clockwise
    from the lexicographic minimum L: L, the lower chain ascending, the
    lexicographic maximum R, the upper chain descending, with no collinear
    vertex.  A hull of two vertices has all its points collinear; the two
    are equal when all the points are.
    """
    n = len(starts)
    owner = np.repeat(np.arange(n), np.diff(np.append(starts, len(x))))
    lx = np.minimum.reduceat(x, starts)
    ly = np.minimum.reduceat(np.where(x == lx[owner], y, np.inf), starts)
    rx = np.maximum.reduceat(x, starts)
    ry = np.maximum.reduceat(np.where(x == rx[owner], y, -np.inf), starts)
    # Open edges a -> b, each with the candidate points (px, py) that may lie
    # strictly to its right, grouped by edge.  L -> R seeds cluster k's lower
    # chain (edge 2k), R -> L its upper chain (edge 2k + 1), which gets every
    # point not right of L -> R.
    ax, ay, bx, by = _interleave(lx, rx), _interleave(ly, ry), _interleave(rx, lx), _interleave(ry, ly)
    e_cluster = np.repeat(np.arange(n), 2)
    e_upper = np.tile([False, True], n)
    edge = 2 * owner + (_cross(lx[owner], ly[owner], rx[owner], ry[owner], x, y) >= 0)
    order = np.argsort(edge, kind="stable")
    edge, px, py = edge[order], x[order], y[order]
    found = []
    while True:
        cross = _cross(ax[edge], ay[edge], bx[edge], by[edge], px, py)
        out = np.flatnonzero(cross < 0)
        if not len(out):
            break
        edge, cross, px, py = edge[out], cross[out], px[out], py[out]
        new_run = np.concatenate([[True], edge[1:] != edge[:-1]])
        first, run = np.flatnonzero(new_run), np.cumsum(new_run) - 1
        far = cross == np.minimum.reduceat(cross, first)[run]
        # Of equally far points the lexicographic minimum, an end of their
        # collinear run, so that no collinear vertex is kept.
        sx = np.minimum.reduceat(np.where(far, px, np.inf), first)
        sy = np.minimum.reduceat(np.where(far & (px == sx[run]), py, np.inf), first)
        split = edge[first]
        found.append((sx, sy, e_cluster[split], e_upper[split]))
        # Edge k of this round becomes a -> s (2k) and s -> b (2k + 1); a
        # point right of neither leaves at the next round's test.
        left = _cross(ax[edge], ay[edge], sx[run], sy[run], px, py) < 0
        ax, ay = _interleave(ax[split], sx), _interleave(ay[split], sy)
        bx, by = _interleave(sx, bx[split]), _interleave(sy, by[split])
        e_cluster, e_upper = np.repeat(e_cluster[split], 2), np.repeat(e_upper[split], 2)
        edge = 2 * run + ~left
        order = np.argsort(edge, kind="stable")
        edge, px, py = edge[order], px[order], py[order]

    vx = np.concatenate([lx, rx, *(f[0] for f in found)])
    vy = np.concatenate([ly, ry, *(f[1] for f in found)])
    cluster = np.concatenate([np.arange(n), np.arange(n), *(f[2] for f in found)])
    # 0 for L, 1 for the lower chain, 2 for R, 3 for the upper chain
    part = np.concatenate([np.zeros(n), np.full(n, 2), *(1 + 2 * f[3] for f in found)])
    sign = np.where(part == 3, -1.0, 1.0)
    order = np.lexsort((sign * vy, sign * vx, part, cluster))
    return vx[order], vy[order], np.bincount(cluster, minlength=n)


def _min_area_rects(x: np.ndarray, y: np.ndarray, starts: np.ndarray) -> list[tuple[float, ...]]:
    """Minimum-area enclosing rectangle of each cluster of the points (x, y).

    Returns (center x, center y, long side, short side, yaw) per cluster,
    with yaw the long-axis angle in [-pi/2, pi/2).  Uses the edge-alignment
    property of the optimal rectangle: one side is collinear with a hull
    edge, so each hull is projected onto each of its edges' directions, all
    (edge, vertex) pairs of all hulls at once.
    """
    hx, hy, hn = _convex_hulls(x, y, starts)
    hs = np.cumsum(hn) - hn
    # Edge i of a polygon hull runs from vertex i to the next, the last
    # back to the first; each edge pairs with each vertex of its hull.
    vn, vs = np.repeat(hn, hn), np.repeat(hs, hn)
    ev = np.flatnonzero(vn >= 3)
    nxt = np.where(ev + 1 < vs[ev] + vn[ev], ev + 1, vs[ev])
    # The angles and their sine and cosine come from math: numpy's may
    # differ in the last ulp, which would move the labels.
    thetas = list(map(math.atan2, (hy[nxt] - hy[ev]).tolist(), (hx[nxt] - hx[ev]).tolist()))
    c = np.array(list(map(math.cos, thetas)))
    s = np.array(list(map(math.sin, thetas)))
    m = vn[ev]
    first = np.cumsum(m) - m
    pair_edge = np.repeat(np.arange(len(ev)), m)
    pair_vertex = np.repeat(vs[ev] - first, m) + np.arange(len(pair_edge))
    px, py = hx[pair_vertex], hy[pair_vertex]
    c, s = c[pair_edge], s[pair_edge]
    u = px * c + py * s
    v = -px * s + py * c
    u_min, u_max = np.minimum.reduceat(u, first), np.maximum.reduceat(u, first)
    v_min, v_max = np.minimum.reduceat(v, first), np.maximum.reduceat(v, first)
    du, dv = u_max - u_min, v_max - v_min
    area, du, dv = (du * dv).tolist(), du.tolist(), dv.tolist()
    u_mid = ((u_max + u_min) / 2.0).tolist()
    v_mid = ((v_max + v_min) / 2.0).tolist()

    rects = []
    hxl, hyl = hx.tolist(), hy.tolist()
    e0 = 0  # first edge of the next polygon hull
    for a, n in zip(hs.tolist(), hn.tolist()):
        if n == 2:
            dx, dy = hxl[a + 1] - hxl[a], hyl[a + 1] - hyl[a]
            rects.append((
                (hxl[a] + hxl[a + 1]) / 2.0, (hyl[a] + hyl[a + 1]) / 2.0,
                float(np.hypot(dx, dy)), 0.0, normalize_yaw_half(math.atan2(dy, dx)),
            ))
            continue
        best = e0
        for i in range(e0 + 1, e0 + n):
            # exact area ties are geometric facts (every edge-aligned rectangle
            # of an acute triangle has area 2x the triangle), so break them by
            # the rotation-invariant longer side
            tie_band = 1e-9 * max(area[i], area[best])
            if area[i] < area[best] - tie_band or (
                abs(area[i] - area[best]) <= tie_band
                and max(du[i], dv[i]) > max(du[best], dv[best])
            ):
                best = i
        e0 += n
        theta = thetas[best]
        uc, vc = u_mid[best], v_mid[best]
        cos, sin = math.cos(theta), math.sin(theta)
        center = (uc * cos - vc * sin, uc * sin + vc * cos)
        if du[best] >= dv[best]:
            rects.append((*center, du[best], dv[best], normalize_yaw_half(theta)))
        else:
            rects.append((*center, dv[best], du[best], normalize_yaw_half(theta + math.pi / 2.0)))
    return rects


def min_area_rect(points: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Minimum-area enclosing rectangle of (n, 2) points.

    Returns (center, long_side, short_side, yaw) with yaw the long-axis
    angle in [-pi/2, pi/2).
    """
    pts = np.asarray(points, dtype=np.float64)
    cx, cy, long_side, short_side, yaw = _min_area_rects(pts[:, 0], pts[:, 1], np.zeros(1, dtype=np.intp))[0]
    return np.array([cx, cy]), long_side, short_side, yaw


def fit_boxes(points: np.ndarray, clusters: list[np.ndarray]) -> np.ndarray:
    """Fit the minimal oriented box around each cluster's points, all at once.

    Each cluster holds the indices of its rows in the (n, 3) float64 ``points``.
    Returns one float64 row per cluster: cx cy cz length width height yaw,
    with ``length >= width``.  Height spans [min z, max z]; collapsed
    dimensions are floored at DEGENERATE_FLOOR so every fitted box has
    positive volume.  Flooring only grows the box around its center, so
    containment of the cluster (within 1e-6) is preserved.
    """
    sizes = np.array([len(cluster) for cluster in clusters], dtype=np.intp)
    if not sizes.all():
        raise DataError("cannot fit a box to an empty cluster")
    if not len(sizes):
        return np.empty((0, 7))
    pts = points[np.concatenate(clusters)]
    starts = np.cumsum(sizes) - sizes
    z_min = np.minimum.reduceat(pts[:, 2], starts)
    z_max = np.maximum.reduceat(pts[:, 2], starts)
    cx, cy, long_side, short_side, yaw = np.array(
        _min_area_rects(pts[:, 0].copy(), pts[:, 1].copy(), starts), dtype=np.float64).T
    return np.column_stack([
        cx, cy, (z_min + z_max) / 2.0, np.maximum(long_side, DEGENERATE_FLOOR),
        np.maximum(short_side, DEGENERATE_FLOOR), np.maximum(z_max - z_min, DEGENERATE_FLOOR), yaw,
    ])


def label_rows(points: np.ndarray, clusters: list[np.ndarray], cfg: TeacherConfig, frame_index: int,
               reject_sink: Callable[[RejectedBox], None] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fit, gate and classify every cluster of a frame in one array pass.

    A box is kept iff length >= l_min, height >= h_min and
    |length - height| >= beta_min; the last gate drops shape-ambiguous
    boxes instead of guessing their class.  Each rejected box goes to
    ``reject_sink``, if given, naming the first gate it fails.  Returns the
    kept boxes' class codes (indices in ``LABEL_CLASSES``: Vehicle if longer
    than tall, else Pedestrian) and their (m, 8) label values with score
    1.0, both in cluster order.
    """
    boxes = fit_boxes(points, clusters)
    length, height = boxes[:, 3], boxes[:, 5]
    fails = np.column_stack([length < cfg.l_min, height < cfg.h_min, np.abs(length - height) < cfg.beta_min])
    kept = ~fails.any(axis=1)
    if reject_sink is not None:
        rejected = np.flatnonzero(~kept)
        for base, tall, gate in zip(length[rejected].tolist(), height[rejected].tolist(),
                                    fails[rejected].argmax(axis=1).tolist()):
            reject_sink(RejectedBox(frame_index, base, tall, _REASONS[gate]))
    codes = np.where(length[kept] > height[kept], _VEHICLE, _PEDESTRIAN).astype(np.int8)
    return codes, np.column_stack([boxes[kept], np.ones(len(codes))])


def annotate_frame(frame: Frame, clusters: list[np.ndarray], cfg: TeacherConfig,
                   reject_sink: Callable[[RejectedBox], None] | None = None) -> list[ObjectLabel]:
    """``label_rows`` on a frame, one ``ObjectLabel`` per kept row."""
    codes, values = label_rows(frame.xyz, clusters, cfg, frame.timestamp_index, reject_sink)
    return [ObjectLabel(*row[:7], LABEL_CLASSES[code], row[7])
            for code, row in zip(codes.tolist(), values.tolist())]
