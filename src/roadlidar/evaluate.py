"""Detection scoring: oriented 3D IoU, greedy matching, AP and recall.

Matching is the usual detection protocol: per class, predictions ranked
over the whole split by descending score, then stem, then center distance
to the sensor, then input order, each greedily claim the first unclaimed
reference box of its own frame with the highest IoU at or above the
threshold.  AP integrates the all-point-interpolated precision/recall curve
of that pooled rank; recall is pooled TP/(TP+FN).

IoU is volumetric over yaw-oriented boxes: the footprint intersection is
computed by clipping one rotated rectangle against the other, the vertical
overlap by interval intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    LABEL_CLASSES, DataError, LabelClass, LabelSet, ObjectLabel, json_float, json_list, label_values, publish,
)

DEFAULT_IOU_THRESHOLDS = (0.25, 0.3, 0.5)


def validate_iou_thresholds(values) -> tuple[float, ...]:
    """IoU thresholds as floats: a non-empty list in (0, 1] that differ as printed.

    Reports print a threshold with two decimals and key records by it, so
    two thresholds that print alike would give two identical rows.
    """
    thresholds = tuple(json_list(values, "thresholds", json_float))
    if not thresholds or not all(0.0 < t <= 1.0 for t in thresholds):
        raise ValueError(f"thresholds must be a non-empty list of values in (0, 1], got {values!r}")
    spelled = [f"{t:.2f}" for t in thresholds]
    if len(set(spelled)) != len(spelled):
        raise ValueError(f"thresholds must differ at two decimals, as reports print them, got {values!r}")
    return thresholds


def _box_arrays(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each box's center_z, height, volume and CCW footprint corners (N, 4, 2),
    from (N, 8) label values in file column order.

    The corners are each box's local (4, 2) corners times its transposed
    (2, 2) rotation, with ``math`` trig.  numpy evaluates a stacked matmul
    with the kernel of the one-box product, whose rounding an elementwise
    formula does not reproduce (the kernel may fuse multiply-adds).
    """
    n = len(values)
    yaws = values[:, 6].tolist()
    c = np.array([math.cos(yaw) for yaw in yaws])
    s = np.array([math.sin(yaw) for yaw in yaws])
    cx, cy, cz, length, width, height = values[:, :6].T
    hl, hw = length / 2.0, width / 2.0
    local = np.stack([hl, hw, -hl, hw, -hl, -hw, hl, -hw], axis=1).reshape(n, 4, 2)
    rot = np.stack([c, -s, s, c], axis=1).reshape(n, 2, 2)
    corners = local @ rot.transpose(0, 2, 1) + np.stack([cx, cy], axis=1)[:, None, :]
    return cz, height, length * width * height, corners


def _separated(poly: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Whether, per pair, every corner of ``other`` lies strictly outside one
    edge of ``poly``; both are (P, 4, 2), counter-clockwise.

    The outside test is the clip's inside test negated.  A separated pair
    must not reach the clip: along a side line the two boxes share, it can
    leave a rounding sliver that scores about 1e-16, or NaN from a crossing
    on a near-parallel segment.
    """
    separated = np.zeros(len(poly), dtype=bool)
    x, y = other[..., 0], other[..., 1]
    n_edges = poly.shape[1]
    for i in range(n_edges):
        a = poly[:, i]
        edge = poly[:, (i + 1) % n_edges] - a
        cross = edge[:, 0, None] * (y - a[:, 1, None]) - edge[:, 1, None] * (x - a[:, 0, None])
        separated |= (cross < 0).all(axis=1)
    return separated


def _clip_pairs(subject: np.ndarray, clipper: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of each subject polygon by its convex CCW clipper.

    ``subject`` and ``clipper`` are (P, 4, 2).  Returns the indices of the
    pairs whose clip is not empty, their polygons (zero-padded to a common
    width) and their vertex counts.  Each pair gets the arithmetic of a
    one-pair loop, in the same order: per clipper edge, each vertex emits
    the crossing point with its predecessor, then itself if inside.  A pair
    leaves the batch as soon as its polygon is empty.
    """
    pairs = np.arange(len(subject))
    poly = subject
    count = np.full(len(subject), subject.shape[1])
    n_edges = clipper.shape[1]
    for i in range(n_edges):
        if not len(pairs):
            break
        a = clipper[:, i]
        edge = clipper[:, (i + 1) % n_edges] - a
        rows, width = poly.shape[:2]
        k = np.arange(width)
        live = k < count[:, None]
        inside = (
            edge[:, 0, None] * (poly[..., 1] - a[:, 1, None])
            - edge[:, 1, None] * (poly[..., 0] - a[:, 0, None])
        ) >= 0
        prev_k = np.where(k == 0, count[:, None] - 1, k - 1)
        crossing = live & (inside != np.take_along_axis(inside, prev_k, 1))
        r, c = np.nonzero(crossing)
        prev = poly[r, prev_k[r, c]]
        d = poly[r, c] - prev
        ex, ey = edge[r, 0], edge[r, 1]
        denom = ex * d[:, 1] - ey * d[:, 0]
        t = (ex * (a[r, 1] - prev[:, 1]) - ey * (a[r, 0] - prev[:, 0])) / denom
        # Slot 2k holds the crossing into vertex k, slot 2k + 1 the vertex.
        emitted = np.empty((rows, width, 2, 2))
        emitted[:, :, 1] = poly
        emitted[r, c, 0] = prev + t[:, None] * d
        keep = np.stack([crossing, live & inside], axis=2).reshape(rows, 2 * width)
        count = keep.sum(axis=1)
        r, c = np.nonzero(keep)
        poly = np.zeros((rows, int(count.max(initial=0)), 2))
        poly[r, np.cumsum(keep, axis=1)[r, c] - 1] = emitted.reshape(rows, 2 * width, 2)[r, c]
        nonempty = count > 0
        pairs, poly, count, clipper = pairs[nonempty], poly[nonempty], count[nonempty], clipper[nonempty]
    return pairs, poly, count


def _polygon_areas(poly: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace area of each padded polygon; 0.0 below 3 vertices.

    The polygons of one vertex count n take their two dot products as one
    stacked (1, n) @ (n, 1) matmul each, whose every product numpy computes
    with the BLAS dot of a lone polygon: the x and y operands are strided
    as the columns of a lone (n, 2) polygon, the next-vertex ones
    contiguous.  BLAS sums a dot product in an order that a batched numpy
    sum does not reproduce.
    """
    k = np.arange(poly.shape[1])
    following = np.where(k + 1 < count[:, None], k + 1, 0)
    x_next = np.take_along_axis(poly[..., 0], following, axis=1)
    y_next = np.take_along_axis(poly[..., 1], following, axis=1)
    area = np.zeros(len(poly))
    for n in np.unique(count[count >= 3]).tolist():
        rows = np.flatnonzero(count == n)
        p, xn, yn = poly[rows, :n], x_next[rows, :n], y_next[rows, :n]
        cross = p[:, None, :, 0] @ yn[:, :, None] - p[:, None, :, 1] @ xn[:, :, None]
        area[rows] = 0.5 * np.abs(cross[:, 0, 0])
    return area


def _pair_ious(pred_boxes: tuple[np.ndarray, ...], truth_boxes: tuple[np.ndarray, ...],
               pi: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """IoU of each prediction/truth pair (pi[j], ti[j]), from ``_box_arrays``."""
    pz, ph, pvol, pcorners = pred_boxes
    tz, th, tvol, tcorners = truth_boxes
    dz = (np.minimum(pz[pi] + ph[pi] / 2.0, tz[ti] + th[ti] / 2.0)
          - np.maximum(pz[pi] - ph[pi] / 2.0, tz[ti] - th[ti] / 2.0))
    overlap = np.nonzero(dz > 0)[0]
    pc, tc = pcorners[pi[overlap]], tcorners[ti[overlap]]
    # The test is per pair, so the second side runs only where the first left it open.
    joint = np.flatnonzero(~_separated(pc, tc))
    joint = joint[~_separated(tc[joint], pc[joint])]
    overlap = overlap[joint]
    clipped, poly, count = _clip_pairs(pc[joint], tc[joint])
    hit = overlap[clipped]
    area = _polygon_areas(poly, count)
    inter = area * dz[hit]
    union = pvol[pi[hit]] + tvol[ti[hit]] - inter
    # "not <= 0", not "> 0": a NaN area is scored, as one pair at a time
    scored = ~(area <= 0) & ~(union <= 0)
    ratio = inter[scored] / union[scored]
    iou = np.zeros(len(pi))
    # min(ratio, 1.0) as Python takes it, which keeps a NaN
    iou[hit[scored]] = np.where(1.0 < ratio, 1.0, ratio)
    return iou


# Pairs clipped at once; bounds the clip's temporaries (under 1 kB a pair).
_PAIR_BLOCK = 1 << 15


def _frame_pairs(n_pred: np.ndarray, n_truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every prediction/truth pair of each frame, as indices (pi, ti) into
    predictions and references stored frame after frame, ``n_pred[f]`` and
    ``n_truth[f]`` of frame f: frame by frame, each frame's pairs in the
    row-major order of its (n_pred[f], n_truth[f]) matrix."""
    n_pairs = n_pred * n_truth
    pair_frame = np.repeat(np.arange(len(n_pairs)), n_pairs)
    k = np.arange(int(n_pairs.sum())) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    pi = (np.cumsum(n_pred) - n_pred)[pair_frame] + k // n_truth[pair_frame]
    ti = (np.cumsum(n_truth) - n_truth)[pair_frame] + k % n_truth[pair_frame]
    return pi, ti


def _ious(pred_values: np.ndarray, truth_values: np.ndarray, pi: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """The volume IoU of each pair (pi[j], ti[j]) of rows of label values.

    The pairs are computed as one batch.  A pair whose z-intervals do not
    overlap, or whose footprints a side of either rectangle separates,
    scores 0.0 unclipped; the others clip the prediction's footprint by the
    truth's, and score 0.0 once the clip is empty.  Every value is
    bit-identical to the one-pair computation that
    ``tests/oracles.py::naive_iou_3d`` keeps.
    """
    iou = np.zeros(len(pi))
    # A finite label can be too large to multiply out: dims of 1e300 overflow
    # its volume and corners to inf, and a rotated one's footprint tests to
    # inf - inf = NaN.  Neither is an error; the pair scores as the one-pair
    # computation scores it, and never as a match.
    with np.errstate(over="ignore", invalid="ignore"):
        pred_boxes = _box_arrays(pred_values)
        truth_boxes = _box_arrays(truth_values)
        for lo in range(0, len(pi), _PAIR_BLOCK):
            block = slice(lo, lo + _PAIR_BLOCK)
            iou[block] = _pair_ious(pred_boxes, truth_boxes, pi[block], ti[block])
    return iou


def iou_matrices(frames: list[tuple[list[ObjectLabel], list[ObjectLabel]]]) -> list[np.ndarray]:
    """The (len(preds), len(truths)) volume-IoU matrix of each (preds, truths) frame."""
    n_pred = np.array([len(ps) for ps, _ in frames], dtype=np.int64)
    n_truth = np.array([len(ts) for _, ts in frames], dtype=np.int64)
    iou = _ious(label_values([p for ps, _ in frames for p in ps]),
                label_values([t for _, ts in frames for t in ts]), *_frame_pairs(n_pred, n_truth))
    n_pairs = n_pred * n_truth
    return [m.reshape(p, t) for m, p, t in zip(np.split(iou, np.cumsum(n_pairs)[:-1]), n_pred, n_truth)]


def _distance(x: float, y: float, z: float) -> float:
    """Center distance to the sensor, the tie-break of equal scores."""
    try:
        return math.sqrt(x**2 + y**2 + z**2)
    except OverflowError:  # ** raises above about 1.34e154; x*x would change the bits
        return math.inf


def average_precision(tp_flags: list[bool], n_truth: int) -> float:
    """Area under the all-point-interpolated P/R curve.

    ``tp_flags`` must be in pooled evaluation rank order.  With zero
    reference objects AP is undefined and reported as 0.0.
    """
    if n_truth == 0 or not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_truth
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


@dataclass(frozen=True)
class MetricRecord:
    """Scores of one (class, IoU threshold) pair, the key it is stored under.

    ``tp + fn`` is the number of reference objects; when it is 0, AP and
    recall are undefined and reported as 0.0.
    """

    ap: float
    recall: float
    tp: int
    fp: int
    fn: int


@dataclass
class EvalReport:
    """Per-class AP and recall at each IoU threshold, with match counts."""

    thresholds: tuple[float, ...]
    records: dict[tuple[LabelClass, float], MetricRecord] = field(default_factory=dict)

    def to_text(self) -> str:
        """Machine-readable report: one record per (class, threshold)."""
        lines = ["class iou ap recall tp fp fn"]
        for cls in LabelClass:
            for thr in self.thresholds:
                r = self.records[(cls, thr)]
                lines.append(
                    f"{cls.value} {thr:.2f} {r.ap:.6f} {r.recall:.6f} {r.tp} {r.fp} {r.fn}"
                )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Human-readable summary table."""
        header = f"{'class':<12}{'IoU':>6}{'AP':>10}{'recall':>10}{'TP':>7}{'FP':>7}{'FN':>7}"
        rows = [header, "-" * len(header)]
        for cls in LabelClass:
            for thr in self.thresholds:
                r = self.records[(cls, thr)]
                note = "" if r.tp + r.fn else "  (no reference objects)"
                rows.append(
                    f"{cls.value:<12}{thr:>6.2f}{r.ap:>10.4f}{r.recall:>10.4f}"
                    f"{r.tp:>7}{r.fp:>7}{r.fn:>7}{note}"
                )
        return "\n".join(rows)


def _score(preds: LabelSet, truths: LabelSet, thresholds: tuple[float, ...]) -> EvalReport:
    """Score aligned per-frame label tables.

    Every truth stem is evaluated; a stem missing from the predictions means
    zero detections for that frame.  Prediction stems that have no reference
    frame are an alignment error.
    """
    extra = sorted(set(preds.stems) - set(truths.stems))
    if extra:
        raise DataError(
            "prediction frames without matching reference frames: " + ", ".join(extra)
        )
    thresholds = validate_iou_thresholds(thresholds)
    report = EvalReport(thresholds=thresholds)
    n_frames = len(truths.stems)
    frame_of = {stem: f for f, stem in enumerate(truths.stems)}
    pred_frame = np.repeat(np.array([frame_of[stem] for stem in preds.stems], dtype=np.int64), preds.counts)
    truth_frame = np.repeat(np.arange(n_frames), truths.counts)
    for code, cls in enumerate(LABEL_CLASSES):
        p = np.flatnonzero(preds.classes == code)
        t = np.flatnonzero(truths.classes == code)
        frame = pred_frame[p]
        pi, ti = _frame_pairs(np.bincount(frame, minlength=n_frames),
                              np.bincount(truth_frame[t], minlength=n_frames))
        iou = _ious(preds.values[p], truths.values[t], pi, ti)
        # The pooled rank: score desc, then stem, distance and input order.
        # Restricted to one frame it is that frame's own rank.
        distance = [_distance(x, y, z) for x, y, z in preds.values[p, :3].tolist()]
        rank = np.empty(len(p), dtype=np.int64)
        rank[np.lexsort((np.arange(len(p)), distance, frame, -preds.values[p, 7]))] = np.arange(len(p))
        # The pairs that may claim (a NaN IoU never does), by prediction in
        # rank order, then by IoU descending and reference order: at each
        # threshold a prediction claims its first untaken one at or above it.
        c = np.flatnonzero(iou >= min(thresholds))
        c = c[np.lexsort((ti[c], -iou[c], rank[pi[c]]))]
        claims = list(zip(rank[pi[c]].tolist(), ti[c].tolist(), iou[c].tolist()))
        n_truth_total = len(t)
        for thr in thresholds:
            tp_flags = [False] * len(p)
            taken = [False] * n_truth_total
            for r, j, v in claims:
                if v >= thr and not tp_flags[r] and not taken[j]:
                    tp_flags[r] = taken[j] = True
            tp_total = sum(tp_flags)
            fp_total = len(tp_flags) - tp_total
            fn_total = n_truth_total - tp_total
            recall = tp_total / n_truth_total if n_truth_total else 0.0
            report.records[(cls, thr)] = MetricRecord(
                average_precision(tp_flags, n_truth_total), recall, tp_total, fp_total, fn_total
            )
    return report


def evaluate_labels(
    preds_by_stem: dict[str, list[ObjectLabel]],
    truths_by_stem: dict[str, list[ObjectLabel]],
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
) -> EvalReport:
    """Score aligned per-frame label lists, as ``evaluate`` scores their files."""
    return _score(LabelSet.from_labels(preds_by_stem), LabelSet.from_labels(truths_by_stem), thresholds)


def evaluate(
    pred_dir: str | Path,
    truth_dir: str | Path,
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
    report_path: str | Path | None = None,
) -> EvalReport:
    """Score a directory of predictions against a directory of references.

    Each directory is read as one ``LabelSet`` and the two are aligned by
    frame stem.  When ``report_path`` is given the machine-readable report
    is written there by ``publish``, so a run cut short keeps the previous
    report whole.
    """
    report = _score(LabelSet.read(pred_dir), LabelSet.read(truth_dir), thresholds)
    if report_path is not None:
        with publish(Path(report_path)) as (staged,):
            staged.write_text(report.to_text(), encoding="utf-8")
    return report
