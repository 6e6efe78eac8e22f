"""Detection scoring: oriented 3D IoU, greedy matching, AP and recall.

Matching is the usual detection protocol: per frame and class, predictions
sorted by descending score (ties broken by distance to the sensor) each
greedily claim the unmatched reference box of highest IoU above the
threshold.  AP pools matches over the whole split and integrates the
all-point-interpolated precision/recall curve; recall is pooled TP/(TP+FN).

IoU is volumetric over yaw-oriented boxes: the footprint intersection is
computed by clipping one rotated rectangle against the other, the vertical
overlap by interval intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import DataError, LabelClass, LabelSource, ObjectLabel, publish, read_labels

DEFAULT_IOU_THRESHOLDS = (0.25, 0.3, 0.5)


def validate_iou_thresholds(values) -> tuple[float, ...]:
    """IoU thresholds as floats: a non-empty list in (0, 1] that differ as printed.

    Reports print a threshold with two decimals and key records by it, so
    two thresholds that print alike would give two identical rows.
    """
    thresholds = tuple(float(t) for t in values)
    if not thresholds or not all(0.0 < t <= 1.0 for t in thresholds):
        raise ValueError(f"thresholds must be a non-empty list of values in (0, 1], got {values!r}")
    spelled = [f"{t:.2f}" for t in thresholds]
    if len(set(spelled)) != len(spelled):
        raise ValueError(f"thresholds must differ at two decimals, as reports print them, got {values!r}")
    return thresholds


def _box_arrays(labels: list[ObjectLabel]) -> tuple[np.ndarray, ...]:
    """Each label's center_z, height, volume and CCW footprint corners (N, 4, 2).

    The corners are each box's local (4, 2) corners times its transposed
    (2, 2) rotation, with ``math`` trig.  numpy evaluates a stacked matmul
    with the kernel of the one-box product, whose rounding an elementwise
    formula does not reproduce (the kernel may fuse multiply-adds).
    """
    n = len(labels)
    fields = np.array([
        (lb.center_x, lb.center_y, lb.center_z, lb.length, lb.width, lb.height,
         math.cos(lb.yaw), math.sin(lb.yaw))
        for lb in labels
    ]).reshape(n, 8)
    cx, cy, cz, length, width, height, c, s = fields.T
    hl, hw = length / 2.0, width / 2.0
    local = np.stack([hl, hw, -hl, hw, -hl, -hw, hl, -hw], axis=1).reshape(n, 4, 2)
    rot = np.stack([c, -s, s, c], axis=1).reshape(n, 2, 2)
    corners = local @ rot.transpose(0, 2, 1) + np.stack([cx, cy], axis=1)[:, None, :]
    return cz, height, length * width * height, corners


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

    Each polygon's two dot products are taken one polygon at a time, on
    operands laid out as for a lone (n, 2) polygon: BLAS sums a dot product
    in an order that a batched numpy sum does not reproduce.
    """
    k = np.arange(poly.shape[1])
    following = np.where(k + 1 < count[:, None], k + 1, 0)
    x_next = np.take_along_axis(poly[..., 0], following, axis=1)
    y_next = np.take_along_axis(poly[..., 1], following, axis=1)
    return np.array([
        0.5 * abs(float(np.dot(p[:n, 0], yn[:n]) - np.dot(p[:n, 1], xn[:n]))) if n >= 3 else 0.0
        for p, xn, yn, n in zip(poly, x_next, y_next, count)
    ])


def _pair_ious(pred_boxes: tuple[np.ndarray, ...], truth_boxes: tuple[np.ndarray, ...],
               pi: np.ndarray, ti: np.ndarray) -> np.ndarray:
    """IoU of each prediction/truth pair (pi[j], ti[j]), from ``_box_arrays``."""
    pz, ph, pvol, pcorners = pred_boxes
    tz, th, tvol, tcorners = truth_boxes
    dz = (np.minimum(pz[pi] + ph[pi] / 2.0, tz[ti] + th[ti] / 2.0)
          - np.maximum(pz[pi] - ph[pi] / 2.0, tz[ti] - th[ti] / 2.0))
    overlap = np.nonzero(dz > 0)[0]
    clipped, poly, count = _clip_pairs(pcorners[pi[overlap]], tcorners[ti[overlap]])
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


def iou_matrices(frames: list[tuple[list[ObjectLabel], list[ObjectLabel]]]) -> list[np.ndarray]:
    """The (len(preds), len(truths)) volume-IoU matrix of each (preds, truths) frame.

    The frames are computed as one batch of prediction/truth pairs.  A pair
    whose z-intervals do not overlap scores 0.0 unclipped; the others clip
    the prediction's footprint by the truth's, and score 0.0 once the clip
    is empty.  Every value is bit-identical to the one-pair computation
    that ``tests/oracles.py::naive_iou_3d`` keeps.
    """
    n_pred = np.array([len(ps) for ps, _ in frames], dtype=np.int64)
    n_truth = np.array([len(ts) for _, ts in frames], dtype=np.int64)
    n_pairs = n_pred * n_truth
    pair_frame = np.repeat(np.arange(len(frames)), n_pairs)
    k = np.arange(int(n_pairs.sum())) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    pi = (np.cumsum(n_pred) - n_pred)[pair_frame] + k // n_truth[pair_frame]
    ti = (np.cumsum(n_truth) - n_truth)[pair_frame] + k % n_truth[pair_frame]
    pred_boxes = _box_arrays([p for ps, _ in frames for p in ps])
    truth_boxes = _box_arrays([t for _, ts in frames for t in ts])
    iou = np.zeros(len(pi))
    for lo in range(0, len(pi), _PAIR_BLOCK):
        block = slice(lo, lo + _PAIR_BLOCK)
        iou[block] = _pair_ious(pred_boxes, truth_boxes, pi[block], ti[block])
    return [m.reshape(p, t) for m, p, t in zip(np.split(iou, np.cumsum(n_pairs)[:-1]), n_pred, n_truth)]


def iou_3d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Volume IoU of two yaw-oriented boxes; symmetric, in [0, 1]."""
    return float(iou_matrices([([a], [b])])[0][0, 0])


@dataclass
class Matching:
    """Greedy one-to-one match of one frame's predictions to references.

    ``order`` gives prediction indices in evaluation rank; ``tp[r]`` says
    whether the prediction at rank r matched.
    """

    order: list[int]
    tp: list[bool]


def _rank_order(preds: list[ObjectLabel]) -> list[int]:
    # Descending score; ties broken by ascending center distance to the
    # sensor, then by input order for determinism.
    def key(i: int) -> tuple:
        p = preds[i]
        return (-p.score, math.sqrt(p.center_x**2 + p.center_y**2 + p.center_z**2), i)

    return sorted(range(len(preds)), key=key)


def match_detections(
    preds: list[ObjectLabel],
    truths: list[ObjectLabel],
    iou_threshold: float,
    iou_matrix: np.ndarray | None = None,
) -> Matching:
    """Match one frame's predictions of one class against its references."""
    order = _rank_order(preds)
    if iou_matrix is None:
        iou_matrix = iou_matrices([(preds, truths)])[0]
    return Matching(order=order, tp=_greedy_tp(order, iou_matrix, iou_threshold))


def _greedy_tp(order: list[int], iou_matrix: np.ndarray, iou_threshold: float) -> list[bool]:
    """Whether each prediction, taken in ``order``, claims a reference box."""
    taken = np.zeros(iou_matrix.shape[1], dtype=bool)
    tp: list[bool] = []
    for i in order:
        best_j = -1
        best_iou = 0.0
        for j in range(len(taken)):
            if taken[j]:
                continue
            v = iou_matrix[i, j]
            if v >= iou_threshold and v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
        tp.append(best_j >= 0)
    return tp


def average_precision(tp_flags: list[bool], n_truth: int) -> tuple[float, bool]:
    """Area under the all-point-interpolated P/R curve.

    ``tp_flags`` must be in pooled evaluation rank order.  Returns
    (ap, defined); with zero reference objects AP is undefined and reported
    as 0.0 with the flag cleared.
    """
    if n_truth == 0:
        return 0.0, False
    if not tp_flags:
        return 0.0, True
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_truth
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1])), True


@dataclass(frozen=True)
class MetricRecord:
    """Scores of one (class, IoU threshold) pair, the key it is stored under."""

    ap: float
    recall: float
    tp: int
    fp: int
    fn: int
    ap_defined: bool


@dataclass
class EvalReport:
    """Per-class AP and recall at each IoU threshold, with match counts."""

    thresholds: tuple[float, ...]
    records: dict[tuple[LabelClass, float], MetricRecord] = field(default_factory=dict)

    def record(self, cls: LabelClass, threshold: float) -> MetricRecord:
        return self.records[(cls, threshold)]

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
                note = "" if r.ap_defined else "  (no reference objects)"
                rows.append(
                    f"{cls.value:<12}{thr:>6.2f}{r.ap:>10.4f}{r.recall:>10.4f}"
                    f"{r.tp:>7}{r.fp:>7}{r.fn:>7}{note}"
                )
        return "\n".join(rows)


def evaluate_labels(
    preds_by_stem: dict[str, list[ObjectLabel]],
    truths_by_stem: dict[str, list[ObjectLabel]],
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
) -> EvalReport:
    """Score aligned per-frame label sets.

    Every truth stem is evaluated; a stem missing from the predictions means
    zero detections for that frame.  Prediction stems that have no reference
    frame are an alignment error.
    """
    extra = sorted(set(preds_by_stem) - set(truths_by_stem))
    if extra:
        raise DataError(
            "prediction frames without matching reference frames: " + ", ".join(extra)
        )
    thresholds = validate_iou_thresholds(thresholds)
    report = EvalReport(thresholds=thresholds)
    stems = sorted(truths_by_stem)
    for cls in LabelClass:
        frames = [
            (
                [p for p in preds_by_stem.get(stem, []) if p.label_class is cls],
                [t for t in truths_by_stem[stem] if t.label_class is cls],
            )
            for stem in stems
        ]
        n_truth_total = sum(len(truths) for _, truths in frames)
        matrices = iou_matrices(frames)
        orders = [_rank_order(preds) for preds, _ in frames]
        # Pooled rank: score desc, then (stem, in-frame rank) so the result
        # is invariant to frame processing order; frame f holds the f-th stem
        # in sorted order, so f ranks as its stem does.
        pooled = sorted(
            (-preds[i].score, f, rank)
            for f, ((preds, _), order) in enumerate(zip(frames, orders))
            for rank, i in enumerate(order)
        )
        for thr in thresholds:
            tps = [_greedy_tp(order, iou, thr) for order, iou in zip(orders, matrices)]
            tp_flags = [tps[f][rank] for _, f, rank in pooled]
            tp_total = sum(tp_flags)
            ap, defined = average_precision(tp_flags, n_truth_total)
            fp_total = len(tp_flags) - tp_total
            fn_total = n_truth_total - tp_total
            recall = tp_total / n_truth_total if n_truth_total else 0.0
            report.records[(cls, thr)] = MetricRecord(
                ap, recall, tp_total, fp_total, fn_total, defined
            )
    return report


def evaluate(
    pred_dir: str | Path,
    truth_dir: str | Path,
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
    report_path: str | Path | None = None,
) -> EvalReport:
    """Score a directory of predictions against a directory of references.

    Directories are aligned by frame stem.  When ``report_path`` is given
    the machine-readable report is written there by ``publish``, so a run
    cut short keeps the previous report whole.
    """
    thresholds = validate_iou_thresholds(thresholds)
    preds = read_labels(pred_dir, source=LabelSource.EXTERNAL)
    truths = read_labels(truth_dir, source=LabelSource.TEACHER)
    report = evaluate_labels(preds, truths, thresholds)
    if report_path is not None:
        publish({Path(report_path): lambda path: path.write_text(report.to_text(), encoding="utf-8")})
    return report
