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

from .core import DataError, LabelClass, LabelSource, ObjectLabel, read_labels

DEFAULT_IOU_THRESHOLDS = (0.25, 0.3, 0.5)


def _footprint_corners(label: ObjectLabel) -> np.ndarray:
    """The 4 corners of the box's XY rectangle, counter-clockwise."""
    c, s = math.cos(label.yaw), math.sin(label.yaw)
    hl, hw = label.length / 2.0, label.width / 2.0
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([label.center_x, label.center_y])


def _clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon by a convex CCW clipper."""
    output = list(subject)
    for i in range(len(clipper)):
        a = clipper[i]
        b = clipper[(i + 1) % len(clipper)]
        edge = b - a
        if not output:
            return np.empty((0, 2))
        input_pts = output
        output = []
        prev = input_pts[-1]
        prev_inside = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0
        for cur in input_pts:
            cur_inside = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= 0
            if cur_inside != prev_inside:
                # segment crosses the edge line; add the intersection
                d = cur - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / denom
                output.append(prev + t * d)
            if cur_inside:
                output.append(cur)
            prev, prev_inside = cur, cur_inside
    return np.array(output) if output else np.empty((0, 2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def iou_3d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Volume IoU of two yaw-oriented boxes; symmetric, in [0, 1]."""
    za0, za1 = a.center_z - a.height / 2.0, a.center_z + a.height / 2.0
    zb0, zb1 = b.center_z - b.height / 2.0, b.center_z + b.height / 2.0
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0:
        return 0.0
    inter_fp = _polygon_area(_clip_polygon(_footprint_corners(a), _footprint_corners(b)))
    if inter_fp <= 0:
        return 0.0
    inter = inter_fp * dz
    vol_a = a.length * a.width * a.height
    vol_b = b.length * b.width * b.height
    union = vol_a + vol_b - inter
    if union <= 0:
        return 0.0
    return min(inter / union, 1.0)


@dataclass
class Matching:
    """Greedy one-to-one match of one frame's predictions to references.

    ``order`` gives prediction indices in evaluation rank; ``tp[r]`` says
    whether the prediction at rank r matched, ``matched_truth[r]`` which
    reference it claimed (-1 for none).
    """

    order: list[int]
    tp: list[bool]
    matched_truth: list[int]
    n_truth: int

    @property
    def tp_count(self) -> int:
        return sum(self.tp)

    @property
    def fp_count(self) -> int:
        return len(self.tp) - self.tp_count

    @property
    def fn_count(self) -> int:
        return self.n_truth - self.tp_count


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
        iou_matrix = np.array([[iou_3d(p, t) for t in truths] for p in preds]).reshape(
            len(preds), len(truths)
        )
    taken = np.zeros(len(truths), dtype=bool)
    tp: list[bool] = []
    matched: list[int] = []
    for i in order:
        best_j = -1
        best_iou = 0.0
        for j in range(len(truths)):
            if taken[j]:
                continue
            v = iou_matrix[i, j]
            if v >= iou_threshold and v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            tp.append(True)
            matched.append(best_j)
        else:
            tp.append(False)
            matched.append(-1)
    return Matching(order=order, tp=tp, matched_truth=matched, n_truth=len(truths))


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


@dataclass
class _PooledDetection:
    score: float
    stem: str
    rank_in_frame: int
    tp: bool


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
    report = EvalReport(thresholds=tuple(thresholds))
    stems = sorted(truths_by_stem)
    for cls in LabelClass:
        frame_sets = []
        n_truth_total = 0
        for stem in stems:
            preds = [p for p in preds_by_stem.get(stem, []) if p.label_class is cls]
            truths = [t for t in truths_by_stem[stem] if t.label_class is cls]
            iou = np.array([[iou_3d(p, t) for t in truths] for p in preds]).reshape(
                len(preds), len(truths)
            )
            frame_sets.append((stem, preds, truths, iou))
            n_truth_total += len(truths)
        for thr in thresholds:
            pooled: list[_PooledDetection] = []
            tp_total = 0
            for stem, preds, truths, iou in frame_sets:
                m = match_detections(preds, truths, thr, iou_matrix=iou)
                tp_total += m.tp_count
                for rank, i in enumerate(m.order):
                    pooled.append(_PooledDetection(preds[i].score, stem, rank, m.tp[rank]))
            # Pooled rank: score desc, then (stem, in-frame rank) so the
            # result is invariant to frame processing order.
            pooled.sort(key=lambda d: (-d.score, d.stem, d.rank_in_frame))
            ap, defined = average_precision([d.tp for d in pooled], n_truth_total)
            fp_total = len(pooled) - tp_total
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
    the machine-readable report is written there.
    """
    preds = read_labels(pred_dir, source=LabelSource.EXTERNAL)
    truths = read_labels(truth_dir, source=LabelSource.TEACHER)
    report = evaluate_labels(preds, truths, thresholds)
    if report_path is not None:
        Path(report_path).write_text(report.to_text(), encoding="utf-8")
    return report
