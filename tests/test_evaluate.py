"""IoU, matching, average precision and directory-level evaluation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _naive_footprint_corners,
    _naive_separated,
    naive_evaluate_records,
    naive_iou_matrix,
    naive_read_label_file,
)

import roadlidar.evaluate
from roadlidar.cli import main
from roadlidar.core import (
    CropBounds,
    DataError,
    LabelClass,
    ObjectLabel,
    SensorMeta,
    TeacherConfig,
    read_labels,
    write_labels,
)
from roadlidar.evaluate import (
    EvalReport,
    MetricRecord,
    average_precision,
    evaluate,
    evaluate_labels,
    iou_matrices,
)
from roadlidar.pipeline import DatasetEntry, run_teacher
from roadlidar.simulate import Actor, BoxObstacle, GroundPlane, SceneSpec, SensorModel, write_scene_outputs


def _label(cx=0.0, cy=0.0, cz=0.0, l=2.0, w=1.0, h=1.0, yaw=0.0,
           cls=LabelClass.VEHICLE, score=1.0):
    return ObjectLabel(cx, cy, cz, l, w, h, yaw, cls, score)


def _random_box(rng, cls=LabelClass.VEHICLE):
    w = rng.uniform(0.3, 2.5)
    return _label(
        cx=rng.uniform(-10, 10), cy=rng.uniform(-10, 10), cz=rng.uniform(-1, 1),
        l=w + rng.uniform(0, 3), w=w, h=rng.uniform(0.3, 3),
        yaw=rng.uniform(-math.pi, math.pi - 1e-9), cls=cls,
        score=float(rng.uniform(0, 1)),
    )


def _iou(a, b):
    return iou_matrices([([a], [b])])[0][0, 0]


class TestIou3d:
    def test_identical_boxes(self):
        a = _label(yaw=0.7)
        assert _iou(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        assert _iou(_label(), _label(cx=100.0)) == 0.0

    def test_unit_cubes_offset_half(self):
        a = _label(l=1, w=1, h=1)
        b = _label(cx=0.5, l=1, w=1, h=1)
        assert _iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = _random_box(rng), _random_box(rng)
            v1, v2 = _iou(a, b), _iou(b, a)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert 0.0 <= v1 <= 1.0

    def test_self_iou_any_yaw(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = _random_box(rng)
            assert _iou(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_z_disjoint(self):
        assert _iou(_label(cz=0.0, h=1.0), _label(cz=2.0, h=1.0)) == 0.0

    def test_rotated_overlap_known_value(self):
        # two unit squares, one rotated 90 degrees: identical footprint
        a = _label(l=2, w=1, h=1)
        b = _label(l=2, w=1, h=1, yaw=math.pi / 2)
        # footprint intersection is the central 1x1 square
        expected = 1.0 / (2.0 + 2.0 - 1.0)
        assert _iou(a, b) == pytest.approx(expected, abs=1e-9)


def _circumradius(b):
    return math.hypot(b.length, b.width) / 2.0


_coord = st.floats(-4.0, 4.0, allow_nan=False)
_yaw = st.floats(-math.pi, math.pi, exclude_max=True)


@st.composite
def _boxes(draw):
    w = draw(st.floats(0.1, 2.5))
    return _label(
        cx=draw(_coord), cy=draw(_coord), cz=draw(st.floats(-1.0, 1.0)),
        l=w + draw(st.floats(0.0, 3.0)), w=w, h=draw(st.floats(0.2, 3.0)), yaw=draw(_yaw),
    )


@st.composite
def _partners(draw, a):
    """A box placed on an edge case against ``a``."""
    case = draw(st.sampled_from(["identical", "z-touch", "tangent", "end-to-end"]))
    if case == "identical":
        return a
    if case == "z-touch":
        b = draw(_boxes())
        return _label(a.center_x, a.center_y, a.center_z + (a.height + b.height) / 2.0,
                      b.length, b.width, b.height, b.yaw)
    if case == "tangent":
        # circumcircles tangent to within 1e-12
        b = draw(_boxes())
        heading = draw(_yaw)
        dist = _circumradius(a) + _circumradius(b) + draw(st.floats(-1e-12, 1e-12))
        return _label(a.center_x + dist * math.cos(heading), a.center_y + dist * math.sin(heading),
                      b.center_z, b.length, b.width, b.height, b.yaw)
    # The next box along a's heading, sharing its side lines: a gap of 0
    # overlaps in a zero-area edge, and small gaps leave collinear edges.
    gap = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1]))
    step = a.length * (1.0 + gap)
    return _label(a.center_x + step * math.cos(a.yaw), a.center_y + step * math.sin(a.yaw), a.center_z,
                  a.length, a.width, a.height, a.yaw)


@st.composite
def _frames(draw):
    boxes = draw(st.lists(_boxes(), max_size=4))
    boxes += [draw(_partners(b)) for b in boxes]
    is_pred = draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
    return (
        [b for b, p in zip(boxes, is_pred) if p],
        [b for b, p in zip(boxes, is_pred) if not p],
    )


def _assert_matrices_match_naive(frames):
    # Degenerate clips divide by zero in both, as the one-pair loop did.
    with np.errstate(divide="ignore", invalid="ignore"):
        got = iou_matrices(frames)
        want = [naive_iou_matrix(preds, truths) for preds, truths in frames]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


class TestIouMatrices:
    @given(st.lists(_frames(), max_size=5))
    @example([([_label()], []), ([], [_label()]), ([], [])])
    @example([([_label(yaw=0.3)], [_label(yaw=0.3)])])
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_naive(self, frames):
        _assert_matrices_match_naive(frames)

    @pytest.mark.parametrize("a, b", [
        (_label(-0.057051908511120075, 2.1482596259481994, 0.0, 2.648715638031554,
                0.409352621063208, 1.0, -1.7202278287371344),
         _label(-0.4483759106369077, -0.10897900403682721, 0.0, 1.6073476647920923,
                0.3075238343221243, 1.0, -1.7202278287371344)),
        (_label(-6.981280115125742, 4.815526628205191, 0.0, 4.291377720398453,
                1.4589546985817727, 1.0, -0.6044537865541573),
         _label(-3.5931508601942386, 2.4753620622062114, 0.0, 3.3995968050137426,
                1.4589546985817727, 1.0, -0.6044537865541573)),
    ], ids=["gap-0.13m", "gap-1.7mm"])
    def test_disjoint_circumcircles_with_collinear_sides(self, a, b):
        # A clip scores these disjoint boxes 1e-16 and NaN, a rounding
        # sliver along the shared side line; the separating side must score
        # them exactly 0.0 first, with no divide-by-zero warning.
        gap = math.hypot(a.center_x - b.center_x, a.center_y - b.center_y) - _circumradius(a) - _circumradius(b)
        assert gap > 1e-3
        frames = [([a, b], [a, b])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            off_diagonal = naive_iou_matrix(*frames[0])[[0, 1], [1, 0]]
            assert off_diagonal.tolist() == [0.0, 0.0]
            _assert_matrices_match_naive(frames)

    def test_pair_that_only_the_reference_side_separates_scores_zero(self):
        # A small prediction whose corner meets a large reference's corner,
        # 1e-16 m apart: no side of the prediction separates them, one side
        # of the reference does.  Clipped, the pair scores a 2.4e-16 sliver.
        pred = _label(13.357775795001306, 0.39188239917651435, 0.0, 0.7044674246654177,
                      0.318053741913366, 1.0, -0.6403217534091965)
        truth = _label(10.398310513889946, 0.7254994960713717, 0.0, 4.9778393547469255,
                       1.4626483719361243, 1.0, -0.3825797395349526)
        pred_corners, truth_corners = _naive_footprint_corners(pred), _naive_footprint_corners(truth)
        assert not _naive_separated(pred_corners, truth_corners)
        assert _naive_separated(truth_corners, pred_corners)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert naive_iou_matrix([pred], [truth]).tolist() == [[0.0]]
            assert iou_matrices([([pred], [truth])])[0].tolist() == [[0.0]]

    def test_end_to_end_boxes_score_zero(self):
        # Same-yaw boxes one after the other along their heading, with gaps
        # from 1e-9 to 0.1 of their length: their side lines coincide up to
        # rounding, and every pair is disjoint.
        rng = np.random.default_rng(45)
        frames = []
        for _ in range(20_000):
            a = _random_box(rng)
            step = a.length * (1.0 + 10.0 ** rng.uniform(-9.0, -1.0))
            b = _label(a.center_x + step * math.cos(a.yaw), a.center_y + step * math.sin(a.yaw),
                       a.center_z, a.length, a.width, a.height, a.yaw)
            frames.append(([a], [b]) if rng.integers(2) else ([b], [a]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.concatenate([m.ravel() for m in iou_matrices(frames)])
            naive = np.concatenate([naive_iou_matrix(*frame).ravel() for frame in frames[:2_000]])
        assert values.tolist() == [0.0] * len(frames)
        assert naive.tolist() == [0.0] * 2_000

    def test_pairs_split_over_blocks(self, monkeypatch):
        rng = np.random.default_rng(43)
        frames = []
        for _ in range(5):
            truths = [_random_box(rng) for _ in range(4)]
            shifted = [_label(t.center_x + 0.2, t.center_y, t.center_z, t.length, t.width, t.height, t.yaw)
                       for t in truths[:3]]
            frames.append((shifted + [_random_box(rng)], truths))
        monkeypatch.setattr(roadlidar.evaluate, "_PAIR_BLOCK", 7)
        _assert_matrices_match_naive(frames)
        assert sum(int((m > 0).sum()) for m in iou_matrices(frames)) >= 15

    def test_rendered_scene_with_overlapping_actors(self, tmp_path):
        sensor = SensorModel(
            origin=(0, 0, 3.0), azimuth_deg=(-24, 24), azimuth_count=120,
            elevation_deg=(-22, -3), elevation_count=80, range_noise_sigma=0.01, max_range=60.0,
        )
        # Pedestrians closer to each other than epsilon and two crossing
        # vehicles, so that predicted and true boxes overlap several ways.
        walkers = [
            Actor("cylinder", (0.3, 1.7), ((12.0 + 0.5 * k, -4.0), (12.0 + 0.5 * k, 4.0)), 1.2, 1.0)
            for k in range(4)
        ]
        cars = [
            Actor("cuboid", (4.2, 1.8, 1.5), ((18.0, -8.0), (18.0, 8.0)), 3.0, 1.0),
            Actor("cuboid", (4.0, 1.7, 1.4), ((22.0, 6.0), (15.0, -6.0)), 2.5, 1.5),
        ]
        spec = SceneSpec(
            sensor=sensor,
            static=[GroundPlane(0.0), BoxObstacle((28.0, 0.0, 3.0), (1.0, 36.0, 6.0))],
            actors=walkers + cars, duration=30, seed=3,
        )
        paths = write_scene_outputs(spec, tmp_path / "scene")
        teacher = TeacherConfig(
            n_total=sensor.beam_count, n_query=10, n_bin=10, n_tall=3, d_threshold=0.2,
            epsilon=0.7, min_pts=5, l_min=0.3, h_min=0.5, beta_min=0.2,
            crop=CropBounds(0, 40, -25, 25, -1, 8),
        )
        meta = SensorMeta(sensor.azimuth_count, sensor.elevation_count)
        run_teacher(DatasetEntry("s", paths["frames"], meta, teacher), tmp_path / "out")
        preds, truths = read_labels(tmp_path / "out" / "s" / "labels"), read_labels(paths["truth"])
        frames = [
            ([p for p in preds[stem] if p.label_class is cls],
             [t for t in truths[stem] if t.label_class is cls])
            for stem in sorted(truths) for cls in LabelClass
        ]
        _assert_matrices_match_naive(frames)
        values = np.concatenate([m.ravel() for m in iou_matrices(frames)])
        assert (values > 0).sum() >= 20 and (values == 0).sum() >= 20


def _one_frame(preds, truths, threshold):
    """The Vehicle record of one frame scored at one IoU threshold."""
    report = evaluate_labels({"000000": preds}, {"000000": truths}, (threshold,))
    return report.records[(LabelClass.VEHICLE, threshold)]


class TestMatchDetections:
    """Greedy matching in rank order, seen through one-frame ``evaluate_labels``.

    Each rank check scores two thresholds: one that both predictions clear,
    so the first-ranked claims the reference, and one that only the
    prediction meant to rank first clears.  Ranked right, that prediction
    is a TP ahead of an FP (AP 1.0); ranked wrong, the TP follows the FP
    (AP 0.5) at either threshold.
    """

    def test_exact_predictions_all_tp(self):
        rng = np.random.default_rng(33)
        truths = [_random_box(rng) for _ in range(4)]
        rec = _one_frame(truths, truths, 0.5)
        assert (rec.tp, rec.fp, rec.fn) == (4, 0, 0)

    def test_one_prediction_no_truth(self):
        rec = _one_frame([_label()], [], 0.5)
        assert (rec.tp, rec.fp, rec.fn) == (0, 1, 0)

    def test_two_predictions_one_truth(self):
        truth = _label()
        near = _label(cx=0.05)  # IoU 0.95
        far = _label(cx=0.6, score=0.9)  # IoU 0.54
        # the higher-scoring prediction ranks first; the other is a false positive
        for threshold in (0.5, 0.7):
            rec = _one_frame([far, near], [truth], threshold)
            assert (rec.tp, rec.fp, rec.fn, rec.ap) == (1, 1, 0, 1.0)

    def test_score_tie_broken_by_distance(self):
        truth = _label(cx=5.0)
        far = _label(cx=5.4)  # IoU 0.67
        close = _label(cx=5.1)  # IoU 0.90
        # closer to the sensor ranks first on a score tie, ahead of input order
        for threshold in (0.3, 0.8):
            rec = _one_frame([far, close], [truth], threshold)
            assert (rec.tp, rec.fp, rec.fn, rec.ap) == (1, 1, 0, 1.0)

    def test_greedy_takes_highest_iou(self):
        t_good = _label(cx=0.1)
        t_poor = _label(cx=0.8)
        pred = _label()
        # overlaps t_poor (IoU 0.25) but not t_good (0.03 < 0.1), so it can
        # match only if the first prediction took t_good
        second = _label(cx=2.0, score=0.5)
        rec = _one_frame([pred, second], [t_poor, t_good], 0.1)
        assert (rec.tp, rec.fp, rec.fn) == (2, 0, 0)


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([True, True, True], 3) == pytest.approx(1.0, abs=1e-12)

    def test_no_predictions(self):
        assert average_precision([], 5) == 0.0

    def test_no_truth_scores_zero(self):
        assert average_precision([False], 0) == 0.0

    def test_hand_computed_three_detections(self):
        # detections (TP, FP, TP) over 2 truths:
        # P/R points: (1, 1/2), (1/2, 1/2), (2/3, 1);
        # interpolated: 1 on [0, 1/2], 2/3 on (1/2, 1] -> AP = 1/2 + 1/3 = 5/6
        assert average_precision([True, False, True], 2) == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_monotone_in_prefix_quality(self):
        better = average_precision([True, True, False, False], 4)
        worse = average_precision([False, False, True, True], 4)
        assert better > worse


def _frame_sets(rng, n_frames=6, cls=LabelClass.PEDESTRIAN):
    truths, preds = {}, {}
    for k in range(n_frames):
        stem = f"{k:06d}"
        frame_truths = [_random_box(rng, cls) for _ in range(int(rng.integers(0, 4)))]
        frame_preds = []
        for t in frame_truths:
            if rng.random() < 0.8:  # jittered copy
                frame_preds.append(
                    ObjectLabel(
                        t.center_x + rng.normal(0, 0.1), t.center_y + rng.normal(0, 0.1),
                        t.center_z, t.length, t.width, t.height, t.yaw,
                        cls, float(rng.uniform(0.3, 1.0)),
                    )
                )
        for _ in range(int(rng.integers(0, 2))):  # spurious
            frame_preds.append(_random_box(rng, cls))
        truths[stem] = frame_truths
        preds[stem] = frame_preds
    return preds, truths


class TestEvaluateLabels:
    def test_pred_equals_truth_is_perfect(self):
        rng = np.random.default_rng(34)
        _, truths = _frame_sets(rng)
        report = evaluate_labels(truths, truths, (0.25, 0.3, 0.5))
        for thr in (0.25, 0.3, 0.5):
            rec = report.records[(LabelClass.PEDESTRIAN, thr)]
            assert rec.ap == pytest.approx(1.0, abs=1e-12)
            assert rec.recall == pytest.approx(1.0, abs=1e-12)
            assert rec.fp == 0 and rec.fn == 0

    def test_empty_predictions(self):
        rng = np.random.default_rng(35)
        _, truths = _frame_sets(rng)
        report = evaluate_labels({}, truths, (0.5,))
        rec = report.records[(LabelClass.PEDESTRIAN, 0.5)]
        assert rec.ap == 0.0 and rec.recall == 0.0
        assert rec.tp == 0 and rec.fn > 0

    def test_class_without_references_flagged(self):
        rng = np.random.default_rng(42)
        _, truths = _frame_sets(rng)  # pedestrians only
        report = evaluate_labels(truths, truths, (0.5,))
        vehicle = report.records[(LabelClass.VEHICLE, 0.5)]
        assert vehicle.tp + vehicle.fn == 0
        assert vehicle.ap == 0.0
        pedestrian = report.records[(LabelClass.PEDESTRIAN, 0.5)]
        assert pedestrian.tp + pedestrian.fn > 0
        table = report.to_table().splitlines()
        assert [row.startswith("Vehicle") for row in table if "no reference objects" in row] == [True]

    @pytest.mark.parametrize("thresholds", [(0.5, 0.5), (float("nan"),), (), (1.5,), (True, 0.5), ("0.5",)])
    def test_thresholds_range_checked(self, thresholds):
        with pytest.raises(ValueError, match="thresholds"):
            evaluate_labels({}, {}, thresholds)

    @pytest.mark.parametrize("thresholds", [0.5, "0.5", None])
    def test_thresholds_that_are_not_a_list_are_refused(self, thresholds):
        # a string was iterated a character at a time, a number not at all
        with pytest.raises(ValueError, match=f"thresholds must be a list, got {thresholds!r}"):
            evaluate_labels({}, {}, thresholds)

    def test_extra_prediction_stems_rejected(self):
        rng = np.random.default_rng(36)
        preds, truths = _frame_sets(rng, n_frames=3)
        preds["999999"] = []
        with pytest.raises(DataError, match="999999"):
            evaluate_labels(preds, truths)

    def test_frame_order_invariance(self):
        rng = np.random.default_rng(37)
        preds, truths = _frame_sets(rng, n_frames=8)
        r1 = evaluate_labels(preds, truths, (0.3,))
        shuffled_p = dict(reversed(list(preds.items())))
        shuffled_t = dict(reversed(list(truths.items())))
        r2 = evaluate_labels(shuffled_p, shuffled_t, (0.3,))
        a = r1.records[(LabelClass.PEDESTRIAN, 0.3)]
        b = r2.records[(LabelClass.PEDESTRIAN, 0.3)]
        assert a == b

    def test_ap_and_recall_monotone_in_threshold(self):
        rng = np.random.default_rng(38)
        preds, truths = _frame_sets(rng, n_frames=10)
        thresholds = (0.1, 0.25, 0.4, 0.6, 0.8)
        report = evaluate_labels(preds, truths, thresholds)
        aps = [report.records[(LabelClass.PEDESTRIAN, t)].ap for t in thresholds]
        recalls = [report.records[(LabelClass.PEDESTRIAN, t)].recall for t in thresholds]
        assert all(a1 >= a2 - 1e-12 for a1, a2 in zip(aps, aps[1:]))
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(recalls, recalls[1:]))


_TIED_SCORES = (0.25, 0.5, 0.5, 0.75, 1.0)


def _tied_prediction(rng, truths, earlier):
    """A prediction whose rank is likely to tie with another's."""
    score = float(rng.choice(_TIED_SCORES))
    cls = LabelClass.VEHICLE if rng.random() < 0.5 else LabelClass.PEDESTRIAN
    kind = rng.random()
    if kind < 0.15 and earlier:  # the same box and score: input order breaks the tie
        return earlier[int(rng.integers(len(earlier)))]
    if kind < 0.3 and earlier:  # the same center and score, another box: input order again
        p = earlier[int(rng.integers(len(earlier)))]
        w = float(rng.uniform(0.5, 2.0))
        return ObjectLabel(p.center_x, p.center_y, p.center_z, w + float(rng.uniform(0, 2)), w,
                           float(rng.uniform(0.5, 2.0)), float(rng.uniform(-math.pi, 3.0)),
                           p.label_class, p.score)
    if kind < 0.37:  # too far to square: the distance overflows to inf
        return _label(cx=float(rng.choice((1e200, -1.5e200))), cy=float(rng.uniform(-1, 1)),
                      cls=cls, score=score)
    if kind < 0.44:  # too large to multiply out: its IoU with a huge reference is NaN
        size = float(rng.choice((1e200, 1e300)))
        return _label(cx=float(rng.uniform(-2, 2)), l=size, w=size, h=size,
                      yaw=float(rng.choice((0.0, 0.4))), cls=cls, score=score)
    bars = [t for t in truths if t.length == 3.0 and t.yaw == 0.0]
    if bars and kind < 0.6:  # a bar shifted by a whole length unit: IoU exactly 1.0 or 0.5
        t = bars[int(rng.integers(len(bars)))]
        return _label(t.center_x + float(rng.integers(-1, 2)), t.center_y, l=3.0, cls=t.label_class,
                      score=score)
    if truths and kind < 0.85:  # a jittered copy of a reference
        t = truths[int(rng.integers(len(truths)))]
        return ObjectLabel(t.center_x + float(rng.normal(0, 0.3)), t.center_y + float(rng.normal(0, 0.3)),
                           t.center_z, t.length, t.width, t.height, t.yaw, t.label_class, score)
    box = _random_box(rng, cls)
    return ObjectLabel(box.center_x / 4, box.center_y / 4, box.center_z, box.length, box.width, box.height,
                       box.yaw, cls, score)


def _tied_split(rng):
    """A multi-stem split of crowded frames with many rank ties.

    Some stems have no prediction file, some frames no reference.
    """
    preds, truths = {}, {}
    for k in range(int(rng.integers(2, 6))):
        stem = f"{k:06d}"
        frame_truths = []
        if rng.random() < 0.3:
            # two 3 x 1 x 1 bars 2 apart: a prediction midway has IoU 0.5 with both
            x, y = float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
            cls = LabelClass.VEHICLE if rng.random() < 0.5 else LabelClass.PEDESTRIAN
            frame_truths += [_label(x - 1.0, y, l=3.0, cls=cls), _label(x + 1.0, y, l=3.0, cls=cls)]
        for _ in range(int(rng.integers(0, 4))):
            cls = LabelClass.VEHICLE if rng.random() < 0.5 else LabelClass.PEDESTRIAN
            if rng.random() < 0.1:
                frame_truths.append(_label(l=1e300, w=1e300, h=1e300, cls=cls))
                continue
            box = _random_box(rng, cls)
            frame_truths.append(ObjectLabel(box.center_x / 4, box.center_y / 4, box.center_z, box.length,
                                            box.width, box.height, box.yaw, cls, 1.0))
        truths[stem] = frame_truths
        if rng.random() < 0.2:
            continue
        frame_preds = []
        for _ in range(int(rng.integers(0, 7))):
            frame_preds.append(_tied_prediction(rng, frame_truths, frame_preds))
        preds[stem] = frame_preds
    return preds, truths


def _distance(p):
    try:
        return math.sqrt(p.center_x**2 + p.center_y**2 + p.center_z**2)
    except OverflowError:
        return math.inf


class TestPooledRankingOracle:
    def test_reports_match_naive_on_tied_splits(self, tmp_path):
        """Pooled rank and greedy claims across frames, score ties included,
        match the earlier per-frame ranking regathered into pooled order,
        from label lists and from the label files of the same split."""
        rng = np.random.default_rng(2024)
        thresholds = (0.1, 0.25, 0.5, 0.7)
        seen = dict.fromkeys(("nan_iou", "iou_at_threshold", "equal_best_iou", "inf_distance", "distance_tie",
                              "input_order_tie", "cross_stem_tie", "no_prediction_file", "no_reference"), 0)
        for k in range(300):
            preds, truths = _tied_split(rng)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = naive_evaluate_records(preds, truths, thresholds)
                report = evaluate_labels(preds, truths, thresholds)
            expected = EvalReport(thresholds, {key: MetricRecord(*rec) for key, rec in expected.items()})
            assert report.to_text() == expected.to_text()
            assert report.records == expected.records
            pred_dir, truth_dir = tmp_path / f"pred{k}", tmp_path / f"truth{k}"
            write_labels(preds, pred_dir)
            write_labels(truths, truth_dir)
            read = [{file.stem: naive_read_label_file(file) for file in sorted(directory.glob("*.txt"))}
                    for directory in (pred_dir, truth_dir)]
            with np.errstate(over="ignore", invalid="ignore"):
                from_files = naive_evaluate_records(*read, thresholds)
            assert evaluate(pred_dir, truth_dir, thresholds).records == {
                key: MetricRecord(*rec) for key, rec in from_files.items()
            }
            stems = sorted(truths)
            frames = [(preds.get(stem, []), truths[stem]) for stem in stems]
            matrices = iou_matrices(frames)
            seen["nan_iou"] += sum(int(np.isnan(m).sum()) for m in matrices)
            seen["iou_at_threshold"] += sum(int(np.isin(m, thresholds).sum()) for m in matrices)
            for row in (row for m in matrices for row in m):
                best = row.max(initial=0.0)
                seen["equal_best_iou"] += int(best > 0 and (row == best).sum() > 1)
            seen["no_prediction_file"] += len(set(truths) - set(preds))
            seen["no_reference"] += sum(not ts for ts in truths.values())
            for cls in LabelClass:
                keyed = [(p.score, stem, _distance(p)) for stem in stems
                         for p in preds.get(stem, []) if p.label_class is cls]
                seen["inf_distance"] += sum(d == math.inf for _, _, d in keyed)
                for a, (s, stem, d) in enumerate(keyed):
                    for s2, stem2, d2 in keyed[a + 1:]:
                        if s == s2 and stem != stem2:
                            seen["cross_stem_tie"] += 1
                        elif s == s2 and d != d2:
                            seen["distance_tie"] += 1
                        elif s == s2:
                            seen["input_order_tie"] += 1
        assert all(count >= 20 for count in seen.values()), repr(seen)


class TestEvaluateDirectories:
    def test_directory_evaluation_and_report(self, tmp_path):
        rng = np.random.default_rng(39)
        _, truths = _frame_sets(rng)
        write_labels(truths, tmp_path / "truth")
        write_labels(truths, tmp_path / "pred")
        report_path = tmp_path / "report.txt"
        report = evaluate(tmp_path / "pred", tmp_path / "truth", (0.5,), report_path)
        assert report.records[(LabelClass.PEDESTRIAN, 0.5)].ap == pytest.approx(1.0)
        text = report_path.read_text()
        assert text.splitlines()[0] == "class iou ap recall tp fp fn"
        assert "Pedestrian 0.50 1.000000 1.000000" in text

    def test_report_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(40)
        preds, truths = _frame_sets(rng)
        write_labels(truths, tmp_path / "truth")
        write_labels(preds, tmp_path / "pred")
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        evaluate(tmp_path / "pred", tmp_path / "truth", (0.25, 0.5), p1)
        evaluate(tmp_path / "pred", tmp_path / "truth", (0.25, 0.5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_pred_file_means_no_detections(self, tmp_path):
        rng = np.random.default_rng(41)
        _, truths = _frame_sets(rng, n_frames=4)
        write_labels(truths, tmp_path / "truth")
        partial = {k: v for i, (k, v) in enumerate(sorted(truths.items())) if i < 2}
        write_labels(partial, tmp_path / "pred")
        report = evaluate(tmp_path / "pred", tmp_path / "truth", (0.5,))
        rec = report.records[(LabelClass.PEDESTRIAN, 0.5)]
        total = sum(len(v) for v in truths.values())
        found = sum(len(v) for v in partial.values())
        assert rec.tp == found and rec.fn == total - found

    @staticmethod
    def _report_under_warnings_as_errors(tmp_path, prediction):
        """The report of one unit truth box against ``prediction``, through the CLI."""
        write_labels({"000001": [_label()]}, tmp_path / "truth")
        write_labels({"000001": [prediction]}, tmp_path / "pred")
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({
            "pred_dir": str(tmp_path / "pred"), "truth_dir": str(tmp_path / "truth"),
            "thresholds": [0.5], "report": str(tmp_path / "report.txt"),
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--config", str(config)]) == 0
        return (tmp_path / "report.txt").read_text()

    _ONE_FALSE_POSITIVE = (
        "class iou ap recall tp fp fn\n"
        "Vehicle 0.50 0.000000 0.000000 0 1 1\n"
        "Pedestrian 0.50 0.000000 0.000000 0 0 0\n"
    )

    def test_prediction_too_far_to_square_is_a_false_positive(self, tmp_path):
        # 1e300 is finite, but 1e300**2 raises OverflowError in Python
        report = self._report_under_warnings_as_errors(tmp_path, _label(cx=1e300))
        assert report == self._ONE_FALSE_POSITIVE

    @pytest.mark.parametrize("yaw", [0.0, 0.4])
    def test_prediction_too_large_to_multiply_out_is_a_false_positive(self, tmp_path, yaw):
        # dims of 1e300 overflow the volume and the corners to inf, and a
        # rotated footprint's separation test meets inf - inf
        report = self._report_under_warnings_as_errors(tmp_path, _label(l=1e300, w=1e300, h=1e300, yaw=yaw))
        assert report == self._ONE_FALSE_POSITIVE
