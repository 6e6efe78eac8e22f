"""Box fitting, validation heuristics and classification."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import naive_format_label_line, naive_min_area_rect

import roadlidar

from roadlidar.annotate import (
    DEGENERATE_FLOOR,
    FittedBox,
    RejectedBox,
    annotate_frame,
    classify,
    fit_boxes,
    min_area_rect,
    validate_bbox,
)
from roadlidar.core import (
    CropBounds,
    Frame,
    LabelClass,
    LabelSource,
    ObjectLabel,
    TeacherConfig,
)
from roadlidar.simulate import (
    Actor,
    BoxObstacle,
    GroundPlane,
    SceneSpec,
    SensorModel,
    write_scene_outputs,
)

CFG = TeacherConfig(
    n_total=1000, n_query=10, n_bin=10, n_tall=3, d_threshold=0.2,
    epsilon=0.7, min_pts=5, l_min=0.3, h_min=0.5, beta_min=0.2,
    crop=CropBounds(-50, 50, -50, 50, -5, 10),
)


def _frame(pts):
    pts = np.asarray(pts, dtype=np.float64)
    return Frame(1, pts, np.zeros(len(pts), dtype=bool))


def _cuboid_corners(l, w, h, yaw=0.0, center=(0.0, 0.0, 0.0)):
    hx, hy, hz = l / 2, w / 2, h / 2
    corners = np.array(
        [[sx * hx, sy * hy, sz * hz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=float,
    )
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    return corners @ rot.T + np.asarray(center)


class TestFitBbox:
    def test_axis_aligned_cuboid_corners(self):
        pts = _cuboid_corners(4.0, 2.0, 1.5)
        box = fit_boxes(_frame(pts), [np.arange(8)])[0]
        assert box.length == pytest.approx(4.0, abs=1e-9)
        assert box.width == pytest.approx(2.0, abs=1e-9)
        assert box.height == pytest.approx(1.5, abs=1e-9)
        assert box.yaw == pytest.approx(0.0, abs=1e-9)

    def test_rotated_30_degrees(self):
        yaw = math.radians(30)
        pts = _cuboid_corners(4.0, 2.0, 1.5, yaw=yaw)
        box = fit_boxes(_frame(pts), [np.arange(8)])[0]
        assert box.length == pytest.approx(4.0, abs=1e-6)
        assert box.width == pytest.approx(2.0, abs=1e-6)
        assert abs(math.sin(box.yaw - yaw)) < 1e-6  # equal mod pi

    def test_single_point_floors(self):
        pts = np.array([[3.0, -2.0, 1.0]])
        box = fit_boxes(_frame(pts), [np.arange(1)])[0]
        assert box.length == box.width == box.height == DEGENERATE_FLOOR
        assert (box.center_x, box.center_y, box.center_z) == (3.0, -2.0, 1.0)

    def test_collinear_cluster_floors_width(self):
        pts = np.array([[t, t, 0.0] for t in np.linspace(0, 1, 7)])
        box = fit_boxes(_frame(pts), [np.arange(7)])[0]
        assert box.length == pytest.approx(math.sqrt(2), abs=1e-9)
        assert box.width == DEGENERATE_FLOOR
        assert abs(math.sin(box.yaw - math.pi / 4)) < 1e-9

    def test_empty_cluster(self):
        with pytest.raises(Exception, match="empty"):
            fit_boxes(_frame(np.ones((2, 3))), [np.array([], dtype=int)])

    def test_containment_after_inflation(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pts = rng.normal(0, 2.0, (int(rng.integers(4, 60)), 3))
            box = fit_boxes(_frame(pts), [np.arange(len(pts))])[0]
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            local = (pts[:, :2] - [box.center_x, box.center_y]) @ np.array(
                [[c, -s], [s, c]]
            )
            assert np.all(np.abs(local[:, 0]) <= box.length / 2 + 1e-6)
            assert np.all(np.abs(local[:, 1]) <= box.width / 2 + 1e-6)
            assert np.all(pts[:, 2] >= box.center_z - box.height / 2 - 1e-6)
            assert np.all(pts[:, 2] <= box.center_z + box.height / 2 + 1e-6)

    def test_minimality_vs_axis_aligned(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            pts = rng.normal(0, 1.5, (int(rng.integers(8, 80)), 3))
            _, long_side, short_side, _ = min_area_rect(pts[:, :2])
            aabb = np.ptp(pts[:, :2], axis=0)
            assert long_side * short_side <= aabb[0] * aabb[1] + 1e-9

    def test_rotation_covariance(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(0, 1.0, (40, 3)) * [3.0, 1.0, 0.5]
        base = fit_boxes(_frame(pts), [np.arange(40)])[0]
        for theta in rng.uniform(-math.pi, math.pi, 10):
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            rotated = fit_boxes(_frame(pts @ rot.T), [np.arange(40)])[0]
            assert abs(math.sin(rotated.yaw - base.yaw - theta)) < 1e-5
            assert rotated.length == pytest.approx(base.length, abs=1e-6)
            assert rotated.width == pytest.approx(base.width, abs=1e-6)
            assert rotated.height == pytest.approx(base.height, abs=1e-6)


def _rect_bits(rect):
    center, long_side, short_side, yaw = rect
    return (*(float(c) for c in center), long_side, short_side, yaw)


def _rect_line(rect):
    """The label line a fitted rectangle turns into, after the floor."""
    center, long_side, short_side, yaw = rect
    return naive_format_label_line(
        ObjectLabel(
            float(center[0]), float(center[1]), 0.0,
            max(long_side, DEGENERATE_FLOOR), max(short_side, DEGENERATE_FLOOR), 1.0,
            yaw, LabelClass.VEHICLE, 1.0,
        )
    )


class TestMinAreaRectOracle:
    """The batched quickhull and calipers against the hand-written reference."""

    def _assert_identical(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        assert _rect_bits(min_area_rect(pts)) == _rect_bits(naive_min_area_rect(pts))

    def test_random_float32_clusters(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(3, 400))
            spread = rng.uniform(0.1, 3.0, 2)
            offset = rng.uniform(-60.0, 60.0, 2)
            pts = (rng.normal(0.0, 1.0, (n, 2)) * spread + offset).astype(np.float32)
            self._assert_identical(pts)

    def test_four_way_ties(self):
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        grid = [[x, y] for x in np.linspace(2.0, 6.0, 9) for y in np.linspace(-1.0, 1.0, 5)]
        self._assert_identical(square)
        self._assert_identical(grid)
        # Rotated squares with points inside: the parallel sides tie on
        # area, so the hull's start vertex decides which side wins.
        rng = np.random.default_rng(32)
        for _ in range(200):
            yaw = rng.uniform(0.0, math.pi)
            c, s = math.cos(yaw), math.sin(yaw)
            local = np.vstack([[[-1, -1], [1, -1], [1, 1], [-1, 1]], rng.uniform(-1, 1, (100, 2))])
            self._assert_identical(local @ np.array([[c, s], [-s, c]]) + rng.uniform(-30, 30, 2))

    def test_acute_triangle(self):
        self._assert_identical([[0.0, 0.0], [4.0, 0.5], [1.5, 3.0]])

    def test_duplicate_points(self):
        self._assert_identical([[1.0, 2.0], [3.0, 2.5], [1.0, 2.0], [2.0, 4.0], [3.0, 2.5]])
        self._assert_identical([[1.0, 2.0]] * 5)
        self._assert_identical([[1.0, 2.0], [3.0, 2.5], [3.0, 2.5]])

    def test_collinear_and_single_point(self):
        self._assert_identical([[t, t] for t in np.linspace(0.0, 1.0, 7)])
        self._assert_identical([[t, -2.0 * t] for t in range(-3, 4)])
        self._assert_identical([[5.0, y] for y in (3.0, -1.0, 0.5, 2.0)])
        self._assert_identical([[-3.5, 7.25]])

    def test_flat_within_precision(self):
        # Nearly collinear points: the chain and the quickhull each keep a
        # sliver hull but round their orientation tests differently, so the
        # rectangles may differ in the last ulp; the label lines may not.
        bend = [[0.0, 0.0], [1.0, 1.0 + 1e-15], [2.0, 2.0]]
        ulp_x = np.nextafter(10.0, 11.0)
        near_vertical = [[ulp_x, 0.0], [10.0, 1.0], [10.0, 2.0]]
        for pts in (bend, near_vertical):
            pts = np.asarray(pts)
            assert _rect_line(min_area_rect(pts)) == _rect_line(naive_min_area_rect(pts))


def _naive_box(pts):
    """The box ``fit_boxes`` must give for (n, 3) points, from the reference rectangle."""
    center, long_side, short_side, yaw = naive_min_area_rect(pts[:, :2])
    z_min, z_max = float(pts[:, 2].min()), float(pts[:, 2].max())
    return FittedBox(
        float(center[0]), float(center[1]), (z_min + z_max) / 2.0,
        max(long_side, DEGENERATE_FLOOR), max(short_side, DEGENERATE_FLOOR),
        max(z_max - z_min, DEGENERATE_FLOOR), yaw,
    )


def _box_line(box):
    return naive_format_label_line(ObjectLabel(
        box.center_x, box.center_y, box.center_z, box.length, box.width, box.height,
        box.yaw, LabelClass.VEHICLE, 1.0,
    ))


class TestBatchedFit:
    """Every kind of cluster in one frame, so one cluster's hull bookkeeping
    cannot leak into its neighbours'."""

    def _scene(self):
        rng = np.random.default_rng(41)
        footprints = [
            [[3.0, -2.0]],
            [[1.0, 2.0]] * 5,
            [[1.0, 2.0], [3.0, 2.5], [1.0, 2.0], [2.0, 4.0], [3.0, 2.5]],
            [[t, t] for t in np.linspace(0.0, 1.0, 7)],
            [[t, -2.0 * t] for t in range(-3, 4)],
            [[5.0, y] for y in (3.0, -1.0, 0.5, 2.0)],
            [[0.0, 0.0], [4.0, 0.5], [1.5, 3.0]],
            # runs of equally far points, parallel to L -> R
            [[0.0, 0.0], [6.0, 0.0], [2.0, -1.0], [4.0, -1.0], [3.0, -1.0], [1.0, -1.0],
             [5.0, 1.0], [3.0, 1.0], [2.0, 1.0], [4.0, 1.0], [3.0, 0.0]],
        ]
        for _ in range(20):
            n = int(rng.integers(3, 300))
            xy = rng.normal(0.0, 1.0, (n, 2)) * rng.uniform(0.1, 3.0, 2) + rng.uniform(-60.0, 60.0, 2)
            footprints.append(xy.astype(np.float32))
        for _ in range(20):
            yaw = rng.uniform(0.0, math.pi)
            c, s = math.cos(yaw), math.sin(yaw)
            local = np.vstack([[[-1, -1], [1, -1], [1, 1], [-1, 1]], rng.uniform(-1, 1, (60, 2))])
            footprints.append(local @ np.array([[c, s], [-s, c]]) + rng.uniform(-30, 30, 2))
        # flat within precision: only the label line is pinned
        slivers = [[[0.0, 0.0], [1.0, 1.0 + 1e-15], [2.0, 2.0]],
                   [[np.nextafter(10.0, 11.0), 0.0], [10.0, 1.0], [10.0, 2.0]]]
        footprints += slivers

        xy = np.vstack([np.asarray(f, dtype=np.float64) for f in footprints])
        sizes = [len(f) for f in footprints]
        # each cluster's points at shuffled places in the frame
        place = rng.permutation(len(xy))
        clusters = np.split(place, np.cumsum(sizes)[:-1])
        exact = [True] * (len(footprints) - len(slivers)) + [False] * len(slivers)
        # two clusters that share point indices with others
        clusters += [np.concatenate([clusters[8][:5], clusters[30]]), clusters[9][::2]]
        exact += [True, True]
        xyz = np.zeros((len(xy), 3))
        xyz[place, :2] = xy
        xyz[:, 2] = rng.uniform(0.0, 3.0, len(xy))
        order = rng.permutation(len(clusters))
        return _frame(xyz), [clusters[k] for k in order], [exact[k] for k in order]

    def test_every_box_matches_the_reference(self):
        frame, clusters, exact = self._scene()
        cfg = dataclasses.replace(CFG, l_min=1e-12, h_min=1e-12, beta_min=1e-12)
        rejects: list[RejectedBox] = []
        labels = annotate_frame(frame, clusters, cfg, rejects.append)
        expected_labels, expected_rejects = [], []
        for cluster, is_exact in zip(clusters, exact):
            want = _naive_box(frame.xyz[cluster])
            got = fit_boxes(frame, [cluster])[0]
            if is_exact:
                assert got == want
            else:
                assert _box_line(got) == _box_line(want)
            ok, reason = validate_bbox(want, cfg)
            if ok:
                expected_labels.append((want, classify(want), is_exact))
            else:
                expected_rejects.append(RejectedBox(1, want.length, want.height, reason))
        assert rejects == expected_rejects
        assert len(labels) == len(expected_labels)
        for label, (want, cls, is_exact) in zip(labels, expected_labels):
            assert label.label_class is cls
            box = FittedBox(label.center_x, label.center_y, label.center_z,
                            label.length, label.width, label.height, label.yaw)
            if is_exact:
                assert box == want
            else:
                assert _box_line(box) == _box_line(want)


# the names of the loaded modules that are scipy or under it
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    src = str(Path(roadlidar.__file__).resolve().parents[1])
    code = f"import sys, roadlidar.cli; print({SCIPY_MODULES})"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_annotate_never_imports_scipy_spatial(tmp_path):
    """Neither the CLI process nor a pool worker imports any scipy module."""
    sensor = SensorModel(
        origin=(0, 0, 3.0), azimuth_deg=(-24, 24), azimuth_count=120,
        elevation_deg=(-22, -3), elevation_count=80, range_noise_sigma=0.01, max_range=60.0,
    )
    spec = SceneSpec(
        sensor=sensor,
        static=[GroundPlane(0.0), BoxObstacle((28.0, 0.0, 3.0), (1.0, 36.0, 6.0))],
        actors=[Actor("cuboid", (3.8, 1.7, 1.5), ((14.0, -3.5), (14.0, 4.0)), 2.0, 1.2)],
        duration=20, seed=11,
    )
    write_scene_outputs(spec, tmp_path / "scene")
    teacher = {
        "n_query": 10, "n_bin": 10, "n_tall": 3, "d_threshold": 0.2, "epsilon": 0.7,
        "min_pts": 5, "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
        "crop": {"x_min": 0, "x_max": 40, "y_min": -25, "y_max": 25, "z_min": -1, "z_max": 8},
    }
    config = {
        "output_root": str(tmp_path / "out"),
        "parallelism": 2,
        "datasets": [
            {"name": name, "frames": str(tmp_path / "scene" / "frames"), "teacher": teacher,
             "sensor": {"rays_horizontal": 120, "rays_vertical": 80}}
            for name in ("a", "b")
        ],
    }
    (tmp_path / "annotate.json").write_text(json.dumps(config))
    src = str(Path(roadlidar.__file__).resolve().parents[1])
    code = (
        "import sys; from roadlidar.cli import main; "
        f"code = main(['annotate', '--config', sys.argv[1]]); print(code, {SCIPY_MODULES})"
    )
    # -X importtime reports every import, a pool worker's too, on stderr
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, str(tmp_path / "annotate.json")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "[]"]
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "roadlidar.clustering" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    for name in ("a", "b"):
        stats = json.loads((tmp_path / "out" / name / "stats.json").read_text())
        assert stats["labels_written"] > 0


def _box(base, height):
    return FittedBox(0, 0, height / 2, base, min(base, 0.5), height, 0.0)


class TestValidateBbox:
    def test_clear_vehicle_valid(self):
        ok, reason = validate_bbox(_box(4.5, 1.6), CFG)
        assert ok and reason == ""

    def test_short_base_invalid(self):
        ok, reason = validate_bbox(_box(0.2, 1.6), CFG)
        assert not ok
        assert reason == "base_length<l_min"

    def test_low_height_invalid(self):
        ok, reason = validate_bbox(_box(2.0, 0.3), CFG)
        assert not ok
        assert reason == "height<h_min"

    def test_ambiguous_shape_invalid(self):
        # |1.0 - 1.1| = 0.1 < beta_min 0.2: shape too ambiguous to classify
        ok, reason = validate_bbox(_box(1.0, 1.1), CFG)
        assert not ok
        assert reason == "|base_length-height|<beta_min"


class TestClassify:
    def test_vehicle(self):
        assert classify(_box(4.5, 1.6)) is LabelClass.VEHICLE

    def test_pedestrian(self):
        assert classify(_box(0.5, 1.7)) is LabelClass.PEDESTRIAN

    def test_length_equal_to_height_is_a_value_error(self):
        # annotate_frame never gets here: beta_min > 0 rejects such a box first
        with pytest.raises(ValueError, match="length == height"):
            classify(_box(1.5, 1.5))


class TestAnnotateFrame:
    def test_zero_clusters(self):
        assert annotate_frame(_frame(np.ones((3, 3))), [], CFG) == []

    def test_vehicle_shaped_cluster(self):
        pts = _cuboid_corners(4.0, 2.0, 1.5, yaw=0.4, center=(10, 5, 0.75))
        labels = annotate_frame(_frame(pts), [np.arange(8)], CFG)
        assert len(labels) == 1
        label = labels[0]
        assert label.label_class is LabelClass.VEHICLE
        assert label.score == 1.0
        assert label.source is LabelSource.TEACHER
        assert label.length >= label.width

    def test_rejects_reported(self):
        tiny = np.array([[0, 0, 0.0], [0.05, 0, 0], [0, 0.05, 0], [0.05, 0.05, 0.02]])
        rejects: list[RejectedBox] = []
        labels = annotate_frame(_frame(tiny), [np.arange(4)], CFG, rejects.append)
        assert labels == []
        assert len(rejects) == 1
        assert rejects[0].reason == "base_length<l_min"
        assert rejects[0].frame_index == 1

    def test_output_order_follows_cluster_order(self):
        ped = _cuboid_corners(0.5, 0.4, 1.7, center=(5, 0, 0.85))
        veh = _cuboid_corners(4.0, 2.0, 1.5, center=(15, 0, 0.75))
        pts = np.vstack([veh, ped])
        clusters = [np.arange(8), np.arange(8, 16)]
        labels = annotate_frame(_frame(pts), clusters, CFG)
        assert [lb.label_class for lb in labels] == [LabelClass.VEHICLE, LabelClass.PEDESTRIAN]
