"""Box fitting, the size gates and the class rule."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import naive_format_label_line, naive_label_box, naive_min_area_rect

import roadlidar

from roadlidar.annotate import (
    DEGENERATE_FLOOR,
    RejectedBox,
    annotate_frame,
    fit_boxes,
    label_rows,
    min_area_rect,
)
from roadlidar.core import (
    LABEL_CLASSES,
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


def _fit(pts):
    """``fit_boxes`` on one cluster of all of ``pts``: its row,
    cx cy cz length width height yaw, as a list."""
    return fit_boxes(np.asarray(pts, dtype=np.float64), [np.arange(len(pts))])[0].tolist()


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
        _, _, _, length, width, height, yaw = _fit(_cuboid_corners(4.0, 2.0, 1.5))
        assert length == pytest.approx(4.0, abs=1e-9)
        assert width == pytest.approx(2.0, abs=1e-9)
        assert height == pytest.approx(1.5, abs=1e-9)
        assert yaw == pytest.approx(0.0, abs=1e-9)

    def test_rotated_30_degrees(self):
        yaw = math.radians(30)
        _, _, _, length, width, _, fitted_yaw = _fit(_cuboid_corners(4.0, 2.0, 1.5, yaw=yaw))
        assert length == pytest.approx(4.0, abs=1e-6)
        assert width == pytest.approx(2.0, abs=1e-6)
        assert abs(math.sin(fitted_yaw - yaw)) < 1e-6  # equal mod pi

    def test_single_point_floors(self):
        cx, cy, cz, length, width, height, _ = _fit(np.array([[3.0, -2.0, 1.0]]))
        assert length == width == height == DEGENERATE_FLOOR
        assert (cx, cy, cz) == (3.0, -2.0, 1.0)

    def test_collinear_cluster_floors_width(self):
        _, _, _, length, width, _, yaw = _fit(np.array([[t, t, 0.0] for t in np.linspace(0, 1, 7)]))
        assert length == pytest.approx(math.sqrt(2), abs=1e-9)
        assert width == DEGENERATE_FLOOR
        assert abs(math.sin(yaw - math.pi / 4)) < 1e-9

    def test_empty_cluster(self):
        with pytest.raises(Exception, match="empty"):
            fit_boxes(np.ones((2, 3)), [np.array([], dtype=int)])

    def test_containment_after_inflation(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pts = rng.normal(0, 2.0, (int(rng.integers(4, 60)), 3))
            cx, cy, cz, length, width, height, yaw = _fit(pts)
            c, s = math.cos(yaw), math.sin(yaw)
            local = (pts[:, :2] - [cx, cy]) @ np.array([[c, -s], [s, c]])
            assert np.all(np.abs(local[:, 0]) <= length / 2 + 1e-6)
            assert np.all(np.abs(local[:, 1]) <= width / 2 + 1e-6)
            assert np.all(pts[:, 2] >= cz - height / 2 - 1e-6)
            assert np.all(pts[:, 2] <= cz + height / 2 + 1e-6)

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
        base = _fit(pts)
        for theta in rng.uniform(-math.pi, math.pi, 10):
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            rotated = _fit(pts @ rot.T)
            assert abs(math.sin(rotated[6] - base[6] - theta)) < 1e-5
            assert rotated[3:6] == pytest.approx(base[3:6], abs=1e-6)


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
    """The row ``fit_boxes`` must give for (n, 3) points, from the reference rectangle."""
    center, long_side, short_side, yaw = naive_min_area_rect(pts[:, :2])
    z_min, z_max = float(pts[:, 2].min()), float(pts[:, 2].max())
    return [
        float(center[0]), float(center[1]), (z_min + z_max) / 2.0,
        max(long_side, DEGENERATE_FLOOR), max(short_side, DEGENERATE_FLOOR),
        max(z_max - z_min, DEGENERATE_FLOOR), yaw,
    ]


def _box_line(box):
    return naive_format_label_line(ObjectLabel(*box, LabelClass.VEHICLE, 1.0))


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

    # (l_min, h_min, beta_min): near zero; the README's; and gates that keep
    # both classes and reject by each of the three reasons
    @pytest.mark.parametrize("gates", [(1e-12, 1e-12, 1e-12), (0.3, 0.5, 0.2), (1.5, 2.9, 0.5)],
                             ids=["open", "readme", "every-reason"])
    def test_every_box_matches_the_reference(self, gates):
        frame, clusters, exact = self._scene()
        l_min, h_min, beta_min = gates
        cfg = dataclasses.replace(CFG, l_min=l_min, h_min=h_min, beta_min=beta_min)
        rejects: list[RejectedBox] = []
        codes, values = label_rows(frame.xyz, clusters, cfg, 7, rejects.append)
        boxes = fit_boxes(frame.xyz, clusters).tolist()
        expected_labels, expected_rejects = [], []
        for cluster, got, is_exact in zip(clusters, boxes, exact):
            want = _naive_box(frame.xyz[cluster])
            if is_exact:
                assert got == want
            else:
                assert _box_line(got) == _box_line(want)
            cls, reason = naive_label_box(want[3], want[5], cfg)
            if cls is None:
                expected_rejects.append(RejectedBox(7, want[3], want[5], reason))
            else:
                expected_labels.append((want, cls, is_exact))
        assert rejects == expected_rejects
        assert [LABEL_CLASSES[code] for code in codes.tolist()] == [cls for _, cls, _ in expected_labels]
        assert values.shape == (len(expected_labels), 8)
        for row, (want, _, is_exact) in zip(values.tolist(), expected_labels):
            assert row[7] == 1.0
            if is_exact:
                assert row[:7] == want
            else:
                assert _box_line(row[:7]) == _box_line(want)
        assert annotate_frame(frame, clusters, cfg) == [ObjectLabel(*row[:7], LABEL_CLASSES[code], row[7])
                                                        for code, row in zip(codes.tolist(), values.tolist())]


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


def _cuboid(base, height):
    """The corners of an axis-aligned cuboid of base length ``base`` and height ``height``."""
    return _cuboid_corners(base, min(base, 0.5), height, center=(10.0, 5.0, height / 2))


def _gate(pts, **gates):
    """``annotate_frame`` on one cluster of all of ``pts`` under CFG with
    ``gates`` replaced: (its labels, its rejects)."""
    rejects: list[RejectedBox] = []
    labels = annotate_frame(_frame(pts), [np.arange(len(pts))], dataclasses.replace(CFG, **gates), rejects.append)
    return labels, rejects


class TestGates:
    @pytest.mark.parametrize("base, height, reason", [
        (0.2, 1.6, "base_length<l_min"),
        (2.0, 0.3, "height<h_min"),
        # |1.0 - 1.1| = 0.1 < beta_min 0.2: shape too ambiguous to classify
        (1.0, 1.1, "|base_length-height|<beta_min"),
    ])
    def test_each_reject_reason(self, base, height, reason):
        pts = _cuboid(base, height)
        _, _, _, length, _, fitted_height, _ = _fit(pts)
        assert _gate(pts) == ([], [RejectedBox(1, length, fitted_height, reason)])

    @pytest.mark.parametrize("base, height, gates, reason", [
        (0.1, 0.4, {}, "base_length<l_min"),  # l_min and h_min fail
        (0.2, 0.3, {"h_min": 0.1}, "base_length<l_min"),  # l_min and beta_min fail
        (0.6, 0.45, {}, "height<h_min"),  # h_min and beta_min fail
    ])
    def test_the_first_failing_gate_names_the_reason(self, base, height, gates, reason):
        pts = _cuboid(base, height)
        _, _, _, length, _, fitted_height, _ = _fit(pts)
        cfg = dataclasses.replace(CFG, **gates)
        failing = [length < cfg.l_min, fitted_height < cfg.h_min, abs(length - fitted_height) < cfg.beta_min]
        assert failing.count(True) == 2
        labels, rejects = _gate(pts, **gates)
        assert labels == [] and [r.reason for r in rejects] == [reason]

    @pytest.mark.parametrize("base, height, gates, cls", [
        (4.5, 1.6, {}, LabelClass.VEHICLE),
        (0.5, 1.7, {}, LabelClass.PEDESTRIAN),
        (1.5 + 1e-6, 1.5, {"beta_min": 1e-9}, LabelClass.VEHICLE),
        (1.5, 1.5 + 1e-6, {"beta_min": 1e-9}, LabelClass.PEDESTRIAN),
    ])
    def test_longer_than_tall_is_a_vehicle_and_taller_than_long_a_pedestrian(self, base, height, gates, cls):
        labels, rejects = _gate(_cuboid(base, height), **gates)
        assert rejects == []
        assert [lb.label_class for lb in labels] == [cls]

    @pytest.mark.parametrize("gate, reason", [
        ("l_min", "base_length<l_min"),
        ("h_min", "height<h_min"),
        ("beta_min", "|base_length-height|<beta_min"),
    ])
    def test_a_box_at_a_gate_passes_it_and_one_ulp_above_fails(self, gate, reason):
        pts = _cuboid(2.0, 1.0)
        _, _, _, length, _, height, _ = _fit(pts)
        value = {"l_min": length, "h_min": height, "beta_min": abs(length - height)}[gate]
        labels, rejects = _gate(pts, **{gate: value})
        assert len(labels) == 1 and rejects == []
        labels, rejects = _gate(pts, **{gate: float(np.nextafter(value, np.inf))})
        assert labels == [] and [r.reason for r in rejects] == [reason]


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
        low = _cuboid_corners(2.0, 1.0, 0.3, center=(25, 0, 0.15))
        short = _cuboid_corners(0.2, 0.2, 1.6, center=(35, 0, 0.8))
        pts = np.vstack([ped, low, veh, short])
        clusters = [np.arange(8), np.arange(8, 16), np.arange(16, 24), np.arange(24, 32)]
        rejects: list[RejectedBox] = []
        labels = annotate_frame(_frame(pts), clusters, CFG, rejects.append)
        assert [lb.label_class for lb in labels] == [LabelClass.PEDESTRIAN, LabelClass.VEHICLE]
        assert [r.reason for r in rejects] == ["height<h_min", "base_length<l_min"]
