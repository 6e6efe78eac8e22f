"""Unit unification, padding, cropping and dataset alignment."""

import numpy as np
import pytest

from roadlidar.core import ConfigError, CropBounds, DataError, Frame, FrameSequence, SensorMeta
from roadlidar.preprocess import (
    UnificationTransform,
    crop_frame,
    pad_frame,
    unify_datasets,
    unify_units,
)


def _frame(xyz, t=1, padding=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    if padding is None:
        padding = np.zeros(len(xyz), dtype=bool)
    return Frame(t, xyz, padding)


def _seq(frames, unit_scale=1.0):
    meta = SensorMeta(2, 2, unit_scale)
    return FrameSequence(frames, meta)


class TestUnifyUnits:
    def test_identity_scale(self):
        seq = _seq([_frame([[1, 2, 3]])])
        assert unify_units(seq) is seq

    def test_centimeter_source(self):
        seq = _seq([_frame([[100.0, 0.0, 0.0]])], unit_scale=0.01)
        out = unify_units(seq)
        np.testing.assert_allclose(out.frames[0].xyz, [[1.0, 0.0, 0.0]])
        assert out.meta.unit_scale == 1.0

    def test_pairwise_distances_scale(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-10, 10, (40, 3))
        s = 0.3048  # feet to meters
        seq = _seq([_frame(pts)], unit_scale=s)
        out = unify_units(seq)
        before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        after = np.linalg.norm(
            out.frames[0].xyz[:, None] - out.frames[0].xyz[None, :], axis=-1
        )
        np.testing.assert_allclose(after, before * s, rtol=1e-12)

    def test_input_not_mutated(self):
        pts = np.array([[2.0, 0.0, 0.0]])
        seq = _seq([_frame(pts)], unit_scale=2.0)
        unify_units(seq)
        np.testing.assert_array_equal(seq.frames[0].xyz, pts)


class TestPadFrame:
    def test_exact_fit_unchanged(self):
        f = _frame(np.ones((5, 3)))
        assert pad_frame(f, 5) is f

    def test_padding_appended(self):
        f = _frame([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
        out = pad_frame(f, 5)
        assert out.n_points == 5
        assert list(out.padding) == [False, False, False, True, True]
        np.testing.assert_array_equal(out.xyz[3:], 0.0)
        np.testing.assert_array_equal(out.xyz[:3], f.xyz)

    def test_oversized_frame_rejected(self):
        f = _frame(np.ones((6, 3)))
        with pytest.raises(DataError, match="exceeds N_total"):
            pad_frame(f, 5)

    def test_sensor_resolution_exact_fit(self):
        # a 1024x64 unit returning every beam pads nothing at matching arity
        n = 1024 * 64
        f = _frame(np.ones((n, 3)))
        assert pad_frame(f, n) is f


BOUNDS = CropBounds(-5, 5, -5, 5, -5, 5)


class TestCropFrame:
    def test_all_inside_unchanged(self):
        f = _frame([[0, 0, 0.5], [4.9, -4.9, 1]])
        assert crop_frame(f, BOUNDS) is f

    def test_boundary_point_kept(self):
        f = _frame([[-5.0, -5.0, -5.0], [5.0, 5.0, 5.0]])
        out = crop_frame(f, BOUNDS)
        assert not out.padding.any()

    def test_outside_becomes_padding_in_place(self):
        f = _frame([[0, 0, 1], [9, 0, 0], [0, 0, 2]])
        out = crop_frame(f, BOUNDS)
        assert list(out.padding) == [False, True, False]
        assert out.n_points == 3
        np.testing.assert_array_equal(out.xyz[1], 0.0)

    def test_monte_carlo_volume_ratio(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-10, 10, (100_000, 3))
        out = crop_frame(_frame(pts), BOUNDS)
        kept = 1.0 - out.padding.mean()
        assert abs(kept - 0.125) < 0.02

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        f = _frame(rng.uniform(-10, 10, (500, 3)))
        once = crop_frame(f, BOUNDS)
        twice = crop_frame(once, BOUNDS)
        np.testing.assert_array_equal(once.xyz, twice.xyz)
        np.testing.assert_array_equal(once.padding, twice.padding)

    def test_padding_never_revived(self):
        f = _frame([[0.0, 0.0, 0.0]], padding=np.array([True]))
        out = crop_frame(f, BOUNDS)
        assert out.padding.all()

    def test_commutes_with_padding_and_scaling(self):
        pts = np.array([[200.0, 0.0, 0.0], [100.0, 100.0, 0.0]])
        a = unify_units(_seq([pad_frame(_frame(pts), 4)], unit_scale=0.01)).frames[0]
        b = pad_frame(unify_units(_seq([_frame(pts)], unit_scale=0.01)).frames[0], 4)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        np.testing.assert_array_equal(a.padding, b.padding)


class TestUnifyDatasets:
    def test_identity(self):
        seq = _seq([_frame([[1, 2, 3]])])
        (out,) = unify_datasets([seq], [UnificationTransform()])
        assert out is seq

    def test_translation_moves_centroid(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-2, 2, (50, 3))
        seq = _seq([_frame(pts)])
        (out,) = unify_datasets([seq], [UnificationTransform(translation=(-5.0, 0.0, 0.0))])
        np.testing.assert_allclose(
            out.frames[0].xyz.mean(axis=0), pts.mean(axis=0) + [-5, 0, 0], atol=1e-12
        )

    def test_scale_doubles_aabb(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, (60, 3))
        seq = _seq([_frame(pts)])
        (out,) = unify_datasets([seq], [UnificationTransform(scale=2.0)])
        before = pts.max(axis=0) - pts.min(axis=0)
        after = out.frames[0].xyz.max(axis=0) - out.frames[0].xyz.min(axis=0)
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-12)

    def test_padding_untouched(self):
        f = _frame([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], padding=np.array([False, True]))
        seq = _seq([f])
        (out,) = unify_datasets([seq], [UnificationTransform(translation=(7.0, 0.0, 0.0))])
        np.testing.assert_array_equal(out.frames[0].xyz[1], 0.0)
        assert out.frames[0].padding[1]

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_non_positive_scale_is_config_error(self, scale):
        with pytest.raises(ConfigError, match="scale"):
            UnificationTransform(scale=scale)

    def test_length_mismatch(self):
        seq = _seq([_frame([[1, 2, 3]])])
        with pytest.raises(Exception, match="mismatch"):
            unify_datasets([seq], [])

    def test_distance_ratios_preserved(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-4, 4, (30, 3))
        seq = _seq([_frame(pts)])
        (out,) = unify_datasets(
            [seq], [UnificationTransform(translation=(3.0, -2.0, 1.0), scale=1.7)]
        )
        before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        after = np.linalg.norm(
            out.frames[0].xyz[:, None] - out.frames[0].xyz[None, :], axis=-1
        )
        nz = before > 0
        ratios = after[nz] / before[nz]
        np.testing.assert_allclose(ratios, 1.7, rtol=1e-10)
