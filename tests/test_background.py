"""Background histogram, tall-bin selection and the point filter."""

import tracemalloc

import numpy as np
import pytest

from roadlidar import background
from roadlidar.background import (
    build_histogram,
    extract_query_frames,
    BackgroundModel,
    DistanceHistogram,
    filter_frame,
    histogram_of_ranges,
    load_background_model,
    near_background,
    point_ranges,
    save_background_model,
    select_background,
    unpack_kept_frame,
)
from roadlidar.core import DataError, Frame, FrameSequence, SensorMeta
from roadlidar.simulate import (
    Actor,
    BoxObstacle,
    GroundPlane,
    MASK_BACKGROUND,
    MASK_FOREGROUND,
    SceneSpec,
    SensorModel,
    render_sequence,
)

from oracles import naive_filter, naive_histogram, naive_histogram_of_ranges, naive_select_tall

META = SensorMeta(2, 2)


def _removed(frame, model, d_threshold):
    return filter_frame(frame, model, d_threshold).padding & ~frame.padding


def _tall_distances(model, index):
    """Beam ``index``'s background ranges, without the NaN fill."""
    row = model.tall[index]
    return [float(v) for v in row[~np.isnan(row)]]


def _seq_from_arrays(arrays, paddings=None):
    frames = []
    for t, xyz in enumerate(arrays, start=1):
        xyz = np.asarray(xyz, dtype=np.float64)
        pad = np.zeros(len(xyz), dtype=bool) if paddings is None else paddings[t - 1].copy()
        xyz = xyz.copy()
        xyz[pad] = 0.0
        frames.append(Frame(t, xyz, pad))
    return FrameSequence(frames, META)


def _random_instance(rng, n_query_max=20, n_total_max=100, n_bin_max=8):
    n_query = int(rng.integers(1, n_query_max + 1))
    n_total = int(rng.integers(1, n_total_max + 1))
    n_bin = int(rng.integers(1, n_bin_max + 1))
    arrays, paddings = [], []
    for _ in range(n_query):
        xyz = rng.uniform(-30, 30, (n_total, 3))
        pad = rng.random(n_total) < 0.1
        xyz[pad] = 0.0
        arrays.append(xyz)
        paddings.append(pad)
    # a few beams frozen across frames to exercise the degenerate rule
    frozen = rng.random(n_total) < 0.15
    for xyz, pad in zip(arrays, paddings):
        xyz[frozen] = arrays[0][frozen]
        pad[frozen] = paddings[0][frozen]
        xyz[pad] = 0.0
    return _seq_from_arrays(arrays, paddings), n_bin


class TestExtractQueryFrames:
    def test_whole_sequence(self):
        seq = _seq_from_arrays([np.ones((2, 3))] * 4)
        out = extract_query_frames(seq, 4)
        assert len(out) == 4

    def test_first_frame_only(self):
        seq = _seq_from_arrays([np.full((2, 3), t) for t in range(1, 5)])
        out = extract_query_frames(seq, 1)
        assert len(out) == 1
        np.testing.assert_array_equal(out.frames[0].xyz, 1.0)

    def test_first_three_of_ten(self):
        seq = _seq_from_arrays([np.ones((2, 3))] * 10)
        out = extract_query_frames(seq, 3)
        assert [f.timestamp_index for f in out.frames] == [1, 2, 3]

    def test_too_many(self):
        seq = _seq_from_arrays([np.ones((2, 3))] * 3)
        with pytest.raises(DataError):
            extract_query_frames(seq, 4)


class TestBuildHistogram:
    def test_static_point_single_bin(self):
        pt = np.array([[3.0, 4.0, 0.0]])  # range 5
        seq = _seq_from_arrays([pt] * 6)
        hist = build_histogram(seq, n_bin=4)
        assert hist.bin_count[0].sum() == 6
        assert hist.bin_count[0, 0] == 6
        assert hist.bin_mean[0, 0] == pytest.approx(5.0, abs=1e-12)
        assert hist.d_max[0] == hist.d_min[0]

    def test_hand_binned_two_bins(self):
        # ranges {1, 1, 9, 9}, 2 bins of width 4: bin 0 mean 1 count 2, bin 1 mean 9 count 2
        arrays = [np.array([[d, 0.0, 0.0]]) for d in (1.0, 1.0, 9.0, 9.0)]
        hist = build_histogram(_seq_from_arrays(arrays), n_bin=2)
        assert (hist.d_max[0] - hist.d_min[0]) / 2 == pytest.approx(4.0)
        assert list(hist.bin_count[0]) == [2, 2]
        assert hist.bin_mean[0, 0] == pytest.approx(1.0)
        assert hist.bin_mean[0, 1] == pytest.approx(9.0)

    def test_max_range_lands_in_last_bin(self):
        arrays = [np.array([[d, 0.0, 0.0]]) for d in (1.0, 1.5, 3.0)]
        hist = build_histogram(_seq_from_arrays(arrays), n_bin=2)
        # range 3.0 equals d_max; must clamp into bin 1, not overflow
        assert list(hist.bin_count[0]) == [2, 1]
        assert hist.bin_mean[0, 1] == pytest.approx(3.0)

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            seq, n_bin = _random_instance(rng)
            hist = build_histogram(seq, n_bin)
            means, counts, d_mins, d_maxs, widths = naive_histogram(
                [f.xyz for f in seq.frames], [f.padding for f in seq.frames], n_bin
            )
            np.testing.assert_array_equal(hist.bin_count, np.array(counts))
            np.testing.assert_array_equal(hist.bin_mean, np.array(means))
            np.testing.assert_array_equal(hist.d_min, np.array(d_mins))
            np.testing.assert_array_equal(hist.d_max, np.array(d_maxs))
            np.testing.assert_array_equal((hist.d_max - hist.d_min) / n_bin, np.array(widths))

    @staticmethod
    def _assert_naive_ranges(columns, n_bin):
        """``histogram_of_ranges`` against the naive loop, bit for bit, with
        beam i's ranges in ``columns[i]`` (None where a frame has no data)."""
        frames = [list(row) for row in zip(*columns)]
        window = [(np.array([np.nan if r is None else r for r in row]), np.array([r is not None for r in row]))
                  for row in frames]
        kept = ["earlier"]
        hist = histogram_of_ranges(iter(window), len(columns), n_bin, kept)
        # the frames are appended to the caller's list, each its data mask
        # and data ranges; what the list held is left and not binned
        assert kept[0] == "earlier" and len(kept) == 1 + len(window)
        for (r, data), entry in zip(window, kept[1:]):
            full, mask = unpack_kept_frame(entry, len(columns))
            assert mask.tolist() == data.tolist() and full[data].tobytes() == r[data].tobytes()
        means, counts, d_mins, d_maxs, widths = naive_histogram_of_ranges(frames, n_bin)
        assert hist.bin_mean.tobytes() == np.array(means).tobytes()
        assert hist.bin_count.tolist() == counts
        assert hist.d_min.tobytes() == np.array(d_mins).tobytes()
        assert hist.d_max.tobytes() == np.array(d_maxs).tobytes()
        assert ((hist.d_max - hist.d_min) / n_bin).tobytes() == np.array(widths).tobytes()
        return hist, widths

    def test_degenerate_widths_match_naive_bit_for_bit(self):
        tiny = 5e-324  # the smallest subnormal
        columns = [
            [7.25, 7.25, 7.25],  # all ranges equal: width 0
            [0.0, tiny, None, tiny],  # d_max > d_min, but the width underflows to 0
            [1.0, 1.0 + 2.0**-52, 1.0],  # a width of one ulp over n_bin
            [0.0, 3 * tiny, 2 * tiny],  # a subnormal width that rounds up
            [1.1, 3.3, 2.0, 3.3],  # at n_bin 7, d_max is 7.000000000000001 widths out
            [0.2, 1.3, 1.3],  # and here 6.999999999999999
            [None, None, None],  # no data
        ]
        columns = [column + [None] * (4 - len(column)) for column in columns]
        for n_bin in (1, 2, 3, 4, 7, 10):
            hist, widths = self._assert_naive_ranges(columns, n_bin)
            assert hist.d_max[1] > hist.d_min[1] and (widths[1] == 0.0) == (n_bin > 1)
            assert hist.bin_count[:2, 0].tolist() == [3, 3]
            assert hist.bin_count[4:6, -1].tolist() == [2, 2] or n_bin == 1
        assert (3.3 - 1.1) / ((3.3 - 1.1) / 7) > 7 > (1.3 - 0.2) / ((1.3 - 0.2) / 7)

    def test_range_equal_to_d_max_matches_naive(self):
        # through point ranges as build_histogram computes them
        arrays = [np.array([[d, 0.0, 0.0], [3.0, 4.0, 0.0]]) for d in (0.1, 0.7, 0.3, 0.7)]
        seq = _seq_from_arrays(arrays)
        for n_bin in (1, 3, 7):
            hist = build_histogram(seq, n_bin)
            means, counts, *_ = naive_histogram([f.xyz for f in seq.frames], [f.padding for f in seq.frames], n_bin)
            assert hist.bin_mean.tobytes() == np.array(means).tobytes()
            assert hist.bin_count.tolist() == counts
            assert hist.bin_count[0, -1] == (4 if n_bin == 1 else 2) and hist.bin_count[1, 0] == 4

    def test_query_order_invariance(self):
        rng = np.random.default_rng(21)
        seq, n_bin = _random_instance(rng, n_query_max=12)
        hist = build_histogram(seq, n_bin)
        perm = rng.permutation(len(seq))
        arrays = [seq.frames[i].xyz for i in perm]
        pads = [seq.frames[i].padding for i in perm]
        hist_p = build_histogram(_seq_from_arrays(arrays, pads), n_bin)
        np.testing.assert_array_equal(hist.bin_count, hist_p.bin_count)
        np.testing.assert_allclose(hist.bin_mean, hist_p.bin_mean, rtol=0, atol=1e-12)
        model = select_background(hist, min(3, n_bin))
        model_p = select_background(hist_p, min(3, n_bin))
        np.testing.assert_allclose(model.tall, model_p.tall, rtol=0, atol=1e-12)

    def test_empty_query_unrepresentable(self):
        # an empty query set cannot even be constructed
        with pytest.raises(DataError, match="empty sequence"):
            FrameSequence([], META)

    def test_memory_stays_below_two_range_matrices(self):
        n_total, n_query = 20_000, 50
        rng = np.random.default_rng(22)
        arrays = [rng.uniform(-60, 60, (n_total, 3)) for _ in range(n_query)]
        paddings = [rng.random(n_total) < 0.2 for _ in range(n_query)]
        seq = _seq_from_arrays(arrays, paddings)
        del arrays
        tracemalloc.start()
        try:
            build_histogram(seq, n_bin=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (n_total, n_query) float64 array of ranges is 8 MB here.
        assert peak < 2 * n_total * n_query * 8


class TestSelectBackground:
    def test_fewer_occupied_than_n_tall(self):
        seq = _seq_from_arrays([np.array([[5.0, 0.0, 0.0]])] * 3)
        hist = build_histogram(seq, n_bin=4)
        model = select_background(hist, n_tall=3)
        assert _tall_distances(model, 0) == [pytest.approx(5.0)]

    def test_tie_breaks_toward_lower_bin(self):
        # counts {5, 2, 5} over bins {0, 1, 2}: top-2 are bins 0 then 2
        ds = [1.0] * 5 + [4.0] * 2 + [8.0, 8.0, 8.0, 8.0, 8.99]
        arrays = [np.array([[d, 0.0, 0.0]]) for d in ds]
        hist = build_histogram(_seq_from_arrays(arrays), n_bin=3)
        assert list(hist.bin_count[0]) == [5, 2, 5]
        model = select_background(hist, n_tall=2)
        tall = _tall_distances(model, 0)
        assert tall[0] == pytest.approx(1.0)
        assert tall[1] == pytest.approx(np.mean([8.0, 8.0, 8.0, 8.0, 8.99]))

    def test_n_tall_equals_n_bin_selects_all_occupied(self):
        ds = [1.0, 5.0, 9.0]
        arrays = [np.array([[d, 0.0, 0.0]]) for d in ds]
        hist = build_histogram(_seq_from_arrays(arrays), n_bin=3)
        model = select_background(hist, n_tall=3)
        assert len(_tall_distances(model, 0)) == 3

    def test_matches_naive_selection(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            seq, n_bin = _random_instance(rng)
            n_tall = int(rng.integers(1, n_bin + 1))
            hist = build_histogram(seq, n_bin)
            model = select_background(hist, n_tall)
            means, counts, *_ = naive_histogram(
                [f.xyz for f in seq.frames], [f.padding for f in seq.frames], n_bin
            )
            expected = naive_select_tall(means, counts, n_tall)
            for i in range(len(hist.bin_count)):
                assert _tall_distances(model, i) == expected[i]

    def test_ties_match_naive_selection(self):
        # counts from {0, 1, 2} tie often; a fifth of the beams hold no range
        rng = np.random.default_rng(23)
        n_total = 40
        zeros = np.zeros(n_total)
        for n_bin in range(1, 11):
            for n_tall in range(1, n_bin + 1):
                counts = rng.integers(0, 3, (n_total, n_bin))
                counts[rng.random(n_total) < 0.2] = 0
                means = np.where(counts > 0, rng.uniform(1.0, 60.0, counts.shape), 0.0)
                hist = DistanceHistogram(means, counts, zeros, zeros)
                tall = select_background(hist, n_tall).tall
                expected = naive_select_tall(means.tolist(), counts.tolist(), n_tall)
                for row, want in zip(tall, expected):
                    assert row[:len(want)].tolist() == want
                    assert np.isnan(row[len(want):]).all()

    def test_chunked_selection_matches_naive_and_leaves_the_histogram(self):
        # more beams than two chunks, the last chunk short
        rng = np.random.default_rng(24)
        n_total, n_bin, n_tall = 2 * background._SELECT_BEAMS + 37, 5, 3
        counts = rng.integers(0, 3, (n_total, n_bin))
        means = np.where(counts > 0, rng.uniform(1.0, 60.0, counts.shape), 0.0)
        hist = DistanceHistogram(means, counts.copy(), np.zeros(n_total), np.zeros(n_total))
        tall = select_background(hist, n_tall).tall
        for row, want in zip(tall, naive_select_tall(means.tolist(), counts.tolist(), n_tall)):
            assert row[:len(want)].tolist() == want
            assert np.isnan(row[len(want):]).all()
        # the selection marks its own copy of the counts, not the histogram's
        assert np.array_equal(hist.bin_count, counts)
        assert select_background(hist, n_tall).tall.tobytes() == tall.tobytes()

    def test_selection_holds_no_copy_of_all_the_counts(self):
        # The run keeps the query window through the selection, so next to
        # the model the selection may hold a chunk of beams' counts, not all.
        rng = np.random.default_rng(25)
        n_total, n_bin, n_tall = 40 * background._SELECT_BEAMS, 10, 3
        counts = rng.integers(0, 50, (n_total, n_bin)).astype(np.int32)
        hist = DistanceHistogram(rng.uniform(1.0, 60.0, counts.shape), counts, np.zeros(n_total), np.zeros(n_total))
        tracemalloc.start()
        try:
            select_background(hist, n_tall)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_total * n_tall + counts.nbytes / 4


class TestFilterFrame:
    def _model(self, seq, n_bin=4, n_tall=2):
        return select_background(build_histogram(seq, n_bin), n_tall)

    def test_exact_tall_distance_removed(self):
        seq = _seq_from_arrays([np.array([[5.0, 0.0, 0.0]])] * 4)
        model = self._model(seq)
        out = filter_frame(seq.frames[0], model, d_threshold=0.2)
        assert out.padding.all()

    def test_strict_exceedance_kept(self):
        seq = _seq_from_arrays([np.array([[5.0, 0.0, 0.0]])] * 4)
        model = self._model(seq)
        probe = Frame(1, np.array([[5.0 + 0.2 + 0.001, 0.0, 0.0]]), np.array([False]))
        out = filter_frame(probe, model, d_threshold=0.2)
        assert not out.padding.any()
        np.testing.assert_array_equal(out.xyz, probe.xyz)

    def test_arity_mismatch(self):
        seq = _seq_from_arrays([np.ones((3, 3))] * 2)
        model = self._model(seq)
        probe = Frame(1, np.ones((2, 3)), np.zeros(2, dtype=bool))
        with pytest.raises(DataError, match="arity"):
            filter_frame(probe, model, 0.1)

    def test_mask_rejects_single_point_frame_and_bad_threshold(self):
        # a 1-point frame would broadcast against every beam of the model
        seq = _seq_from_arrays([np.ones((3, 3))] * 2)
        model = self._model(seq)
        probe = Frame(1, np.ones((1, 3)), np.zeros(1, dtype=bool))
        with pytest.raises(DataError, match="arity"):
            filter_frame(probe, model, 0.1)
        with pytest.raises(DataError, match="d_threshold"):
            filter_frame(seq.frames[0], model, 0.0)

    def test_mask_rejects_nan_threshold(self):
        # NaN compares false with everything, so "d_threshold <= 0" let it
        # through, and no point was background
        seq = _seq_from_arrays([np.ones((3, 3))] * 2)
        model = self._model(seq)
        with pytest.raises(DataError, match="d_threshold must be positive, got nan"):
            filter_frame(seq.frames[0], model, float("nan"))

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            seq, n_bin = _random_instance(rng)
            n_tall = int(rng.integers(1, n_bin + 1))
            thr = float(rng.uniform(0.05, 5.0))
            hist = build_histogram(seq, n_bin)
            model = select_background(hist, n_tall)
            means, counts, *_ = naive_histogram(
                [f.xyz for f in seq.frames], [f.padding for f in seq.frames], n_bin
            )
            tall = naive_select_tall(means, counts, n_tall)
            for frame in seq.frames[: min(4, len(seq))]:
                got = filter_frame(frame, model, thr)
                removed = naive_filter(frame.xyz, frame.padding, tall, thr)
                expected_padding = frame.padding | np.array(removed)
                np.testing.assert_array_equal(got.padding, expected_padding)
                np.testing.assert_array_equal(got.xyz[expected_padding], 0.0)
                np.testing.assert_array_equal(got.xyz[~expected_padding], frame.xyz[~expected_padding])

    @staticmethod
    def _kernel_and_oracle(xyz, tall, d_threshold):
        """``near_background`` on data points, and ``naive_filter``'s decisions."""
        xyz = np.asarray(xyz, dtype=np.float64)
        model = BackgroundModel(tall=np.asarray(tall, dtype=np.float64))
        got = near_background(point_ranges(xyz), model, d_threshold)
        expected = naive_filter(xyz, np.zeros(len(xyz), dtype=bool), model.tall, d_threshold)
        return got.tolist(), expected

    def test_kernel_removes_a_point_exactly_on_the_boundary(self):
        # |5.0 - 5.25| == 0.25 exactly in binary, so the closed test holds;
        # a hair further out on either side it does not
        xyz = [[3.0, 4.0, 0.0], [0.0, 5.5, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 5.5]]
        tall = [[5.25], [5.25], [np.nextafter(5.25, 6.0)], [np.nextafter(5.25, 5.0)]]
        got, expected = self._kernel_and_oracle(xyz, tall, 0.25)
        assert got == expected == [True, True, False, False]

    def test_kernel_never_matches_a_nan_column(self):
        # rows with fewer occupied bins than n_tall = 3 are NaN beyond them; a
        # range close to zero would match a NaN read as 0
        xyz = [[5.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 9.0], [0.05, 0.0, 0.0]]
        nan = np.nan
        tall = [[5.0, nan, nan], [nan, nan, nan], [7.0, nan, nan], [2.0, 9.1, nan], [nan, nan, 0.0]]
        got, expected = self._kernel_and_oracle(xyz, tall, 0.25)
        assert got == expected == [True, False, False, True, True]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(24)
        seq, n_bin = _random_instance(rng)
        model = self._model(seq, n_bin, min(2, n_bin))
        frame = seq.frames[0]
        removed = [_removed(frame, model, t) for t in (0.1, 0.5, 2.0)]
        assert not (removed[0] & ~removed[1]).any()
        assert not (removed[1] & ~removed[2]).any()

    def test_n_tall_monotonicity(self):
        rng = np.random.default_rng(25)
        seq, n_bin = _random_instance(rng, n_bin_max=8)
        hist = build_histogram(seq, n_bin)
        frame = seq.frames[0]
        prev = None
        for n_tall in range(1, n_bin + 1):
            model = select_background(hist, n_tall)
            cur = _removed(frame, model, 0.5)
            if prev is not None:
                assert not (prev & ~cur).any()
            prev = cur


class TestModelSidecar:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        seq, n_bin = _random_instance(rng)
        model = select_background(build_histogram(seq, n_bin), min(3, n_bin))
        path = tmp_path / "bg.model"
        save_background_model(model, path)
        back = load_background_model(path)
        np.testing.assert_array_equal(
            np.isnan(model.tall), np.isnan(back.tall)
        )
        ok = ~np.isnan(model.tall)
        np.testing.assert_array_equal(model.tall[ok], back.tall[ok])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bg.model"
        path.write_bytes(b"nope" + b"\x00" * 32)
        with pytest.raises(DataError, match="not a background model"):
            load_background_model(path)


class TestSimulatedScene:
    def test_static_scene_annihilates(self):
        sensor = SensorModel(
            origin=(0, 0, 3.0), azimuth_deg=(-20, 20), azimuth_count=40,
            elevation_deg=(-20, -4), elevation_count=16, range_noise_sigma=0.0,
            max_range=60.0,
        )
        spec = SceneSpec(
            sensor=sensor,
            static=[GroundPlane(0.0), BoxObstacle((25.0, 0.0, 3.0), (1.0, 30.0, 6.0))],
            actors=[],
            duration=12,
            seed=1,
        )
        seq, masks, _ = render_sequence(spec)
        model = select_background(
            build_histogram(extract_query_frames(seq, 6), 10), 3
        )
        for thr in (1e-9, 0.01, 1.0):
            for frame in seq.frames:
                assert filter_frame(frame, model, thr).padding.all()

    def test_walls_and_moving_cube_fidelity(self):
        # static walls plus one cube crossing after the query window:
        # at least 95% of both classes separated correctly
        sensor = SensorModel(
            origin=(0, 0, 3.0), azimuth_deg=(-25, 25), azimuth_count=100,
            elevation_deg=(-22, -3), elevation_count=40,
            range_noise_sigma=0.01, max_range=70.0,
        )
        spec = SceneSpec(
            sensor=sensor,
            static=[GroundPlane(0.0), BoxObstacle((30.0, 0.0, 3.5), (1.0, 40.0, 7.0))],
            actors=[
                Actor(
                    shape="cuboid", dims=(2.0, 1.0, 1.4), speed=1.6, start_time=5.2,
                    waypoints=((12.0, -3.5), (12.0, 3.5), (15.0, 3.5), (15.0, -3.5)),
                )
            ],
            duration=100,
            seed=2,
        )
        seq, masks, _ = render_sequence(spec)
        model = select_background(
            build_histogram(extract_query_frames(seq, 50), 10), 3
        )
        bg_removed = bg_total = fg_kept = fg_total = 0
        for frame, mask in zip(seq.frames, masks):
            removed = _removed(frame, model, 0.2)
            bg = mask == MASK_BACKGROUND
            fg = mask == MASK_FOREGROUND
            bg_total += bg.sum()
            fg_total += fg.sum()
            bg_removed += (removed & bg).sum()
            fg_kept += (fg & ~removed).sum()
        assert fg_total > 0
        assert bg_removed / bg_total >= 0.95
        assert fg_kept / fg_total >= 0.95
