"""DBSCAN determinism and brute-force oracle equivalence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from roadlidar.clustering import (
    NOISE,
    _axis_table_fits,
    _block_pairs,
    _compress_axis,
    _grid,
    _join,
    _table_fits,
    _window_search,
    _window_table,
    dbscan,
    dbscan_labels,
)
from roadlidar.core import DataError, Frame

from oracles import brute_dbscan, canonical_partition, naive_block_pairs, pairs_dbscan


def _frame(pts, padding=None):
    pts = np.asarray(pts, dtype=np.float64)
    if padding is None:
        padding = np.zeros(len(pts), dtype=bool)
    return Frame(1, pts, padding)


def _ball(center, n, radius, rng):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.random((n, 1)) ** (1 / 3)
    return np.asarray(center) + v * r


class TestDbscanBasics:
    def test_tight_ball_is_one_cluster(self):
        rng = np.random.default_rng(0)
        pts = _ball([1, 1, 1], 10, 0.05, rng)
        clusters, noise = dbscan(_frame(pts), epsilon=0.5, min_pts=4)
        assert len(clusters) == 1
        assert len(clusters[0]) == 10
        assert len(noise) == 0

    def test_two_balls_and_isolated_points(self):
        rng = np.random.default_rng(1)
        pts = np.vstack(
            [
                _ball([0, 0, 0], 10, 0.2, rng),
                _ball([10, 0, 0], 10, 0.2, rng),
                np.array([[0, 5, 0], [5, 5, 0], [0, -5, 0], [-5, 0, 0], [5, -5, 5]], dtype=float),
            ]
        )
        frame = _frame(pts)
        clusters, noise = dbscan(frame, epsilon=0.5, min_pts=4)
        assert len(clusters) == 2
        assert len(noise) == 5
        labels = brute_dbscan(pts, 0.5, 4)
        got = dbscan_labels(pts, 0.5, 4)
        assert canonical_partition(got) == canonical_partition(labels)

    def test_min_pts_one_no_noise(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-10, 10, (30, 3))
        clusters, noise = dbscan(_frame(pts), epsilon=0.3, min_pts=1)
        assert len(noise) == 0
        assert sum(len(c) for c in clusters) == 30

    def test_padding_excluded(self):
        pts = np.vstack([_ball([0, 0, 0], 8, 0.1, np.random.default_rng(3)), [[0.0, 0.0, 0.0]]])
        padding = np.zeros(9, dtype=bool)
        padding[8] = True
        clusters, noise = dbscan(_frame(pts, padding), epsilon=0.5, min_pts=4)
        covered = set()
        for c in clusters:
            covered |= set(c.tolist())
        covered |= set(noise.tolist())
        assert 8 not in covered
        assert covered == set(range(8))

    def test_invalid_params(self):
        f = _frame(np.zeros((1, 3)) + 1.0)
        with pytest.raises(DataError):
            dbscan(f, epsilon=0.0, min_pts=3)
        with pytest.raises(DataError):
            dbscan(f, epsilon=0.5, min_pts=0)

    def test_nan_epsilon_rejected(self):
        # NaN compares false with everything, so "epsilon <= 0" let it through
        f = _frame(np.arange(150.0).reshape(50, 3))
        with pytest.raises(DataError, match="epsilon must be positive, got nan"):
            dbscan(f, epsilon=float("nan"), min_pts=5)


class TestDbscanProperties:
    def test_partition_covers_all_points(self):
        rng = np.random.default_rng(4)
        few = rng.uniform(-5, 5, (200, 3))
        # 3,375 tight clumps on a grid, with scattered points and padding
        grid = _lattice(2.0, side=15).repeat(5, axis=0) + rng.normal(0, 0.05, (15**3 * 5, 3))
        many = np.vstack([grid, rng.uniform(0, 28, (2000, 3))])[rng.permutation(len(grid) + 2000)]
        frames = [_frame(few), _frame(many, rng.random(len(many)) < 0.05)]
        for frame in frames:
            clusters, noise = dbscan(frame, epsilon=0.8, min_pts=4)
            active = np.flatnonzero(~frame.padding)
            indices = [i for c in clusters for i in c.tolist()] + noise.tolist()
            assert sorted(indices) == active.tolist()  # disjoint and complete
            # each cluster holds its frame indices in ascending order, in label order
            labels = dbscan_labels(frame.xyz[active], 0.8, 4)
            assert len(clusters) == labels.max() + 1
            for cid, cluster in enumerate(clusters):
                np.testing.assert_array_equal(cluster, active[labels == cid])
            np.testing.assert_array_equal(noise, active[labels == NOISE])
        assert len(clusters) > 2500

    def test_oracle_equivalence_random_frames(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(2, 300))
            # mix of clumps and scatter so all code paths fire
            clumps = [
                _ball(rng.uniform(-8, 8, 3), int(rng.integers(3, 25)), 0.4, rng)
                for _ in range(int(rng.integers(1, 5)))
            ]
            pts = np.vstack(clumps + [rng.uniform(-8, 8, (n, 3))])
            eps = float(rng.uniform(0.2, 1.2))
            min_pts = int(rng.integers(1, 8))
            got = dbscan_labels(pts, eps, min_pts)
            want = brute_dbscan(pts, eps, min_pts)
            np.testing.assert_array_equal(got, want)  # identical labels, not just partitions

    def test_oracle_equivalence_dense_random_frames(self):
        # clumps and scatter in a box a few epsilon wide: every trial's cell
        # codes fit the direct table (the wide frames above mostly do not)
        rng = np.random.default_rng(9)
        for trial in range(20):
            eps = float(rng.uniform(0.2, 1.2))
            clumps = [
                _ball(rng.uniform(-2, 2, 3) * eps, int(rng.integers(3, 25)), 0.6 * eps, rng)
                for _ in range(int(rng.integers(1, 5)))
            ]
            pts = np.vstack(clumps + [rng.uniform(-2, 2, (int(rng.integers(20, 300)), 3)) * eps])
            assert _table_fits(_grid(pts, eps)[1], len(pts))
            min_pts = int(rng.integers(1, 8))
            np.testing.assert_array_equal(dbscan_labels(pts, eps, min_pts), brute_dbscan(pts, eps, min_pts))

    def test_core_set_independent_of_input_order(self):
        rng = np.random.default_rng(6)
        pts = np.vstack([_ball([0, 0, 0], 20, 0.5, rng), rng.uniform(-5, 5, (50, 3))])
        eps, min_pts = 0.6, 5

        def cores(p):
            labels = dbscan_labels(p, eps, min_pts)
            return {
                tuple(np.round(p[i], 9))
                for i in range(len(p))
                if np.sum(np.sum((p - p[i]) ** 2, axis=1) <= eps * eps) >= min_pts
                and labels[i] >= 0
            }

        perm = rng.permutation(len(pts))
        assert cores(pts) == cores(pts[perm])

    def test_scale_covariance_power_of_two(self):
        # powers of two keep the squared-distance comparisons bit-exact
        rng = np.random.default_rng(7)
        pts = rng.uniform(-4, 4, (150, 3))
        eps, min_pts = 0.7, 4
        base = dbscan_labels(pts, eps, min_pts)
        for s in (0.5, 2.0, 8.0):
            scaled = dbscan_labels(pts * s, eps * s, min_pts)
            np.testing.assert_array_equal(base, scaled)

    def test_cluster_size_at_least_min_pts(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-6, 6, (300, 3))
        clusters, _ = dbscan(_frame(pts), epsilon=0.9, min_pts=5)
        assert all(len(c) >= 5 for c in clusters)


def _lattice(spacing, side=6):
    g = np.arange(side) * spacing
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def _cell_corner(epsilon):
    """Largest coordinate that still falls in cell 0 (cells have side eps/sqrt(3))."""
    side = epsilon / np.sqrt(3.0)
    x = side
    while np.floor(x / side) >= 1:
        x = np.nextafter(x, 0.0)
    return x


class TestCellEdgeCases:
    """Inputs that put distances exactly at epsilon, on cell faces and at cell bounds."""

    def _assert_brute(self, pts, eps, min_pts):
        np.testing.assert_array_equal(dbscan_labels(pts, eps, min_pts), brute_dbscan(pts, eps, min_pts))

    @pytest.mark.parametrize("eps", [1.0, 0.7, 0.3, 0.02])
    @pytest.mark.parametrize("spacing", ["eps", "half_root3", "side"])
    def test_lattices_with_pairs_at_epsilon(self, eps, spacing):
        # spacing eps: face neighbours at exactly eps; eps*sqrt(3)/2: the
        # (2, 2, 2) cell offset holds the body diagonal at eps; eps/sqrt(3):
        # one point per cell, on the cell faces
        step = {"eps": eps, "half_root3": eps * math.sqrt(3) / 2, "side": eps / math.sqrt(3)}[spacing]
        rng = np.random.default_rng(31)
        pts = _lattice(step)
        pts = pts[rng.permutation(len(pts))][:150]
        for min_pts in (1, 2, 3, 5, 7, 9, 27):
            self._assert_brute(pts, eps, min_pts)

    @pytest.mark.parametrize("eps", [0.43, 0.5])
    def test_cell_extent_at_and_past_epsilon(self, eps):
        # the 8 corners of the largest box inside one cell: at eps 0.43 its
        # float diagonal exceeds eps_sq (the cell is not dense however full),
        # at 0.5 it equals eps_sq (the opposite corners are neighbours)
        x = _cell_corner(eps)
        diag = x * x + x * x + x * x  # summed as the distance test sums
        assert (diag > eps * eps) if eps == 0.43 else (diag == eps * eps)
        corners = _lattice(x, side=2)
        pts = np.vstack([corners, corners + [4 * eps, 0.0, 0.0], [[x + 0.3 * eps, 0.0, 0.0]]])
        for min_pts in range(1, 11):
            self._assert_brute(pts, eps, min_pts)
        labels = dbscan_labels(corners, eps, 8)
        assert (labels == (0 if eps == 0.5 else NOISE)).all()

    def test_cell_with_exactly_min_pts_points(self):
        eps = 1.0
        cell = np.array([[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.1, 0.2, 0.1], [0.1, 0.1, 0.2]])
        border = [[0.9, 0.1, 0.1]]  # next cell, within eps of all four
        noise = [[5.0, 5.0, 5.0]]
        pts = np.vstack([noise, cell, border])
        for min_pts in (4, 5, 6):
            self._assert_brute(pts, eps, min_pts)
        np.testing.assert_array_equal(dbscan_labels(pts, eps, 4), [NOISE, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(dbscan_labels(pts, eps, 6), [NOISE] * 6)

    def test_all_noise_and_single_point(self):
        far = np.arange(20, dtype=float)[:, None] * [3.0, 0.0, 0.0]
        np.testing.assert_array_equal(dbscan_labels(far, 1.0, 2), np.full(20, NOISE))
        self._assert_brute(far, 1.0, 2)
        one = np.array([[1.5, -2.0, 0.25]])
        np.testing.assert_array_equal(dbscan_labels(one, 0.7, 1), [0])
        np.testing.assert_array_equal(dbscan_labels(one, 0.7, 2), [NOISE])
        assert dbscan_labels(np.empty((0, 3)), 0.7, 2).shape == (0,)

    @pytest.mark.parametrize("distance", [1e6, 1e9])
    def test_far_apart_clumps_small_epsilon(self, distance):
        # cell keys near distance / (eps / sqrt(3)): far past int64 if cubed
        rng = np.random.default_rng(33)
        pts = np.vstack([
            _ball([0, 0, 0], 15, 0.01, rng),
            _ball([distance, -distance, distance], 15, 0.01, rng),
            _ball([-distance, 0, 0.5 * distance], 3, 0.01, rng),
        ])
        labels = dbscan_labels(pts, 0.02, 4)
        np.testing.assert_array_equal(labels, brute_dbscan(pts, 0.02, 4))
        np.testing.assert_array_equal(labels, [0] * 15 + [1] * 15 + [NOISE] * 3)

    def test_input_permutation(self):
        rng = np.random.default_rng(34)
        pts = np.vstack([
            _ball([0, 0, 0], 30, 0.6, rng),
            _ball([1.3, 0, 0], 30, 0.6, rng),
            rng.uniform(-3, 3, (80, 3)),
        ])
        base = dbscan_labels(pts, 0.5, 4)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(pts))
            got = dbscan_labels(pts[perm], 0.5, 4)
            np.testing.assert_array_equal(got, brute_dbscan(pts[perm], 0.5, 4))
            core = np.array([
                np.sum(np.sum((pts - q) ** 2, axis=1) <= 0.25) >= 4 for q in pts
            ])
            # core points keep their cluster up to renumbering
            assert canonical_partition(np.where(core, base, NOISE)) == canonical_partition(
                np.where(core[perm], got, NOISE)[np.argsort(perm)]
            )

    @given(
        coords=st.lists(
            st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=60
        ),
        eps=st.sampled_from([1.0, 2.0, 3.0, math.sqrt(2.0), math.sqrt(3.0), 1.5]),
        scale=st.sampled_from([1.0, 0.5, 0.1]),
        min_pts=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_lattice_ties_match_brute_force(self, coords, eps, scale, min_pts):
        pts = np.array(coords, dtype=np.float64) * scale
        self._assert_brute(pts, eps * scale, min_pts)


def _components(n, i, j):
    graph = csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _shuffled_path(n, rng):
    """A path through n nodes, its nodes and its edges in random order."""
    perm = rng.permutation(n)
    edges = rng.permutation(n - 1)
    return perm[:-1][edges], perm[1:][edges]


def _graphs():
    """(n, i, j): empty, random with self-loops and duplicates, paths and stars."""
    rng = np.random.default_rng(41)
    none = np.empty(0, dtype=np.int64)
    yield 1, none, none
    yield 50, none, none
    for _ in range(30):
        n = int(rng.integers(1, 400))
        m = int(rng.integers(0, 2 * n))
        i, j = rng.integers(0, n, m), rng.integers(0, n, m)
        loops = rng.integers(0, n, m // 4 + 1)
        again = rng.integers(0, m, m // 3) if m else none
        yield n, np.concatenate((i, loops, j[again])), np.concatenate((j, loops, i[again]))
    n = 20_000
    yield n, *_shuffled_path(n, rng)
    yield n, np.arange(1, n), np.arange(n - 1)  # a path in ascending order
    leaves = np.arange(n - 1)
    yield n, np.full(n - 1, n - 1), leaves  # a star whose centre is the largest node
    yield n, leaves[::-1], np.full(n - 1, n - 1)


class TestJoin:
    @pytest.mark.parametrize("graph", list(_graphs()), ids=lambda g: f"n{g[0]}_m{len(g[1])}")
    def test_matches_connected_components(self, graph):
        n, i, j = graph
        comp = np.arange(n)
        _join(comp, i, j)
        want = _components(n, i, j)
        assert canonical_partition(np.unique(comp, return_inverse=True)[1]) == canonical_partition(want)
        # every node points at its root, the smallest index of its component
        _, smallest = np.unique(want, return_index=True)
        np.testing.assert_array_equal(comp, smallest[want])

    def test_starting_from_stars_matches_connected_components(self):
        # the forest dbscan_labels starts from: random groups of nodes, each a
        # star on its smallest node, then random edges between any nodes
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = int(rng.integers(2, 500))
            group = rng.integers(0, int(rng.integers(1, n + 1)), n)
            smallest = np.full(n, n)
            np.minimum.at(smallest, group, np.arange(n))
            comp = smallest[group]
            m = int(rng.integers(0, n))
            i, j = rng.integers(0, n, m), rng.integers(0, n, m)
            _join(comp, i, j)
            want = _components(n, np.concatenate((i, np.arange(n))), np.concatenate((j, smallest[group])))
            _, first = np.unique(want, return_index=True)
            np.testing.assert_array_equal(comp, first[want])

    def test_joining_in_batches_matches_one_batch(self):
        n = 20_000
        i, j = _shuffled_path(n, np.random.default_rng(44))
        whole = np.arange(n)
        _join(whole, i, j)
        batches = np.arange(n)
        for part in np.array_split(np.arange(len(i)), 3):
            _join(batches, i[part], j[part])
        np.testing.assert_array_equal(batches, whole)


def _shuffled_line(spacing):
    x = np.arange(20_000) * spacing
    return np.c_[x, np.zeros_like(x), np.zeros_like(x)][np.random.default_rng(42).permutation(len(x))]


def _shuffled_spiral():
    """Ten turns 2 m apart, points at most 0.12 m apart along the arc."""
    t = np.linspace(0.0, 20 * np.pi, 12_000)
    r = 2.0 + t / np.pi
    return np.c_[r * np.cos(t), r * np.sin(t), np.zeros_like(t)][np.random.default_rng(43).permutation(len(t))]


class TestLongChains:
    """One cluster reached only through long chains, in shuffled input order."""

    @pytest.mark.parametrize("spacing, min_pts", [(0.5, 3), (0.1, 3)])
    def test_shuffled_line(self, spacing, min_pts):
        # at 0.5 every cell holds one point; at 0.1 dense cells join by witnesses
        pts = _shuffled_line(spacing)
        labels = dbscan_labels(pts, 0.7, min_pts)
        np.testing.assert_array_equal(labels, pairs_dbscan(pts, 0.7, min_pts))
        assert (labels == 0).all()

    def test_shuffled_spiral(self):
        pts = _shuffled_spiral()
        labels = dbscan_labels(pts, 0.7, 4)
        np.testing.assert_array_equal(labels, pairs_dbscan(pts, 0.7, 4))
        assert (labels == 0).all()


def _window_clouds():
    """(name, points, epsilon) of clouds whose cell codes fit the direct table."""
    rng = np.random.default_rng(52)
    for eps in (1.0, 0.3):
        for name, step in (("eps", eps), ("half_root3", eps * math.sqrt(3) / 2), ("side", eps / math.sqrt(3))):
            yield f"lattice-{name}-{eps}", _lattice(step), eps
    for spacing in (0.5, 0.1):
        yield f"line-{spacing}", _shuffled_line(spacing), 0.7
    yield "uniform", rng.uniform(0, 5, (2000, 3)), 0.7
    yield "clumps", np.vstack([_ball(rng.uniform(-2, 2, 3), 60, 0.5, rng) for _ in range(20)]), 0.7


class TestWindowLookups:
    """The direct table and the binary search find the same window cells."""

    @pytest.mark.parametrize("cloud", list(_window_clouds()), ids=lambda c: c[0])
    def test_table_and_search_agree(self, cloud):
        _, pts, eps = cloud
        (cx, cy, cz), shape = _grid(pts, eps)
        assert _table_fits(shape, len(pts))
        _, ry, rz = shape
        columns, column = np.unique(cx * ry + cy, return_inverse=True)
        table = _window_table(np.unique((cx * ry + cy) * rz + cz), shape)
        search = _window_search(np.unique(column * rz + cz), columns, ry, rz)
        for got, want in zip(table, search):
            np.testing.assert_array_equal(got, want)
        assert len(table[0]) > 0

    def test_existing_reference_clouds_take_the_table(self):
        # the lattice, long-chain and spiral tests above run the table path
        for eps in (1.0, 0.7, 0.3, 0.02):
            for step in (eps, eps * math.sqrt(3) / 2, eps / math.sqrt(3)):
                pts = _lattice(step)[np.random.default_rng(31).permutation(216)][:150]
                assert _table_fits(_grid(pts, eps)[1], len(pts))
        for spacing in (0.5, 0.1):
            assert _table_fits(_grid(_shuffled_line(spacing), 0.7)[1], 20_000)
        assert _table_fits(_grid(_shuffled_spiral(), 0.7)[1], 12_000)

    def test_far_scattered_cloud_takes_the_search(self):
        # clumps 10 epsilon apart on a 3D diagonal: the occupied keys of every
        # axis spread with the clump count, so the code range grows as its cube
        eps = 0.7
        rng = np.random.default_rng(53)
        centers = np.arange(40)[:, None] * (10 * eps / math.sqrt(3)) * np.ones(3)
        pts = np.vstack([_ball(c, int(rng.integers(1, 9)), 0.5 * eps, rng) for c in centers])
        pts = pts[rng.permutation(len(pts))]
        assert not _table_fits(_grid(pts, eps)[1], len(pts))
        for min_pts in (1, 3, 5):
            np.testing.assert_array_equal(dbscan_labels(pts, eps, min_pts), brute_dbscan(pts, eps, min_pts))


class TestBlockPairs:
    """``_block_pairs`` lists exactly the nested-loop pairs, in their order."""

    def _assert_naive(self, a_start, a_size, b_start, b_size):
        got = _block_pairs(a_start, a_size, b_start, b_size)
        want = naive_block_pairs(a_start, a_size, b_start, b_size)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_seeded_blocks(self):
        rng = np.random.default_rng(54)
        sizes = []
        for _ in range(60):
            k = int(rng.integers(0, 15))
            a_size, b_size = rng.integers(0, 7, k), rng.integers(0, 7, k)
            self._assert_naive(rng.integers(0, 500, k), a_size, rng.integers(0, 500, k), b_size)
            sizes += [*a_size, *b_size]
        assert {0, 1} <= set(sizes)

    def test_no_blocks_empty_blocks_and_single_points(self):
        none = np.empty(0, dtype=np.int64)
        self._assert_naive(none, none, none, none)
        self._assert_naive(np.array([3, 7]), np.array([0, 2]), np.array([5, 0]), np.array([4, 0]))
        ones = np.ones(4, dtype=np.int64)
        self._assert_naive(np.array([9, 0, 4, 4]), ones, np.array([1, 2, 3, 6]), np.array([3, 1, 0, 2]))


def _naive_compress_axis(keys):
    """Each key's rank among the distinct keys, spaced by their gaps clipped
    to 3 and starting at 2, and the last coordinate plus 3."""
    values = sorted(set(keys.tolist()))
    coords = [2]
    for low, high in zip(values, values[1:]):
        coords.append(coords[-1] + min(high - low, 3))
    at = dict(zip(values, coords))
    return [at[k] for k in keys.tolist()], coords[-1] + 3


class TestCompressAxis:
    """Both ways of compressing an axis give the naive coordinates, and the
    labels of clouds that take each way equal ``brute_dbscan``'s."""

    @pytest.mark.parametrize("spread", [1, 40, 4000, 2**40, 2**53 - 1])
    def test_matches_naive_ranks(self, spread):
        rng = np.random.default_rng(60)
        for n in (1, 2, 7, 300):
            keys = rng.integers(-spread, spread, n, endpoint=True)
            keys[: n // 3] = keys[n // 2]  # repeated keys
            got, top = _compress_axis(keys)
            assert (got.tolist(), top) == _naive_compress_axis(keys)
            assert got.dtype == np.int64

    def test_spans_at_the_bound(self):
        n = 10
        bound = 4 * n + 1024
        assert _axis_table_fits(bound, n) and not _axis_table_fits(bound + 1, n)
        for span in (bound, bound + 1):
            keys = np.array([-7] * (n - 1) + [-7 + span - 1])
            assert _compress_axis(keys)[0].tolist() == [2] * (n - 1) + [5]

    @staticmethod
    def _spans(pts, eps):
        keys = np.floor(pts / (eps / np.sqrt(3.0)))
        return [int(keys[:, axis].max() - keys[:, axis].min()) + 1 for axis in range(3)]

    def test_far_scattered_axis_takes_unique(self):
        # clumps far apart on x only: x spans far more keys than the table
        # allows, y and z fit it
        eps = 0.7
        rng = np.random.default_rng(61)
        clumps = [_ball((k * 50 * eps, 0.0, 0.0), int(rng.integers(1, 9)), 0.6 * eps, rng)
                  for k in range(60)]
        pts = np.vstack(clumps + [rng.uniform(0, 3000 * eps, (40, 1)) * [1, 0, 0] + rng.normal(0, eps, (40, 3))])
        pts = pts[rng.permutation(len(pts))]
        fits = [_axis_table_fits(span, len(pts)) for span in self._spans(pts, eps)]
        assert fits == [False, True, True]
        for min_pts in (1, 3, 5):
            np.testing.assert_array_equal(dbscan_labels(pts, eps, min_pts), brute_dbscan(pts, eps, min_pts))

    def test_compact_cloud_takes_the_table(self):
        eps = 0.7
        rng = np.random.default_rng(62)
        pts = np.vstack([_ball(rng.uniform(-6, 6, 3), 30, 0.8, rng) for _ in range(12)]
                        + [rng.uniform(-6, 6, (150, 3))])
        assert all(_axis_table_fits(span, len(pts)) for span in self._spans(pts, eps))
        for min_pts in (1, 4, 8):
            np.testing.assert_array_equal(dbscan_labels(pts, eps, min_pts), brute_dbscan(pts, eps, min_pts))


class TestGridLimits:
    """A cell key must stay within +-2**53, where float64 holds every integer."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_key_of_2_53_is_data_error(self, sign):
        eps = math.sqrt(3.0)  # a cell side of exactly 1.0
        assert eps / np.sqrt(3.0) == 1.0
        inside = np.array([[0.0, 0.0, 0.0], [sign * (2.0**53 - 1), 0.0, 0.0]])
        assert dbscan_labels(inside, eps, 1).tolist() == [0, 1]
        outside = inside.copy()
        outside[1, 2] = sign * 2.0**53
        with pytest.raises(DataError, match=r"2\*\*53 or more cells"):
            dbscan_labels(outside, eps, 1)

    def test_key_past_float64_is_data_error_without_warnings(self):
        pts = np.array([[1e300, 0.0, 0.0], [0.0, -1e300, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"epsilon 1e-10"):
                dbscan_labels(pts, 1e-10, 1)
            with pytest.raises(DataError, match=r"2\*\*53 or more cells"):
                dbscan(_frame(pts), 1e-10, 1)


class TestFirstJoin:
    """The stars, the one-way core pairs, the ring-1 witnesses and the
    numbering of the first join, on clouds built to reach each of them."""

    def test_roots_sparse_and_out_of_cell_order(self):
        # eight clumps along x; each clump's smallest input index comes in an
        # order unrelated to x, and noise points fill the indices between
        rng = np.random.default_rng(63)
        clumps = [_ball((3.0 * k, 0.0, 0.0), 12, 0.3, rng) for k in range(8)]
        noise = rng.uniform(-50, 50, (1500, 3)) + [0.0, 0.0, 200.0]
        pts = np.vstack(clumps + [noise])
        order = rng.permutation(len(pts))
        pts = pts[order]
        labels = dbscan_labels(pts, 0.7, 4)
        np.testing.assert_array_equal(labels, brute_dbscan(pts, 0.7, 4))
        roots = [int(np.flatnonzero(labels == c)[0]) for c in range(labels.max() + 1)]
        by_x = sorted(roots, key=lambda r: pts[r, 0])
        assert len(roots) == 8
        assert by_x != roots and roots == sorted(roots)
        assert min(np.diff(roots)) > 1 and roots[0] > 0

    def test_ring_one_witness_among_several(self):
        # eps sqrt(3) makes the cell side 1.0, and every cell below is dense
        # for min_pts up to 4.  Cells A and B are x-neighbors: the first
        # point of A has four candidates in B, and only the last is within
        # epsilon.  Cells C and D are diagonal neighbors whose boxes are
        # within epsilon but whose points are not: every C point is low on
        # two axes and every D point high on two, so one axis parts them by
        # 1.9.  A witness taken without its distance test would join C and D.
        eps = math.sqrt(3.0)
        a_cell = [(0.05, 0.05, 0.05), (0.1, 0.9, 0.9), (0.1, 0.95, 0.9), (0.15, 0.5, 0.5)]
        b_cell = [(1.95, 0.95, 0.95), (1.95, 0.05, 0.05), (1.9, 0.9, 0.9), (1.2, 0.05, 0.05)]
        c_cell = [(0.05, 0.05, 0.05), (0.95, 0.05, 0.05), (0.05, 0.95, 0.05), (0.05, 0.05, 0.95)]
        d_cell = [(1.95, 1.95, 1.95), (1.05, 1.95, 1.95), (1.95, 1.05, 1.95), (1.95, 1.95, 1.05)]
        far = np.array([20.0, 0.0, 0.0])
        pts = np.vstack([a_cell, b_cell, np.add(c_cell, far), np.add(d_cell, far)])
        d2 = ((pts[0] - pts[4:8]) ** 2).sum(axis=1)
        assert (d2 <= eps * eps).tolist() == [False, False, False, True]
        cd = pts[8:12, None, :] - pts[None, 12:16, :]
        assert ((cd ** 2).sum(axis=2) > eps * eps).all()
        assert (pts[12:16].min(axis=0) - pts[8:12].max(axis=0) < eps / 3).all()
        for min_pts in (3, 4):
            labels = dbscan_labels(pts, eps, min_pts)
            np.testing.assert_array_equal(labels, brute_dbscan(pts, eps, min_pts))
            assert labels.tolist() == [0] * 8 + [1] * 4 + [2] * 4
