"""3D DBSCAN over the foreground points of one frame.

Standard DBSCAN semantics with the classic border-point ambiguity pinned
down: clusters are numbered in ascending order of their smallest core-point
index, and a border point belongs to the earliest-numbered cluster that has
a core point within epsilon ("first claim" in the reference scan order).
With those rules the labeling is fully deterministic and identical to the
textbook seed-queue algorithm, which the tests assert against a brute-force
transcription.

The implementation is the cell argument of Gan & Tao, "DBSCAN Revisited"
(SIGMOD 2015), made exact for floating point.  Points are sorted into cells
of side epsilon/sqrt(3); two points within epsilon are at most two cells
apart on every axis, so each cell looks only at the 5x5x5 window around it.
Every distance test is the reference's ``d2 <= eps_sq`` (``eps_sq =
epsilon * epsilon``, ``d2`` summed x, y, z in that order), so no test can
disagree with the oracle.

* A cell is *dense* when it holds at least ``min_pts`` points and the float
  extent of its bounding box satisfies ``ex*ex + ey*ey + ez*ez <= eps_sq``.
  Rounding is monotone, so no pair inside the box computes a larger ``d2``
  than its extent: every point of a dense cell is core, untested.
* The points of every other cell are tested against their whole window.
  Those pairs give their exact neighbor counts, their core-core edges and,
  for border points, the minimum cluster id among their core neighbors.
* Core points are clustered as connected components of a small graph:
  each dense cell starts as a star on its smallest input index, and edges
  join the core-core pairs above (each pair once) and neighboring dense
  cells.  Two dense cells in the 26-neighbor ring are joined first by one
  witness, the first point of the other cell within epsilon of the first
  point of one; then cell pairs whose components still differ are searched
  block-wise, ring 1 before ring 2.  Cell pairs whose bounding boxes are
  farther apart than epsilon (same monotone argument) are never tested.
  So every core-core pair within epsilon lies in one star, is tested as a
  pair, or joins two cells that were already connected: the components
  are those of the full epsilon-graph without building it.
* The components are joined in numpy, by hook and jump over input indices,
  one batch of edges at a time, so each witness round joins only its new
  edges.  Each root ends as its cluster's smallest core index, so ranking
  the roots gives the reference's cluster order.

Cell keys are compressed per axis, clipping gaps between occupied key values
to 3, which keeps every window relation: through an occupancy table over
the keys' span while it is at most ``4 * n + 1024``, and through
``np.unique`` above it.  A key must lie within +-2**53, or the frame is a
DataError.  The sorted points are held as three float64 columns, and every
distance, extent and cell-gap test reads them column by column.  Cells are coded by their compressed position
``(cx * ry + cy) * rz + cz``, and the 125 window cells of every cell are
looked up at once in a table indexed by that code.  The table spans the
whole code range, which grows as the cube of the spread, so it is used
only while the range is at most ``32 * n + 1024`` for ``n`` points (real
simulated roadside frames needed at most 22 times ``n``).  A wider grid, such as
a few clumps far apart, codes its cells by the rank of their (x, y)
column times the z range instead, which stays far inside int64 for any
frame that fits in memory, and finds each window cell by binary search.
Both codes sort the cells in the same order, so both lookups give the
same cells, pairs and labels.
"""

from __future__ import annotations

import numpy as np

from .core import DataError, Frame

NOISE = -1


_STEPS = np.arange(-2, 3)
# cell keys beyond this magnitude are not all exact in float64
_KEY_LIMIT = 2.0**53
# Chebyshev ring (0, 1 or 2) of each of the 125 window offsets, x-major
_RING = np.abs(np.meshgrid(_STEPS, _STEPS, _STEPS, indexing="ij")).max(axis=0).ravel()


def _axis_table_fits(span: int, n: int) -> bool:
    """Whether an occupancy table over ``span`` key values stays within a
    small multiple of the point count."""
    return span <= 4 * n + 1024


def _compress_axis(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-axis cell keys as 2.. with gaps over 2 clipped to 3, and a range
    that leaves room for the +-2 window on both sides.

    Keys whose span fits ``_axis_table_fits`` are ranked through an
    occupancy table over that span; wider ones through ``np.unique``.
    """
    low = keys.min()
    span = int(keys.max() - low) + 1
    if _axis_table_fits(span, len(keys)):
        keys = keys - low
        rank = np.zeros(span, dtype=np.int64)
        rank[keys] = 1
        values = np.flatnonzero(rank)
        rank[values] = np.arange(len(values))
        inverse = rank[keys]
    else:
        values, inverse = np.unique(keys, return_inverse=True)
    coords = np.concatenate(([2], 2 + np.cumsum(np.minimum(np.diff(values), 3))))
    return coords[inverse], int(coords[-1]) + 3


def _grid(pts: np.ndarray, epsilon: float) -> tuple[tuple[np.ndarray, ...], tuple[int, int, int]]:
    """Compressed cell coordinates (cx, cy, cz) of each point, and the range
    (rx, ry, rz) of each axis.

    A cell key (``floor`` of a coordinate over the cell side) must lie
    within +-2**53, where every integer is exact in float64; a point
    farther out is a DataError.
    """
    with np.errstate(over="ignore"):
        keys = np.floor(pts / (epsilon / np.sqrt(3.0)))
    if not (keys.min() > -_KEY_LIMIT and keys.max() < _KEY_LIMIT):
        raise DataError(f"a point lies 2**53 or more cells of side epsilon/sqrt(3) from the origin "
                        f"(epsilon {epsilon!r})")
    keys = keys.astype(np.int64)
    (cx, rx), (cy, ry), (cz, rz) = (_compress_axis(keys[:, axis]) for axis in range(3))
    return (cx, cy, cz), (rx, ry, rz)


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """start[k], start[k] + 1, ..., start[k] + size[k] - 1 for each k in turn."""
    return np.arange(int(size.sum())) + np.repeat(start - (np.cumsum(size) - size), size)


def _block_pairs(a_start, a_size, b_start, b_size) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) with i in block a and j in block b, for each pair of blocks.

    Pairs come block by block, then by i, then by j, all ascending.
    """
    i = _ranges(a_start, a_size)
    b_size = np.repeat(b_size, a_size)
    return np.repeat(i, b_size), _ranges(np.repeat(b_start, a_size), b_size)


def _table_fits(shape: tuple[int, int, int], n: int) -> bool:
    """Whether a direct table over every cell code of ``shape`` stays within
    a small multiple of the point count."""
    rx, ry, rz = shape
    return rx * ry * rz <= 32 * n + 1024


def _window_table(cells: np.ndarray, shape: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Occupied window cells through a table indexed by cell code.

    ``cells`` are the ascending codes ``(cx * ry + cy) * rz + cz`` of the
    occupied cells.  Returns (a, b, offset): cell b sits at window offset
    ``offset`` (0..124, x-major) of cell a, ordered by a, then offset.
    """
    rx, ry, rz = shape
    table = np.full(rx * ry * rz, -1)
    table[cells] = np.arange(len(cells))
    near = table[cells[:, None] + ((_STEPS[:, None, None] * ry + _STEPS[:, None]) * rz + _STEPS).ravel()]
    a, offset = np.nonzero(near >= 0)
    return a, near[a, offset], offset


def _window_search(cells: np.ndarray, columns: np.ndarray, ry: int, rz: int) -> tuple[np.ndarray, ...]:
    """Occupied window cells by binary search, for grids too sparse to table.

    ``columns`` are the ascending occupied (x, y) columns ``cx * ry + cy``
    and ``cells`` the ascending codes ``rank of the column * rz + cz``.
    Returns (a, b, offset) as ``_window_table`` does.
    """
    m = len(cells)
    near_columns = columns[cells // rz][:, None] + (_STEPS[:, None] * ry + _STEPS).ravel()
    col = np.minimum(np.searchsorted(columns, near_columns), len(columns) - 1)
    col[columns[col] != near_columns] = -1  # codes of a missing column are negative
    near_cells = (col[:, :, None] * rz + (cells % rz)[:, None, None] + _STEPS).reshape(m, -1)
    found = np.minimum(np.searchsorted(cells, near_cells), m - 1)
    a, offset = np.nonzero(cells[found] == near_cells)
    return a, found[a, offset], offset


def _join(comp: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Join the trees of the parent array ``comp`` along edges (i, j), in place.

    Hook and jump (Shiloach & Vishkin 1982): point every node at its root,
    drop the edges whose roots agree, and hook each larger root onto the
    smallest root it shares an edge with.  A root that survives two rounds
    absorbed another in the first, so live roots halve every two rounds (if
    any one hook won, a star could take a round per branch).  On return
    every node points at its root, the smallest node of its component.
    """
    while True:
        while not np.array_equal(up := comp[comp], comp):
            comp[:] = up
        ri, rj = comp[i], comp[j]
        differ = ri != rj
        if not differ.any():
            return
        i, j, ri, rj = i[differ], j[differ], ri[differ], rj[differ]
        np.minimum.at(comp, np.maximum(ri, rj), np.minimum(ri, rj))


def dbscan_labels(pts: np.ndarray, epsilon: float, min_pts: int) -> np.ndarray:
    """Cluster labels per point: 0..C-1 for clusters, -1 for noise.

    A core point has at least ``min_pts`` neighbors within ``epsilon``
    (closed ball, itself included).
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    eps_sq = epsilon * epsilon

    # sort the points by cell; cells come out in ascending code order
    (cx, cy, cz), shape = _grid(pts, epsilon)
    _, ry, rz = shape
    direct = _table_fits(shape, n)
    if direct:
        code = (cx * ry + cy) * rz + cz
    else:
        columns, column = np.unique(cx * ry + cy, return_inverse=True)
        code = column * rz + cz
    order = np.argsort(code, kind="stable")
    x, y, z = (pts[:, axis].take(order) for axis in range(3))
    code = code[order]
    start = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
    size = np.diff(np.append(start, n))
    cells = code[start]
    cell_of = np.repeat(np.arange(len(cells)), size)

    def within(i, j):
        dx, dy, dz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
        return dx * dx + dy * dy + dz * dz <= eps_sq

    (lx, hx), (ly, hy), (lz, hz) = (
        (np.minimum.reduceat(c, start), np.maximum.reduceat(c, start)) for c in (x, y, z)
    )
    ex, ey, ez = hx - lx, hy - ly, hz - lz
    dense = (size >= min_pts) & (ex * ex + ey * ey + ez * ez <= eps_sq)

    # occupied window cells, then those whose bounding boxes are within epsilon
    if direct:
        a, b, offset = _window_table(cells, shape)
    else:
        a, b, offset = _window_search(cells, columns, ry, rz)
    gx, gy, gz = (
        np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
        for lo, hi in ((lx, hx), (ly, hy), (lz, hz))
    )
    close = gx * gx + gy * gy + gz * gz <= eps_sq
    a, b, ring = a[close], b[close], _RING[offset[close]]

    # points outside dense cells: exact neighbor pairs over the window
    sparse = ~dense[a]
    pi, pj = _block_pairs(start[a[sparse]], size[a[sparse]], start[b[sparse]], size[b[sparse]])
    hit = within(pi, pj)
    pi, pj = pi[hit], pj[hit]
    dense_pt = dense[cell_of]
    core = dense_pt | (np.bincount(pi, minlength=n) >= min_pts)

    # core graph over input indices: each dense cell starts as a star on its
    # smallest index.  The first join takes the core-core pairs, each once
    # (i < j, or j in a dense cell, which never lists its pairs), and one
    # witness per ring-1 pair of dense cells: the first hit, in block order,
    # between the first point of a and the points of b
    comp = np.arange(n)
    comp[order[dense_pt]] = np.minimum.reduceat(order, start)[cell_of[dense_pt]]
    linked = core[pi] & core[pj] & ((pi < pj) | dense_pt[pj])
    pair = dense[a] & dense[b] & (b > a)
    a, b, ring = a[pair], b[pair], ring[pair]
    first = ring == 1
    b_size = size[b[first]]
    wi, wj = _block_pairs(start[a[first]], np.ones(len(b_size), dtype=np.int64), start[b[first]], b_size)
    ends = np.cumsum(b_size)
    # each block's first hit at or after its start, kept if before its end
    hit = np.append(np.flatnonzero(within(wi, wj)), len(wi))
    hit = hit[np.searchsorted(hit, ends - b_size)]
    hit = hit[hit < ends]
    _join(comp, order[np.concatenate((pi[linked], wi[hit]))], order[np.concatenate((pj[linked], wj[hit]))])
    for r in (1, 2):
        todo = (ring == r) & (comp[order[start[a]]] != comp[order[start[b]]])
        wi, wj = _block_pairs(start[a[todo]], size[a[todo]], start[b[todo]], size[b[todo]])
        hit = within(wi, wj)
        _join(comp, order[wi[hit]], order[wj[hit]])

    # number clusters by ascending smallest core index (reference scan order):
    # every root is its cluster's smallest index, so rank the roots
    roots = comp[order[core]]
    rank = np.zeros(n, dtype=np.int64)
    rank[roots] = 1
    labels[order[core]] = np.cumsum(rank)[roots] - 1

    # border points: earliest-numbered cluster with a core neighbor claims them
    border = ~core[pi] & core[pj]
    claim = np.full(n, n, dtype=np.int64)
    np.minimum.at(claim, order[pi[border]], labels[order[pj[border]]])
    claimed = claim < n
    labels[claimed] = claim[claimed]
    return labels


def dbscan(frame: Frame, epsilon: float, min_pts: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Cluster the non-padding points of a frame.

    Returns the clusters as arrays of frame point indices (ascending cluster
    id) and the frame indices labeled noise.
    """
    if not epsilon > 0:  # NaN included
        raise DataError(f"epsilon must be positive, got {epsilon!r}")
    if min_pts < 1:
        raise DataError("min_pts must be >= 1")
    active = np.nonzero(~frame.padding)[0]
    labels = dbscan_labels(frame.xyz[active], epsilon, min_pts)
    # one stable sort splits noise (label -1) first, then each cluster in id order
    bounds = np.cumsum(np.bincount(labels + 1, minlength=1))[:-1]
    noise, *clusters = np.split(active[np.argsort(labels, kind="stable")], bounds)
    return clusters, noise
