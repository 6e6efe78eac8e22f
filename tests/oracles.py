"""Independent reference implementations used as test oracles.

These are deliberately naive: plain loops, no vectorization tricks beyond
computing a full distance matrix, no spatial indexing.  They follow the
published per-point histogram / filtering procedure directly, with the same
documented conventions as the production code (last-bin clamp, degenerate
single-bin rule, padding exclusion, count-based tallness with low-index tie
break), so agreement must be exact.  The box fit is Andrew's monotone chain
and a per-edge caliper loop; production uses Qhull and one vectorised
projection, and the two must agree bit for bit.  ``pairs_dbscan`` is the
earlier production DBSCAN, which builds every neighbor pair on an epsilon
grid; it needs memory linear in the pair count rather than quadratic in the
point count, so it checks real-size frames that ``brute_dbscan`` cannot.
``naive_merge_frames`` is the earlier merge of frame files, which built the
whole sequence in memory before writing it out.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from roadlidar.core import normalize_yaw_half


def naive_point_range(p) -> float:
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    return math.sqrt(x * x + y * y + z * z)


def naive_histogram(frames_xyz, frames_padding, n_bin):
    """Direct transcription of the per-point distance histogram.

    frames_xyz: list of (n_total, 3) arrays (the query frames, in order).
    Returns dicts of per-index results: bin_sums, bin_counts, bin_means,
    d_min, d_max, width -- all plain Python floats/lists.
    """
    n_query = len(frames_xyz)
    n_total = frames_xyz[0].shape[0]
    means = [[0.0] * n_bin for _ in range(n_total)]
    counts = [[0] * n_bin for _ in range(n_total)]
    d_mins = [0.0] * n_total
    d_maxs = [0.0] * n_total
    widths = [0.0] * n_total
    for i in range(n_total):
        dists = []
        for j in range(n_query):
            if frames_padding[j][i]:
                continue
            dists.append(naive_point_range(frames_xyz[j][i]))
        if not dists:
            continue
        d_min = min(dists)
        d_max = max(dists)
        width = (d_max - d_min) / n_bin
        d_mins[i] = d_min
        d_maxs[i] = d_max
        widths[i] = width
        sums = [0.0] * n_bin
        for d in dists:
            if width > 0:
                k = int(math.floor((d - d_min) / width))
            else:
                k = 0
            if k < 0:
                k = 0
            if k > n_bin - 1:
                k = n_bin - 1
            sums[k] += d
            counts[i][k] += 1
        for k in range(n_bin):
            if counts[i][k] > 0:
                means[i][k] = sums[k] / counts[i][k]
    return means, counts, d_mins, d_maxs, widths


def naive_select_tall(means, counts, n_tall):
    """Top n_tall occupied bins per index by descending count, low index first."""
    tall = []
    for mean_row, count_row in zip(means, counts):
        n_bin = len(count_row)
        order = sorted(range(n_bin), key=lambda k: (-count_row[k], k))
        row = [mean_row[k] for k in order if count_row[k] > 0][:n_tall]
        tall.append(row)
    return tall


def naive_filter(frame_xyz, frame_padding, tall, d_threshold):
    """Direct transcription of the background filtering loop.

    Returns the background decision per point (True = remove).
    """
    n_total = frame_xyz.shape[0]
    removed = [False] * n_total
    for i in range(n_total):
        if frame_padding[i]:
            continue
        d = naive_point_range(frame_xyz[i])
        for d_tall in tall[i]:
            if abs(d - d_tall) <= d_threshold:
                removed[i] = True
                break
    return removed


def brute_dbscan(pts: np.ndarray, epsilon: float, min_pts: int) -> np.ndarray:
    """O(n^2) DBSCAN with the same deterministic scan rules as production.

    The full pairwise squared-distance comparison stands in for the spatial
    index; everything else mirrors the reference expansion exactly.
    """
    n = len(pts)
    labels = np.full(n, -2, dtype=np.int64)
    if n == 0:
        return labels
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = (
        diff[:, :, 0] * diff[:, :, 0]
        + diff[:, :, 1] * diff[:, :, 1]
        + diff[:, :, 2] * diff[:, :, 2]
    )
    eps_sq = epsilon * epsilon
    adjacency = d2 <= eps_sq

    def region(i: int) -> np.ndarray:
        return np.nonzero(adjacency[i])[0]

    cluster_id = -1
    for i in range(n):
        if labels[i] != -2:
            continue
        neighbors = region(i)
        if len(neighbors) < min_pts:
            labels[i] = -1
            continue
        cluster_id += 1
        labels[i] = cluster_id
        seeds = deque(int(q) for q in neighbors if q != i)
        while seeds:
            q = seeds.popleft()
            if labels[q] == -1:
                labels[q] = cluster_id
            if labels[q] != -2:
                continue
            labels[q] = cluster_id
            q_neighbors = region(q)
            if len(q_neighbors) >= min_pts:
                seeds.extend(int(r) for r in q_neighbors if labels[r] in (-2, -1))
    return labels


def _neighbor_pairs(pts: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (i, j) with ||p_i - p_j|| <= epsilon, including i == j.

    Grid cells have side epsilon, so a point's neighbors lie in the 27
    surrounding cells; distances are evaluated block-wise per cell.
    """
    n = len(pts)
    keys = np.floor(pts / epsilon).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    boundaries = np.nonzero(np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1))[0] + 1
    members = np.split(order, boundaries)
    cells = {tuple(keys[chunk[0]]): chunk for chunk in members}

    eps_sq = epsilon * epsilon
    rows, cols = [], []
    for key, chunk in cells.items():
        kx, ky, kz = key
        buckets = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    bucket = cells.get((kx + dx, ky + dy, kz + dz))
                    if bucket is not None:
                        buckets.append(bucket)
        cand = np.concatenate(buckets)
        diff = pts[chunk][:, None, :] - pts[cand][None, :, :]
        d2 = (
            diff[:, :, 0] * diff[:, :, 0]
            + diff[:, :, 1] * diff[:, :, 1]
            + diff[:, :, 2] * diff[:, :, 2]
        )
        local_i, local_j = np.nonzero(d2 <= eps_sq)
        rows.append(chunk[local_i])
        cols.append(cand[local_j])
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(rows), np.concatenate(cols)


def pairs_dbscan(pts: np.ndarray, epsilon: float, min_pts: int) -> np.ndarray:
    """Cluster labels per point: 0..C-1 for clusters, -1 for noise.

    A core point has at least ``min_pts`` neighbors within ``epsilon``
    (closed ball, itself included).
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    pair_i, pair_j = _neighbor_pairs(pts, epsilon)
    counts = np.bincount(pair_i, minlength=n)
    core = counts >= min_pts

    labels = np.full(n, -1, dtype=np.int64)
    if not core.any():
        return labels

    cc_mask = core[pair_i] & core[pair_j]
    graph = csr_matrix(
        (np.ones(cc_mask.sum(), dtype=np.int8), (pair_i[cc_mask], pair_j[cc_mask])),
        shape=(n, n),
    )
    _, comp = connected_components(graph, directed=False)

    # number clusters by ascending smallest core index (reference scan order)
    core_idx = np.nonzero(core)[0]
    comp_min = np.full(comp.max() + 1, n, dtype=np.int64)
    np.minimum.at(comp_min, comp[core_idx], core_idx)
    core_comps = np.unique(comp[core_idx])
    rank = np.full(comp.max() + 1, -1, dtype=np.int64)
    rank[core_comps[np.argsort(comp_min[core_comps], kind="stable")]] = np.arange(len(core_comps))
    labels[core_idx] = rank[comp[core_idx]]

    # border points: earliest-numbered cluster with a core neighbor claims them
    border_mask = ~core[pair_i] & core[pair_j]
    if border_mask.any():
        bi = pair_i[border_mask]
        bj_label = labels[pair_j[border_mask]]
        claim = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(claim, bi, bj_label)
        claimed = claim < np.iinfo(np.int64).max
        labels[claimed] = claim[claimed]
    return labels


def canonical_partition(labels: np.ndarray) -> tuple[frozenset, frozenset]:
    """(set of clusters as frozensets, noise set) for order-free comparison."""
    clusters = []
    for cid in range(labels.max() + 1 if labels.size else 0):
        clusters.append(frozenset(np.nonzero(labels == cid)[0].tolist()))
    noise = frozenset(np.nonzero(labels == -1)[0].tolist())
    return frozenset(clusters), noise


def naive_convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain: counter-clockwise from the lexicographic minimum.

    Returns 1 point for a single-point set and 2 points for collinear input.
    """
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points identical after dedupe
        return pts[:1]
    return np.array(hull)


def naive_min_area_rect(points: np.ndarray):
    """Rotating calipers, one hull edge at a time: (center, long, short, yaw).

    Same selection rule as production: smallest area, with areas within a
    relative 1e-9 of each other tied and the tie going to the longer side.
    """
    hull = naive_convex_hull_2d(points)
    if len(hull) == 1:
        return hull[0], 0.0, 0.0, 0.0
    if len(hull) == 2:
        d = hull[1] - hull[0]
        yaw = normalize_yaw_half(math.atan2(d[1], d[0]))
        return (hull[0] + hull[1]) / 2.0, float(np.hypot(d[0], d[1])), 0.0, yaw

    best = None
    x, y = hull[:, 0], hull[:, 1]
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        theta = math.atan2(b[1] - a[1], b[0] - a[0])
        c, s = math.cos(theta), math.sin(theta)
        u = x * c + y * s
        v = -x * s + y * c
        du = u.max() - u.min()
        dv = v.max() - v.min()
        area = du * dv
        if best is None:
            take = True
        else:
            tie_band = 1e-9 * max(area, best[0])
            if area < best[0] - tie_band:
                take = True
            elif abs(area - best[0]) <= tie_band:
                take = max(du, dv) > max(best[1], best[2])
            else:
                take = False
        if take:
            uc = (u.max() + u.min()) / 2.0
            vc = (v.max() + v.min()) / 2.0
            best = (area, du, dv, theta, uc, vc)

    _, du, dv, theta, uc, vc = best
    c, s = math.cos(theta), math.sin(theta)
    center = np.array([uc * c - vc * s, uc * s + vc * c])
    if du >= dv:
        return center, float(du), float(dv), normalize_yaw_half(theta)
    return center, float(dv), float(du), normalize_yaw_half(theta + math.pi / 2.0)


def naive_merge_frames(frames_dir, unit_scale, transform, out_dir) -> None:
    """Merge one input's frame files the way merge did before it streamed.

    A transcription of the earlier path load_frame_sequence -> unify_units
    -> unify_datasets -> write_frame_file: every frame is loaded as float64
    (all-zero rows are padding), scaled by ``unit_scale``, mapped through
    scale-then-translation with padding rows taken from the input by
    ``np.where`` (skipped for the identity transform), and written back as
    float32 records with zero intensity.  It shares no code with the
    production helpers, so a change to them shows up as different bytes.
    """
    loaded = []
    for file in sorted(Path(frames_dir).glob("*.bin")):
        rec = np.frombuffer(file.read_bytes(), dtype="<f4").reshape(-1, 4)
        xyz = rec[:, :3].astype(np.float64)
        pad = np.all(xyz == 0.0, axis=1)
        loaded.append((file.stem, xyz, pad))
    if unit_scale != 1.0:
        loaded = [(stem, xyz * unit_scale, pad) for stem, xyz, pad in loaded]
    if not transform.is_identity:
        translation = np.asarray(transform.translation, dtype=np.float64)
        loaded = [
            (stem, np.where(pad[:, None], xyz, xyz * transform.scale + translation), pad)
            for stem, xyz, pad in loaded
        ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, xyz, _ in loaded:
        rec = np.zeros((xyz.shape[0], 4), dtype="<f4")
        rec[:, :3] = xyz.astype("<f4")
        (out_dir / f"{stem}.bin").write_bytes(rec.tobytes())
