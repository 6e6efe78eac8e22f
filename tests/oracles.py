"""Independent reference implementations used as test oracles.

These are deliberately naive: plain loops, no vectorization tricks beyond
computing a full distance matrix, no spatial indexing.  They follow the
published per-point histogram / filtering procedure directly, with the same
documented conventions as the production code (last-bin clamp, degenerate
single-bin rule, padding exclusion, count-based tallness with low-index tie
break), so agreement must be exact.  The box fit is Andrew's monotone chain
and a per-edge caliper loop, one cluster at a time; production runs
quickhull and the caliper projections over every cluster of a frame at
once, and the two must agree bit for bit.  ``pairs_dbscan`` is the
earlier production DBSCAN, which builds every neighbor pair on an epsilon
grid; it needs memory linear in the pair count rather than quadratic in the
point count, so it checks real-size frames that ``brute_dbscan`` cannot.
``naive_block_pairs`` lists the point pairs of DBSCAN's cell blocks in
nested loops; the vectorised expansion must give the same pairs in the same
order.
``naive_merge_frames`` is the earlier merge of frame files, which built the
whole sequence in memory before writing it out.  ``naive_iou_3d`` is the
earlier per-pair IoU: pure-Python Sutherland-Hodgman on every pair whose
footprints no rectangle side separates; the batched IoU matrices must equal
it bit for bit.  ``naive_evaluate_records`` is the earlier matching: each
frame ranks its own predictions, a second sort pools those ranks, and the
TP flags are gathered back into pooled order; the one pooled pass of
``evaluate_labels`` must give the same report.  ``naive_read_label_file``
is the earlier label reader, one line and one ``ObjectLabel`` at a time;
``LabelSet.read`` must give the same values, bit for bit, and the same
first error.  ``naive_transform_label`` and ``naive_format_label_line``
are the earlier merge of one label and the earlier label writer, one
``ObjectLabel`` at a time; the columnar merge and ``LabelSet.write`` must
give the same bytes.  ``naive_label_box`` is the earlier size gates and
class rule, one box and one test at a time; ``label_rows`` must keep,
reject and class every box as it does.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from roadlidar.core import DataError, LabelClass, LabelSource, ObjectLabel, normalize_yaw_half


def naive_point_range(p) -> float:
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    return math.sqrt(x * x + y * y + z * z)


def naive_histogram(frames_xyz, frames_padding, n_bin):
    """Direct transcription of the per-point distance histogram.

    frames_xyz: list of (n_total, 3) arrays (the query frames, in order).
    Returns per-index results: bin_means, bin_counts, d_min, d_max, width
    -- all plain Python floats/lists.
    """
    frames_ranges = [
        [None if pad else naive_point_range(p) for p, pad in zip(xyz, padding)]
        for xyz, padding in zip(frames_xyz, frames_padding)
    ]
    return naive_histogram_of_ranges(frames_ranges, n_bin)


def naive_histogram_of_ranges(frames_ranges, n_bin):
    """``naive_histogram`` over given ranges: frames_ranges holds one list
    per query frame, in order, of each beam's range (None without data)."""
    n_query = len(frames_ranges)
    n_total = len(frames_ranges[0])
    means = [[0.0] * n_bin for _ in range(n_total)]
    counts = [[0] * n_bin for _ in range(n_total)]
    d_mins = [0.0] * n_total
    d_maxs = [0.0] * n_total
    widths = [0.0] * n_total
    for i in range(n_total):
        dists = []
        for j in range(n_query):
            if frames_ranges[j][i] is None:
                continue
            dists.append(float(frames_ranges[j][i]))
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


def naive_block_pairs(a_start, a_size, b_start, b_size) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with i in block a and j in block b, one block pair at a time."""
    pairs = [
        (i, j)
        for sa, na, sb, nb in zip(a_start, a_size, b_start, b_size)
        for i in range(sa, sa + na)
        for j in range(sb, sb + nb)
    ]
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return i, j


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


def naive_label_box(length: float, height: float, cfg) -> tuple[LabelClass | None, str]:
    """The size gates, then the class rule, of one box of base length
    ``length``: (class, "") for a kept box, (None, the first failed gate)
    for a rejected one."""
    if length < cfg.l_min:
        return None, "base_length<l_min"
    if height < cfg.h_min:
        return None, "height<h_min"
    if abs(length - height) < cfg.beta_min:
        return None, "|base_length-height|<beta_min"
    if length > height:
        return LabelClass.VEHICLE, ""
    if length < height:
        return LabelClass.PEDESTRIAN, ""
    raise AssertionError("beta_min > 0 rejects a box with length == height")


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


def naive_read_label_file(path, source=LabelSource.TEACHER) -> list:
    """Parse one label file a line at a time; errors name the file and
    1-based line number."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read label file {path}: {exc}") from exc
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 9:
            raise DataError(f"{path}:{lineno}: expected 9 fields, got {len(tokens)}")
        cls_token = tokens[0]
        try:
            cls = LabelClass(cls_token)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown class '{cls_token}'") from None
        try:
            values = [float(tok) for tok in tokens[1:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable number ({exc})") from None
        try:
            labels.append(ObjectLabel(*values[:3], *values[3:6], values[6], cls, values[7], source))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return labels


def naive_transform_label(label: ObjectLabel, transform) -> ObjectLabel:
    """Map a box covariantly: center transformed, dimensions scaled, yaw kept."""
    if transform.is_identity:
        return label
    s = transform.scale
    tx, ty, tz = transform.translation
    return ObjectLabel(
        label.center_x * s + tx, label.center_y * s + ty, label.center_z * s + tz,
        label.length * s, label.width * s, label.height * s,
        label.yaw, label.label_class, label.score, label.source,
    )


def naive_format_label_line(label: ObjectLabel) -> str:
    """One label's line, without its newline."""
    return (
        f"{label.label_class.value} "
        f"{label.center_x:.6f} {label.center_y:.6f} {label.center_z:.6f} "
        f"{label.length:.6f} {label.width:.6f} {label.height:.6f} "
        f"{label.yaw:.6f} {label.score:.6f}"
    )


def _naive_footprint_corners(label) -> np.ndarray:
    """The 4 corners of the box's XY rectangle, counter-clockwise."""
    c, s = math.cos(label.yaw), math.sin(label.yaw)
    hl, hw = label.length / 2.0, label.width / 2.0
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([label.center_x, label.center_y])


def _naive_clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
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


def _naive_separated(poly: np.ndarray, other: np.ndarray) -> bool:
    """Whether every corner of ``other`` lies strictly outside one edge of the convex CCW ``poly``."""
    for i in range(len(poly)):
        a = poly[i]
        edge = poly[(i + 1) % len(poly)] - a
        if all(edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) < 0 for p in other):
            return True
    return False


def _naive_polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def naive_iou_3d(a, b) -> float:
    """Volume IoU of two yaw-oriented boxes, one pair at a time."""
    za0, za1 = a.center_z - a.height / 2.0, a.center_z + a.height / 2.0
    zb0, zb1 = b.center_z - b.height / 2.0, b.center_z + b.height / 2.0
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0:
        return 0.0
    corners_a, corners_b = _naive_footprint_corners(a), _naive_footprint_corners(b)
    # separated on a side of either rectangle: exactly 0.0, with no clip to
    # leave a rounding sliver along a shared side line
    if _naive_separated(corners_a, corners_b) or _naive_separated(corners_b, corners_a):
        return 0.0
    inter_fp = _naive_polygon_area(_naive_clip_polygon(corners_a, corners_b))
    if inter_fp <= 0:
        return 0.0
    inter = inter_fp * dz
    vol_a = a.length * a.width * a.height
    vol_b = b.length * b.width * b.height
    union = vol_a + vol_b - inter
    if union <= 0:
        return 0.0
    return min(inter / union, 1.0)


def naive_iou_matrix(preds, truths) -> np.ndarray:
    """One frame's (len(preds), len(truths)) matrix of ``naive_iou_3d``."""
    return np.array([[naive_iou_3d(p, t) for t in truths] for p in preds]).reshape(
        len(preds), len(truths)
    )


def _naive_rank_order(preds) -> list[int]:
    # Descending score; ties broken by ascending center distance to the
    # sensor, then by input order for determinism.
    def key(i: int) -> tuple:
        p = preds[i]
        try:
            distance = math.sqrt(p.center_x**2 + p.center_y**2 + p.center_z**2)
        except OverflowError:
            distance = math.inf
        return (-p.score, distance, i)

    return sorted(range(len(preds)), key=key)


def _naive_greedy_tp(order: list[int], iou_matrix: np.ndarray, iou_threshold: float) -> list[bool]:
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


def _naive_average_precision(tp_flags: list[bool], n_truth: int) -> float:
    if n_truth == 0 or not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_truth
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def naive_evaluate_records(preds_by_stem, truths_by_stem, thresholds) -> dict:
    """``(ap, recall, tp, fp, fn)`` of each ``(class, threshold)``.

    The earlier evaluation: each frame ranks its own predictions, a pooled
    sort merges those ranks by score and stem, and the TP flags are taken
    per frame and gathered back into pooled order.
    """
    records = {}
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
        matrices = [naive_iou_matrix(preds, truths) for preds, truths in frames]
        orders = [_naive_rank_order(preds) for preds, _ in frames]
        pooled = sorted(
            (-preds[i].score, f, rank)
            for f, ((preds, _), order) in enumerate(zip(frames, orders))
            for rank, i in enumerate(order)
        )
        for thr in thresholds:
            tps = [_naive_greedy_tp(order, iou, thr) for order, iou in zip(orders, matrices)]
            tp_flags = [tps[f][rank] for _, f, rank in pooled]
            tp_total = sum(tp_flags)
            fn_total = n_truth_total - tp_total
            recall = tp_total / n_truth_total if n_truth_total else 0.0
            records[(cls, thr)] = (_naive_average_precision(tp_flags, n_truth_total), recall,
                                   tp_total, len(tp_flags) - tp_total, fn_total)
    return records
