"""Independent brute-force oracles used across test modules.

These deliberately avoid the library's spatial index and assignment solver so
that comparisons stay meaningful.
"""

import itertools
import os
import subprocess
import sys
import warnings
from collections import deque
from io import StringIO
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

import planeops
from planeops import KdTree, Orientation, PlaneModel, SegmentLabeling, fit_plane
from planeops.fspf import BLOCK_ANCHORS, score_block
from planeops.geometry import (
    EIGEN_TIE_RTOL,
    DegenerateInput,
    Moments,
    classify_orientations,
    combine_moments,
    plane_distances,
    plane_normal,
    point_moments,
)
from planeops.merge import coplanar
from planeops.normals import SampleSet, estimate_normals, normals_from_neighbors, sample_indices
from planeops.ops import (
    GROUP_ORDER,
    ITERATION_CAP_FACTOR,
    NoPlaneFound,
    RansacResult,
    adaptive_iterations,
)


def ops_samples(points, params, rng):
    """Oriented samples drawn as ``run_detect`` draws them: sample, orient,
    drop the degenerate ones."""
    idx = sample_indices(points.shape[0], params.sampling_rate, rng)
    normals, _, valid = estimate_normals(points, KdTree(points), idx, params.k)
    kept = idx[valid]
    return SampleSet(indices=kept, positions=points[kept], normals=normals[valid], cloud_size=points.shape[0])


class ReplayedPlane(NamedTuple):
    """One hypothesis that ``fspf_detect`` accepted: its anchor's point index,
    the hypothesis normal, its inlier-draw count and its distinct inlier
    draws, ascending."""

    anchor: int
    normal: np.ndarray
    inlier_draws: int
    inliers: np.ndarray


def replay_fspf(points, kd, params, rng):
    """The hypotheses ``fspf_detect`` accepts, replayed row by row from its draws.

    Each block draws its anchors, then its position fractions, and is scored
    by ``score_block``, as in ``fspf_detect``. A row is accepted when it holds
    a hypothesis with more than ``min_inlier_fraction * local_samples``
    inlier draws and ``fit_plane`` fits its distinct inlier draws. The loop
    stops at the same iteration and inlier-draw budgets.
    """
    n = points.shape[0]
    n_max = params.max_inlier_points if params.max_inlier_points is not None else n // 2
    accepted = []
    total = it = 0
    while total < n_max and it < params.max_iterations:
        m = min(BLOCK_ANCHORS, params.max_iterations - it)
        it += m
        anchors = rng.integers(0, n, size=m)
        block = score_block(points, kd, params, anchors, rng.random((m, params.local_samples - 1)))
        for row in range(m):
            hypothesis = block.companions[row, 0] >= 0 and not block.collinear[row]
            if not hypothesis or block.inliers[row] <= params.min_inlier_fraction * params.local_samples:
                continue
            claims = np.unique(block.draws[row][block.inlier_mask[row]])
            try:
                fit_plane(points[claims])
            except DegenerateInput:
                continue
            accepted.append(ReplayedPlane(int(anchors[row]), block.normals[row], int(block.inliers[row]), claims))
            total += int(block.inliers[row])
            if total >= n_max:
                break
    return accepted


def random_plane_soup(rng, n_base=4):
    """Disjoint fragments of a few random planes, for merge-property tests.

    Returns (points, planes) where each base plane appears as one to three
    fragment PlaneModels with disjoint inlier index sets.
    """
    chunks = []
    planes = []
    offset = 0
    for _ in range(n_base):
        n = int(rng.integers(300, 600))
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        u = np.cross(normal, [1, 0, 0] if abs(normal[0]) < 0.9 else [0, 1, 0])
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        origin = rng.uniform(-4, 4, size=3)
        coeffs = rng.uniform(-1.5, 1.5, size=(n, 2))
        pts = origin + coeffs[:, :1] * u + coeffs[:, 1:] * v + rng.normal(scale=0.003, size=(n, 3))
        chunks.append(pts)
        parts = rng.integers(1, 4)
        for part in np.array_split(rng.permutation(n), parts):
            if len(part) < 3:
                continue
            local = np.sort(part)
            planes.append(fit_plane(pts[local], inliers=local + offset))
        offset += n
    return np.vstack(chunks), planes


def _scan_distances(points: np.ndarray, index: int) -> np.ndarray:
    """Distance from cloud point ``index`` to every point, itself at infinity."""
    dists = np.sqrt(((points - points[index]) ** 2).sum(axis=1))
    dists[index] = np.inf
    return dists


def brute_force_knn(points: np.ndarray, index: int, k: int):
    """The k nearest other points of cloud point ``index`` by full scan, ties
    resolved toward the lower index."""
    dists = _scan_distances(points, index)
    order = np.lexsort((np.arange(points.shape[0]), dists))[:min(k, points.shape[0] - 1)]
    return dists[order], order


def assert_knn_row_matches_brute_force(points: np.ndarray, index: int, k: int, dist, idx):
    """Cloud point ``index``'s k-NN row against ``brute_force_knn``, in any
    order among equal distances.

    The distances must equal the scan's sorted distances bit for bit, the
    indices must be distinct and never ``index`` itself, each index's scan
    distance must equal its returned distance, and the points strictly nearer
    than the k-th distance must be exactly the scan's.
    """
    want, _ = brute_force_knn(points, index, k)
    np.testing.assert_array_equal(dist, want)
    scan = _scan_distances(points, index)
    assert np.unique(idx).size == idx.size
    assert index not in idx.tolist()
    np.testing.assert_array_equal(scan[idx], dist)
    if idx.size:
        np.testing.assert_array_equal(np.sort(idx[dist < dist[-1]]), np.flatnonzero(scan < dist[-1]))


def coplanar_pairs(planes, params) -> np.ndarray:
    """The (i, j) pairs, i < j, of ``planes`` that ``coplanar`` joins."""
    normals = np.transpose([p.normal for p in planes]).reshape(3, -1)
    centroids = np.transpose([p.centroid for p in planes]).reshape(3, -1)
    ok = coplanar(normals[:, :, None], centroids[:, :, None], normals[:, None], centroids[:, None], params)
    return np.argwhere(np.triu(ok, 1))


def reference_coplanar(normals_a, centroids_a, normals_b, centroids_b, params):
    """The pair test with each dot product spelled out per component,
    ``u[0]*v[0] + u[1]*v[1] + u[2]*v[2]``, on arrays of shape (3, ...)."""

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    cos_tol = np.cos(np.radians(params.angle_degrees))
    sep = centroids_b - centroids_a
    return ((np.abs(dot(normals_a, normals_b)) >= cos_tol)
            & (np.abs(dot(sep, normals_a)) <= params.offset)
            & (np.abs(dot(sep, normals_b)) <= params.offset))


def reference_combine_moments(a, b):
    """The pairwise moment update of Chan, Golub & LeVeque on numpy arrays."""
    count = a.count + b.count
    d = b.mean - a.mean
    mean = a.mean + d * (b.count / count)
    scatter = a.scatter + b.scatter + (a.count * b.count / count) * (d[:, None] * d)
    return Moments(count, mean, scatter)


def brute_force_radius(points: np.ndarray, center, radius: float) -> np.ndarray:
    """All indices within radius by full scan, ascending."""
    c = np.asarray(center, dtype=np.float64)
    d2 = ((points - c) ** 2).sum(axis=1)
    return np.flatnonzero(d2 <= radius * radius)


def exhaustive_assignment_max(matrix: np.ndarray) -> int:
    """Maximum-total one-to-one assignment by enumerating permutations."""
    m = np.asarray(matrix)
    rows, cols = m.shape
    transposed = rows > cols
    if transposed:
        m = m.T
        rows, cols = cols, rows
    best = 0
    for perm in itertools.permutations(range(cols), rows):
        total = sum(m[r, c] for r, c in enumerate(perm))
        best = max(best, total)
    return int(best)


def reference_dedupe_inliers(planes, points):
    """The first plane to claim a point keeps it, by a walk over a set of
    claimed indices.

    Planes are visited in order; each keeps the points no earlier plane
    claimed, and a plane left with none is dropped.
    """
    seen: set[int] = set()
    out = []
    for plane in planes:
        kept = [idx for idx in plane.inliers.tolist() if idx not in seen]
        seen.update(kept)
        if kept:
            out.append(PlaneModel(centroid=plane.centroid, normal=plane.normal, inliers=np.asarray(kept, dtype=np.int64)))
    return out


def reference_merge_all(planes, points, params):
    """Greedy coplanarity merging that rebuilds the full pair test after every merge.

    O(P^3): each round tests all P x P pairs, merges the coplanar pair of
    largest combined size (the lowest (a, b) in list order on ties), removes
    both parts and appends the refit union last.
    """
    current = reference_dedupe_inliers(planes, points)
    cos_tol = np.cos(np.radians(params.angle_degrees))
    while len(current) > 1:
        normals = np.array([p.normal for p in current])
        centroids = np.array([p.centroid for p in current])
        sizes = np.array([p.inlier_count for p in current])
        angle_ok = np.abs(normals @ normals.T) >= cos_tol
        sep = centroids[None, :, :] - centroids[:, None, :]
        dist_to = np.abs(np.einsum("abj,aj->ab", sep, normals))  # centroid b against plane a
        ok = angle_ok & (dist_to <= params.offset) & (dist_to.T <= params.offset)
        np.fill_diagonal(ok, False)
        if not ok.any():
            break
        combined = np.where(ok, sizes[:, None] + sizes[None, :], -1)
        a, b = sorted(np.unravel_index(int(np.argmax(combined)), combined.shape))
        pa, pb = current[a], current[b]
        union = np.union1d(pa.inliers, pb.inliers)
        merged = None
        if union.size >= 3:
            try:
                merged = fit_plane(points[union], inliers=union)
            except DegenerateInput:
                pass
        if merged is None:
            keep = pa if pa.inlier_count >= pb.inlier_count else pb
            merged = PlaneModel(centroid=keep.centroid, normal=keep.normal, inliers=union)
        current = [p for i, p in enumerate(current) if i not in (a, b)]
        current.append(merged)
    return sorted(current, key=lambda p: -p.inlier_count)


def reference_merge_on_moments(planes, points, params):
    """Greedy merging on moments that tests every live pair in every round.

    O(P^3): each round tests all live pairs with ``coplanar`` and
    merges the coplanar pair of largest combined size, then earliest ``a``,
    then earliest ``b`` in list order. The union's moments combine the
    parts' in ``(a, b)`` order; input planes' moments are taken about the
    first deduplicated plane's centroid. A union that determines no plane
    keeps its larger part's fit (the earlier one on a size tie). Both parts
    leave the list and the union is appended last.
    """
    current = reference_dedupe_inliers(planes, points)
    if len(current) <= 1:
        return current
    origin = current[0].centroid
    # (normal, centroid, moments, inlier arrays, input plane or None) per live plane
    live = [(pl.normal, pl.centroid, point_moments(points[pl.inliers] - origin), [pl.inliers], pl)
            for pl in current]
    while True:
        normals = np.array([e[0] for e in live]).T
        centroids = np.array([e[1] for e in live]).T
        ok = coplanar(normals[:, :, None], centroids[:, :, None], normals[:, None], centroids[:, None], params)
        pairs = [(-(live[a][2].count + live[b][2].count), a, b)
                 for a, b in zip(*np.nonzero(ok)) if a < b]
        if not pairs:
            break
        _, a, b = min(pairs)
        (na, ca, ma, ia, _), (nb, cb, mb, ib, _) = live[a], live[b]
        union = combine_moments(ma, mb)
        try:
            normal, centroid = plane_normal(union), origin + union.mean
        except DegenerateInput:
            normal, centroid = (na, ca) if ma.count >= mb.count else (nb, cb)
        live = [e for i, e in enumerate(live) if i not in (a, b)]
        live.append((normal, centroid, union, ia + ib, None))
    out = [e[4] if e[4] is not None else PlaneModel(centroid=e[1], normal=e[0], inliers=np.sort(np.concatenate(e[3])))
           for e in live]
    return sorted(out, key=lambda pl: -pl.inlier_count)


def reference_validate(labeling):
    """SegmentLabeling.validate as a per-segment loop, O(segments x points)."""
    valid = {int(orient) for orient in Orientation}
    for code in labeling.orientations.tolist():
        if code not in valid:
            raise ValueError(f"{code} is not a valid Orientation")
    if not np.all(labeling.orientations[labeling.plane_ids < 0] == int(Orientation.OTHER)):
        raise ValueError("unsegmented points must be labeled OTHER")
    for pid in np.unique(labeling.plane_ids[labeling.plane_ids >= 0]):
        if np.unique(labeling.orientations[labeling.plane_ids == pid]).size != 1:
            raise ValueError(f"segment {pid} mixes orientation labels")


def reference_save_labeled(points, labeling, path, mode="segment"):
    """The labeled PLY writer as a structured table filled field by field:
    a palette over np.unique's ids in segment mode, a mask per class in
    orientation mode."""
    from planeops.io import ORIENTATION_COLORS, _ply_header, segment_color

    n = points.shape[0]
    if mode == "orientation":
        colors = np.empty((n, 3), dtype=np.uint8)
        for orient in Orientation:
            colors[labeling.orientations == int(orient)] = ORIENTATION_COLORS[orient]
    else:
        ids = np.unique(labeling.plane_ids)
        palette = np.array([segment_color(pid) for pid in ids.tolist()], dtype=np.uint8).reshape(-1, 3)
        colors = palette[np.searchsorted(ids, labeling.plane_ids)]
    table = np.empty(n, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                               ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    table["x"], table["y"], table["z"] = points[:, 0], points[:, 1], points[:, 2]
    table["red"], table["green"], table["blue"] = colors[:, 0], colors[:, 1], colors[:, 2]
    with open(path, "wb") as fh:
        fh.write(_ply_header(n))
        fh.write(table.view(np.uint8))


def reference_save_labeling(labeling, path):
    """The sidecar writer as a sort of (id, class) keys and a join of one
    Python string per point."""
    n_codes = len(Orientation)
    keys, per_point = np.unique(labeling.plane_ids.astype(np.int64) * n_codes
                                + labeling.orientations.astype(np.int64), return_inverse=True)
    lines = np.array([f"{key // n_codes} {Orientation(key % n_codes).char}\n" for key in keys.tolist()], dtype=object)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(lines[per_point].tolist()))


def reference_load_labeling(text: str):
    """Sidecar parse line by line: (plane_ids, codes), or the 1-based number of
    the first line that is malformed or holds an id outside [-1, 2**31 - 1]."""
    ids, codes = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            return lineno
        try:
            plane_id = int(tokens[0])
            codes.append(int(Orientation.from_char(tokens[1])))
        except ValueError:
            return lineno
        if not -1 <= plane_id <= 2**31 - 1:
            return lineno
        ids.append(plane_id)
    return np.asarray(ids, dtype=np.int32), np.asarray(codes, dtype=np.int8)


def reference_parse_table(data: bytes):
    """The sidecar reader's array path as np.loadtxt reads it: int64 ids and
    int8 class codes, or None for a byte outside the sidecar alphabet, a
    line numpy cannot read, a class other than H, V or O, or an id outside
    [-1, 2**31 - 1]."""
    if data.translate(None, b"0123456789+-HVO \t\r\n"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(StringIO(data.decode("ascii"), newline=None),
                               dtype=[("id", "i8"), ("c", "S2")], comments=None, ndmin=1)
    except ValueError:
        return None
    ids, match = table["id"], table["c"][:, None] == np.array([o.char for o in Orientation], dtype="S1")
    if not match.any(axis=1).all() or (ids < -1).any() or (ids > 2**31 - 1).any():
        return None
    return ids, match.argmax(axis=1).astype(np.int8)


def reference_segment_ids(labeling):
    """The segment ids present, by np.unique."""
    return np.unique(labeling.plane_ids[labeling.plane_ids >= 0])


def reference_overlap_matrix(predicted, truth):
    """Segment overlaps through np.unique's segment ids and searchsorted codes."""
    pred_ids, truth_ids = reference_segment_ids(predicted), reference_segment_ids(truth)
    both = (predicted.plane_ids >= 0) & (truth.plane_ids >= 0)
    pcode = np.searchsorted(pred_ids, predicted.plane_ids[both])
    tcode = np.searchsorted(truth_ids, truth.plane_ids[both])
    counts = np.bincount(pcode * truth_ids.size + tcode, minlength=pred_ids.size * truth_ids.size)
    return counts.reshape(pred_ids.size, truth_ids.size), pred_ids, truth_ids


SPARSE_IDS = [-1, -1, 0, 5, 99_999, 100_000, 2**31 - 2, 2**31 - 1]


@st.composite
def id_layout_labelings(draw, size=None):
    """Labelings over each id layout the per-id table treats apart: no
    point, all -1, one id for every point, dense ids in [-1, N) (the table
    takes row id + 1), and ids reaching below -1 or sparse ones from -1 to
    2**31 - 1 (both compacted). Each id keeps one class, unless some points
    are drawn to switch class, which may also leave a -1 point not OTHER."""
    layouts = ["empty", "unsegmented", "single", "dense", "negative", "sparse"]
    layout = draw(st.sampled_from(layouts if size is None else layouts[1:]), label="layout")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = size if size is not None else 0 if layout == "empty" else draw(st.integers(1, 80), label="n")
    if layout in ("empty", "unsegmented"):
        ids = np.full(n, -1)
    elif layout == "single":
        ids = np.full(n, draw(st.sampled_from([0, 3, 2**31 - 1]), label="id"))
    elif layout == "dense":
        ids = rng.integers(-1, n, size=n)
    elif layout == "negative":
        ids = rng.integers(-4, n, size=n)
    else:
        ids = rng.choice(SPARSE_IDS, size=n)
    codes = np.where(ids < 0, int(Orientation.OTHER), ids % len(Orientation))
    switched = rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]), label="switch_rate")
    codes[switched] = rng.integers(0, len(Orientation), size=np.count_nonzero(switched))
    return SegmentLabeling(plane_ids=ids, orientations=codes)


def reference_knn(tree, indices, k):
    """``KdTree.knn`` as one cKDTree query in the caller's order: the tree
    holds a reordered copy of the cloud, so its rows are mapped back to
    cloud indices first; each row drops its queried point by a mask, or its
    farthest column when cKDTree left the queried point out among its
    duplicates."""
    idx = np.asarray(indices, dtype=np.int64)
    m, width = idx.size, min(k, len(tree) - 1)
    np.testing.assert_array_equal(tree._tree.data, tree.points[tree._order])  # copy row i is cloud point order[i]
    dist, nbr = tree._tree.query(tree.points[idx], k=width + 1)
    dist, nbr = dist.reshape(m, width + 1), tree._order.astype(np.int64)[nbr].reshape(m, width + 1)
    drop = nbr == idx[:, None]
    drop[~drop.any(axis=1), -1] = True
    return dist[~drop].reshape(m, width), nbr[~drop].reshape(m, width)


def reference_ground_truth(points, params):
    """Smoothness-constraint ground truth, edge by edge in plain Python floats.

    Each k-NN edge (i, j) links its points when both normals are valid, the
    normals' dot product is at least cos(angle) in magnitude, and each point
    lies within ``dist_threshold`` of the other's tangent plane. Each round
    walks the links of every unsegmented point breadth-first, from the lowest
    unvisited index. In each component of at least ``min_plane_size`` points,
    a plane starts as the tangent plane of the member with the lowest
    curvature (then the lowest index) and is refitted to the members it
    holds (within ``dist_threshold``, normal within the angle) for as long
    as the refit holds more. Those members become a segment, classified by
    their fit, when at least ``min_plane_size`` of them remain and no fit
    raises DegenerateInput. Rounds repeat until one makes no segment.
    """
    n = points.shape[0]
    if n < params.min_plane_size:
        return SegmentLabeling.all_other(n)
    all_idx = np.arange(n, dtype=np.int64)
    nbr_dist, adjacency = reference_knn(KdTree(points), all_idx, params.k)
    normals, curvature, valid = normals_from_neighbors(points, all_idx, nbr_dist, adjacency)

    cos_tol = float(np.cos(np.radians(params.normal_angle_degrees)))
    dist = params.dist_threshold
    pts, nrm, ok, curv = points.tolist(), normals.tolist(), valid.tolist(), curvature.tolist()
    links = [[] for _ in range(n)]
    for i in range(n):
        (xi, yi, zi), (ai, bi, ci) = pts[i], nrm[i]
        for j in adjacency[i].tolist():
            if not (ok[i] and ok[j]):
                continue
            (xj, yj, zj), (aj, bj, cj) = pts[j], nrm[j]
            dx, dy, dz = xj - xi, yj - yi, zj - zi
            if (abs(ai * aj + bi * bj + ci * cj) >= cos_tol
                    and abs(dx * ai + dy * bi + dz * ci) < dist
                    and abs(dx * aj + dy * bj + dz * cj) < dist):
                links[i].append(j)
                links[j].append(i)

    plane_ids = np.full(n, -1, dtype=np.int32)
    orientations = np.full(n, int(Orientation.OTHER), dtype=np.int8)
    next_id = 0
    while True:
        made = next_id
        seen = (plane_ids >= 0).tolist()
        for seed in range(n):
            if seen[seed]:
                continue
            seen[seed] = True
            component, pending = [seed], deque([seed])
            while pending:
                for j in links[pending.popleft()]:
                    if not seen[j]:
                        seen[j] = True
                        component.append(j)
                        pending.append(j)
            if len(component) < params.min_plane_size:
                continue
            member = sorted(component)

            def holds(centroid, normal):
                (cx, cy, cz), (a, b, c) = centroid, normal
                return [i for i in member
                        if abs((pts[i][0] - cx) * a + (pts[i][1] - cy) * b + (pts[i][2] - cz) * c) < dist
                        and abs(nrm[i][0] * a + nrm[i][1] * b + nrm[i][2] * c) >= cos_tol]

            seed = min(member, key=lambda i: (curv[i], i))
            kept = holds(pts[seed], nrm[seed])
            try:
                while True:
                    final = fit_plane(points[kept])
                    grown = holds(final.centroid.tolist(), final.normal.tolist())
                    if len(grown) <= len(kept):
                        break
                    kept = grown
            except DegenerateInput:
                continue
            if len(kept) < params.min_plane_size:
                continue
            plane_ids[kept] = next_id
            orientations[kept] = classify_orientations(final.normal)[0]  # the default up axis and tolerance
            next_id += 1
        if next_id == made:
            break
    return SegmentLabeling(plane_ids=plane_ids, orientations=orientations)


def reference_normals_from_neighbors(points, idx, nbr_dist, nbr_idx):
    """``normals_from_neighbors`` as a three-operand ``einsum`` scatter of
    unit offsets and Gaussian weights, solved by ``np.linalg.eigh``."""
    diff = points[nbr_idx] - points[idx][:, None, :]
    usable = nbr_dist > 0.0
    u = diff / np.where(usable, nbr_dist, 1.0)[:, :, None]
    sig = nbr_dist.mean(axis=1)
    sig_ok = sig > 0.0
    sig = np.where(sig_ok, sig, 1.0)
    w = np.exp(-(nbr_dist**2) / (2.0 * sig[:, None] ** 2)) * usable
    eigvals, eigvecs = np.linalg.eigh(np.einsum("nk,nki,nkj->nij", w, u, u))
    trace = eigvals.sum(axis=1)
    curvature = np.where(trace > 0.0, eigvals[:, 0] / np.maximum(trace, 1e-300), np.inf)
    valid = (sig_ok & (usable.sum(axis=1) >= 3)
             & (eigvals[:, 1] - eigvals[:, 0] > EIGEN_TIE_RTOL * np.maximum(eigvals[:, 2], 0.0)))
    return np.where(valid[:, None], eigvecs[:, :, 0], np.nan), curvature, valid


def reference_sample_indices(n_points, rate, rng):
    """Partial Fisher-Yates over a full index array, one scalar draw per step."""
    m = min(n_points, max(1, round(rate * n_points)))
    pool = np.arange(n_points, dtype=np.int64)
    for i in range(m):
        j = int(rng.integers(i, n_points))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


def reference_one_point_ransac(samples, params, rng, alive):
    """One-point RANSAC with one scalar draw and one gemv per iteration."""
    pool = np.flatnonzero(alive)
    m = pool.size
    if m <= params.min_inliers:
        raise NoPlaneFound(f"{m} live samples cannot exceed min_inliers={params.min_inliers}")
    positions = samples.positions[pool]
    normals = samples.normals[pool]
    cap = ITERATION_CAP_FACTOR * m
    budget = min(samples.cloud_size, cap)
    best_count = 0
    best_mask = None
    it = 0
    while it < budget:
        pick = int(rng.integers(0, m))
        mask = np.abs((positions - positions[pick]) @ normals[pick]) < params.dist_threshold
        count = int(mask.sum())
        if count > params.min_inliers and count > best_count:
            best_count = count
            best_mask = mask
            budget = adaptive_iterations(params.probability, max(1.0 - count / m, 0.0), cap=cap)
        it += 1
    if best_mask is None:
        raise NoPlaneFound(f"no hypothesis exceeded {params.min_inliers} inliers in {it} iterations")
    winners = pool[best_mask]
    try:
        model = fit_plane(samples.positions[winners], inliers=samples.indices[winners])
    except DegenerateInput as exc:
        raise NoPlaneFound(f"winning inlier set is degenerate: {exc}") from exc
    return RansacResult(model=model, sample_inliers=winners, iterations=it)


def reference_extract_full_inliers(points, model, dist_threshold, active_mask=None):
    """Verification by a full-cloud distance scan, masked afterwards."""
    mask = plane_distances(points, model.centroid, model.normal) < dist_threshold
    if active_mask is not None:
        mask &= active_mask
    idx = np.flatnonzero(mask).astype(np.int64)
    if idx.size >= 3:
        try:
            return fit_plane(points[idx], inliers=idx)
        except DegenerateInput:
            pass
    return PlaneModel(centroid=model.centroid, normal=model.normal, inliers=idx)


def reference_claim_planes(points, planes, dist_threshold):
    """The claim pass as a loop of full-cloud verifications over an active
    mask: each plane in turn takes the active points within the threshold,
    and a plane that takes fewer than 3 is dropped and leaves them active."""
    active_mask = np.ones(points.shape[0], dtype=bool)
    claimed = []
    for plane in planes:
        full = reference_extract_full_inliers(points, plane, dist_threshold, active_mask)
        if full.inlier_count >= 3:
            active_mask[full.inliers] = False
            claimed.append(full)
    return claimed


def reference_detect_grouped(samples, params, rng, up, tol_degrees):
    """Greedy multi-plane detection on the samples alone, with the reference
    RANSAC: each winner retires its sample inliers and every sample within
    the threshold of its model."""
    codes = classify_orientations(samples.normals, up, tol_degrees)
    groups = [codes == int(orient) for orient in GROUP_ORDER]
    alive = np.ones(len(samples), dtype=bool)
    planes = []
    for member in groups:
        while int((alive & member).sum()) > params.min_inliers:
            try:
                result = reference_one_point_ransac(samples, params, rng, alive & member)
            except NoPlaneFound:
                break
            alive[result.sample_inliers] = False
            alive &= ~(plane_distances(samples.positions, result.model.centroid, result.model.normal)
                       < params.dist_threshold)
            planes.append(result.model)
    return planes


def run_python(script, *args):
    """Run ``script`` in a fresh interpreter on this package; return its last stdout line."""
    src = str(Path(planeops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]
