"""Independent brute-force oracles used across test modules.

These deliberately avoid the library's spatial index and assignment solver so
that comparisons stay meaningful.
"""

import itertools
from collections import deque

import numpy as np

from planeops import KdTree, Orientation, PlaneModel, SegmentLabeling, fit_plane
from planeops.geometry import DegenerateInput, as_unit_vector, classify_orientation, plane_distances
from planeops.normals import SampleSet, estimate_normals, normals_from_neighbors, sample_indices
from planeops.ops import (
    GROUP_ORDER,
    ITERATION_CAP_FACTOR,
    NoPlaneFound,
    RansacResult,
    adaptive_iterations,
    sample_orientations,
)


def ops_samples(points, params, rng):
    """Oriented samples drawn as ``run_detect`` draws them: sample, orient,
    drop the degenerate ones."""
    idx = sample_indices(points.shape[0], params.sampling_rate, rng)
    normals, _, valid = estimate_normals(points, KdTree(points), idx, params.k, params.sigma)
    kept = idx[valid]
    return SampleSet(indices=kept, positions=points[kept], normals=normals[valid], cloud_size=points.shape[0])


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


def brute_force_knn(points: np.ndarray, query, k: int, exclude_index=None):
    """k nearest by full scan, ties resolved toward the lower index."""
    q = np.asarray(query, dtype=np.float64)
    dists = np.sqrt(((points - q) ** 2).sum(axis=1))
    idx = np.arange(points.shape[0])
    if exclude_index is not None:
        keep = idx != exclude_index
        dists, idx = dists[keep], idx[keep]
    order = np.lexsort((idx, dists))[:k]
    return dists[order], idx[order]


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
    """Nearest plane wins each multiply-claimed point, by a per-point dict walk.

    Planes are visited in order and a claim only moves on a strictly smaller
    distance, so ties stay with the earlier plane.
    """
    if not planes:
        return []
    all_claims = np.concatenate([p.inliers for p in planes])
    if np.unique(all_claims).size == all_claims.size:
        return [p for p in planes if p.inlier_count > 0]
    claimed: dict[int, int] = {}
    best_dist: dict[int, float] = {}
    for pi, plane in enumerate(planes):
        dists = plane_distances(points[plane.inliers], plane.centroid, plane.normal)
        for idx, d in zip(plane.inliers.tolist(), dists.tolist()):
            if idx not in claimed or d < best_dist[idx]:
                claimed[idx] = pi
                best_dist[idx] = d
    buckets: list[list[int]] = [[] for _ in planes]
    for idx, pi in claimed.items():
        buckets[pi].append(idx)
    return [
        PlaneModel(centroid=plane.centroid, normal=plane.normal, inliers=np.sort(np.asarray(bucket, dtype=np.int64)))
        for plane, bucket in zip(planes, buckets)
        if bucket
    ]


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


def reference_assign_to_planes(points, planes, dist_threshold):
    """Nearest-plane plane ids by one full-cloud distance pass per plane.

    A plane takes a point only at a distance below the threshold and strictly
    below the best so far, so ties stay with the earlier plane.
    """
    ids = np.full(points.shape[0], -1, dtype=np.int32)
    best = np.full(points.shape[0], np.inf)
    for pid, plane in enumerate(planes):
        d = np.abs((points - plane.centroid) @ plane.normal)
        better = (d < dist_threshold) & (d < best)
        ids[better] = pid
        best[better] = d[better]
    return ids


def reference_validate(labeling):
    """SegmentLabeling.validate as a per-segment loop, O(segments x points)."""
    if not np.all(labeling.orientations[labeling.plane_ids < 0] == int(Orientation.OTHER)):
        raise ValueError("unsegmented points must be labeled OTHER")
    for pid in np.unique(labeling.plane_ids[labeling.plane_ids >= 0]):
        if np.unique(labeling.orientations[labeling.plane_ids == pid]).size != 1:
            raise ValueError(f"segment {pid} mixes orientation labels")


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


def reference_generate_ground_truth(points, params):
    """Region growing with a numpy dot product per neighbour test.

    Seeds go lowest curvature first; each region grows breadth-first through
    the k-NN graph, testing every unvisited neighbour against the region
    plane with ``np.dot``, and refits the plane every 64 accepted points.
    """
    n = points.shape[0]
    if n < params.min_plane_size:
        return SegmentLabeling.all_other(n)
    kd = KdTree(points)
    all_idx = np.arange(n, dtype=np.int64)
    nbr_dist, adjacency = kd.knn(points, params.k, exclude_index=all_idx)
    normals, curvature, valid = normals_from_neighbors(points, all_idx, nbr_dist, adjacency, params.sigma)

    cos_tol = np.cos(np.radians(params.normal_angle_degrees))
    visited = ~valid
    plane_ids = np.full(n, -1, dtype=np.int32)
    orientations = np.full(n, int(Orientation.OTHER), dtype=np.int8)
    up = as_unit_vector(params.up)
    next_id = 0
    for seed in np.argsort(curvature, kind="stable").tolist():
        if visited[seed]:
            continue
        visited[seed] = True
        centroid = points[seed].copy()
        normal = normals[seed].copy()
        region = [seed]
        pending = deque([seed])
        since_refit = 0
        while pending:
            i = pending.popleft()
            for j in adjacency[i].tolist():
                if visited[j]:
                    continue
                if abs(float(np.dot(normals[j], normal))) < cos_tol:
                    continue
                if abs(float(np.dot(points[j] - centroid, normal))) >= params.dist_threshold:
                    continue
                visited[j] = True
                region.append(j)
                pending.append(j)
                since_refit += 1
                if since_refit >= 64:
                    since_refit = 0
                    try:
                        refit = fit_plane(points[region])
                        centroid, normal = refit.centroid, refit.normal
                    except DegenerateInput:
                        pass
        if len(region) >= params.min_plane_size:
            member = np.asarray(region, dtype=np.int64)
            try:
                final = fit_plane(points[member])
            except DegenerateInput:
                continue
            orient = classify_orientation(final.normal, up, params.orientation_tol_degrees)
            plane_ids[member] = next_id
            orientations[member] = int(orient)
            next_id += 1
    return SegmentLabeling(plane_ids=plane_ids, orientations=orientations)


def reference_sample_indices(n_points, rate, rng):
    """Partial Fisher-Yates over a full index array, one scalar draw per step."""
    m = min(n_points, max(1, round(rate * n_points)))
    pool = np.arange(n_points, dtype=np.int64)
    for i in range(m):
        j = int(rng.integers(i, n_points))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


def reference_one_point_ransac(samples, params, rng, alive=None):
    """One-point RANSAC with one scalar draw and one gemv per iteration."""
    pool = np.arange(len(samples), dtype=np.int64) if alive is None else np.flatnonzero(alive)
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


def reference_detect_grouped(points, samples, params, rng, up, tol_degrees):
    """Greedy multi-plane detection over a full-cloud claimed-points mask,
    with the reference RANSAC and verification."""
    if params.grouping == "detect_first":
        groups = [np.ones(len(samples), dtype=bool)]
    else:
        codes = sample_orientations(samples, as_unit_vector(up), tol_degrees)
        groups = [codes == int(orient) for orient in GROUP_ORDER]
    alive = np.ones(len(samples), dtype=bool)
    active_mask = np.ones(points.shape[0], dtype=bool)
    planes = []
    for member in groups:
        while int((alive & member).sum()) > params.min_inliers:
            try:
                result = reference_one_point_ransac(samples, params, rng, alive=alive & member)
            except NoPlaneFound:
                break
            full = reference_extract_full_inliers(points, result.model, params.dist_threshold, active_mask)
            alive[result.sample_inliers] = False
            alive &= ~(plane_distances(samples.positions, full.centroid, full.normal) < params.dist_threshold)
            if full.inlier_count >= params.min_inliers:
                active_mask[full.inliers] = False
                planes.append(full)
    return planes
