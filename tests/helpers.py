"""Independent brute-force oracles used across test modules.

These deliberately avoid the library's spatial index and assignment solver so
that comparisons stay meaningful.
"""

import itertools

import numpy as np

from planeops import PlaneModel, fit_plane
from planeops.geometry import DegenerateInput, plane_distances


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
