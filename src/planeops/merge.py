"""Pairwise coplanarity merging of detected planes.

Two planes merge when their normals agree within an angular threshold and
each centroid lies close to the other plane. Merging repeats greedily,
largest pair first, until no pair passes the test, so the output is a
fixpoint of the coplanarity relation.

The pair test runs once over all planes; after each merge only the merged
plane is tested against the survivors, so a merge costs O(P) pair tests
rather than a fresh O(P^2) matrix. A merged plane is fitted from its parts'
moments (point count, mean and centred scatter) in O(1), not by gathering
and refitting the union's points; inlier sets are joined once, at the end.
Agglomerative merging on moments follows Feng, Taguchi & Kamat, "Fast Plane
Extraction in Organized Point Clouds Using Agglomerative Hierarchical
Clustering" (ICRA 2014).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (  # noqa: F401  fit_plane: no caller, kept importable for perfbench's spans
    DegenerateInput,
    PlaneModel,
    combine_moments,
    fit_plane,
    plane_distances,
    plane_normal,
    point_moments,
)

__all__ = ["MergeParams", "coplanar", "dedupe_inliers", "merge_all"]

# Plane pairs handled together when merge_all builds its pair matrix and
# first finds each plane's partner; keeps the (rows, P) and (rows, P, 3)
# temporaries small and in cache at thousands of planes.
PAIR_BLOCK = 2**16


@dataclass
class MergeParams:
    """Coplanarity thresholds; defaults reuse the detector constants."""

    angle_degrees: float = 7.0
    offset: float = 0.05

    def __post_init__(self):
        if self.angle_degrees <= 0.0 or self.offset <= 0.0:
            raise ValueError("merge thresholds must be positive")


def _coplanar_mask(normals_a, centroids_a, normals_b, centroids_b, params: MergeParams) -> np.ndarray:
    """Elementwise three-part coplanarity test between broadcast plane arrays.

    The dot products are spelled out per component, so a pair gets the same
    bits whichever batch it is tested in, and the test is symmetric.
    """

    def dot(u, v):
        return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]

    cos_tol = np.cos(np.radians(params.angle_degrees))
    sep = centroids_b - centroids_a
    return (
        (np.abs(dot(normals_a, normals_b)) >= cos_tol)
        & (np.abs(dot(sep, normals_a)) <= params.offset)  # centroid b against plane a
        & (np.abs(dot(sep, normals_b)) <= params.offset)  # centroid a against plane b
    )


def coplanar(a: PlaneModel, b: PlaneModel, params: MergeParams) -> bool:
    """Three-part test: normal angle plus both centroid-to-plane offsets."""
    return bool(_coplanar_mask(a.normal, a.centroid, b.normal, b.centroid, params))


def dedupe_inliers(planes: list[PlaneModel], points: np.ndarray) -> list[PlaneModel]:
    """Give every multiply-claimed point to the plane it is nearest to.

    Detectors with local verification can claim the same point from several
    planes; metrics need one owner per point. Ties go to the earlier plane.
    Planes left without inliers are dropped; no point is lost.
    """
    if not planes:
        return []
    claims = np.concatenate([p.inliers for p in planes])
    if not (np.bincount(claims) > 1).any():
        return [p for p in planes if p.inlier_count > 0]
    owner = np.repeat(np.arange(len(planes)), [p.inlier_count for p in planes])
    dists = np.concatenate(
        [plane_distances(points[p.inliers], p.centroid, p.normal) for p in planes]
    )
    order = np.lexsort((owner, dists, claims))  # by point, then distance, then plane
    claims, owner = claims[order], owner[order]
    first = np.ones(claims.size, dtype=bool)
    first[1:] = claims[1:] != claims[:-1]
    claims, owner = claims[first], owner[first]
    by_plane = np.argsort(owner, kind="stable")  # keeps each plane's points ascending
    buckets = np.split(claims[by_plane], np.cumsum(np.bincount(owner, minlength=len(planes)))[:-1])
    return [
        PlaneModel(centroid=plane.centroid, normal=plane.normal, inliers=bucket)
        for plane, bucket in zip(planes, buckets)
        if bucket.size
    ]


def merge_all(planes: list[PlaneModel], points: np.ndarray, params: MergeParams) -> list[PlaneModel]:
    """Merge coplanar planes to a fixpoint.

    Overlapping inlier sets are deduplicated first (nearest plane wins), then
    the coplanar pair with the largest combined size merges repeatedly into
    the least-squares plane of the union of their inliers, and the pairs are
    rescanned. When the union cannot determine a plane (fewer than 3 points,
    or collinear), the merged plane keeps the centroid and normal of its
    larger part (the earlier one on a size tie). Ties between pairs go to the
    pair earliest in list order, where the merged plane replaces its two
    parts at the end of the list. The result has no coplanar pair left,
    preserves the total (deduplicated) inlier count, and is sorted by
    descending inlier count.

    Planes live in slots numbered in list order: the P inputs, then one new
    slot per merge. Each row caches its best partner (largest, then earliest
    slot). A merge tests only the merged plane against the survivors, and
    rescans only the rows whose partner it consumed and that are not
    coplanar with the merged plane.

    A merge combines its parts' moments with the pairwise update
    (:func:`~planeops.geometry.combine_moments`) and takes one eigen
    decomposition; an input plane's moments are computed from its inlier
    points the first time it takes part in a merge, about the first plane's
    centroid, so that their means keep their digits far from the origin.
    The merged plane agrees with a refit of the union's points up to
    rounding. A merged slot records its parts' inlier arrays, and each
    surviving plane's inliers are joined and sorted once, at the end.
    """
    current = dedupe_inliers(planes, points)
    p = len(current)
    if p <= 1:
        return current

    cap = 2 * p - 1  # every merge consumes two slots and fills one new one
    moments: list = [None] * cap  # filled on first use for inputs, on creation for merges
    members: list = [[pl.inliers] for pl in current] + [None] * (p - 1)  # inlier arrays, joined at the end
    normals = np.zeros((cap, 3))
    centroids = np.zeros((cap, 3))
    sizes = np.full(cap, -1, dtype=np.int64)  # -1 marks an empty or consumed slot
    normals[:p] = [pl.normal for pl in current]
    centroids[:p] = [pl.centroid for pl in current]
    sizes[:p] = [pl.inlier_count for pl in current]
    ok = np.zeros((cap, cap), dtype=bool)
    step = max(1, PAIR_BLOCK // p)
    for lo in range(0, p, step):
        hi = min(lo + step, p)
        ok[lo:hi, :p] = _coplanar_mask(normals[lo:hi, None], centroids[lo:hi, None],
                                       normals[None, :p], centroids[None, :p], params)
    np.fill_diagonal(ok, False)

    best = np.zeros(cap, dtype=np.int64)  # each row's partner of largest size, earliest slot on ties
    best_size = np.full(cap, -1, dtype=np.int64)  # -1: no coplanar partner

    def rescan(rows):
        cand = np.where(ok[rows], sizes, -1)
        best[rows] = np.argmax(cand, axis=1)
        best_size[rows] = cand[np.arange(len(rows)), best[rows]]

    origin = current[0].centroid

    def slot_moments(slot):
        if moments[slot] is None:
            moments[slot] = point_moments(points[current[slot].inliers] - origin)
        return moments[slot]

    for lo in range(0, p, step):
        rescan(np.arange(lo, min(lo + step, p)))
    for m in range(p, cap):
        score = np.where(best_size >= 0, sizes + best_size, -1)
        a = int(np.argmax(score))  # earliest row of the largest pair; its partner comes later
        if score[a] < 0:
            break
        b = int(best[a])
        union = moments[m] = combine_moments(slot_moments(a), slot_moments(b))
        members[m], members[a], members[b] = members[a] + members[b], None, None
        try:
            normals[m], centroids[m] = plane_normal(union), origin + union.mean
        except DegenerateInput:
            keep = a if sizes[a] >= sizes[b] else b
            normals[m], centroids[m] = normals[keep], centroids[keep]
        sizes[[a, b]] = -1  # rescans read consumed columns as non-partners
        best_size[[a, b]] = -1

        alive = np.flatnonzero(sizes >= 0)
        sizes[m] = union.count  # after alive, so m is not tested against itself
        row = _coplanar_mask(normals[m], centroids[m], normals[alive], centroids[alive], params)
        ok[m, alive] = row
        ok[alive, m] = row
        # No surviving pair outweighed (a, b), so m is larger than any row's
        # partner, consumed or not, and wins wherever it is coplanar. Rows
        # that lost their partner to the merge and are not coplanar with m
        # need a rescan.
        best[alive[row]] = m
        best_size[alive[row]] = sizes[m]
        lost = ~row & ((best[alive] == a) | (best[alive] == b))
        rescan(np.append(alive[lost], m))

    survivors = [
        current[slot] if slot < p else PlaneModel(
            centroid=centroids[slot].copy(), normal=normals[slot].copy(),
            inliers=np.sort(np.concatenate(members[slot])))  # deduped sets are disjoint: the sorted join is the union
        for slot in np.flatnonzero(sizes >= 0).tolist()
    ]
    return sorted(survivors, key=lambda pl: -pl.inlier_count)
