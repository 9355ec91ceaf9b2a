"""Pairwise coplanarity merging of detected planes.

Two planes merge when their normals agree within an angular threshold and
each centroid lies close to the other plane. Merging repeats greedily,
largest pair first, until no pair passes the test, so the output is a
fixpoint of the coplanarity relation.

Merges run in greedy chains that test only the newest plane, and one
falling bound per input plane picks where each chain starts. Consumed planes
stay in their slots until they outnumber the live ones, and are then
squeezed out in one order-preserving gather, so a pair test spans at most
twice the live planes at O(1) amortized cost per merge. A merged plane
is fitted from its parts' moments (count, mean, centred scatter) in O(1),
following Feng, Taguchi & Kamat, "Fast Plane Extraction in Organized Point
Clouds Using Agglomerative Hierarchical Clustering" (ICRA 2014).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (  # noqa: F401  fit_plane: no caller, kept importable for perfbench's spans
    DegenerateInput,
    PlaneModel,
    as_float,
    combine_moments,
    dot3,
    fit_plane,
    plane_normal,
    point_moments,
)

__all__ = ["MergeParams", "coplanar", "dedupe_inliers", "merge_all"]

@dataclass
class MergeParams:
    """Coplanarity thresholds; defaults reuse the detector constants."""

    angle_degrees: float = 7.0
    offset: float = 0.05

    def __post_init__(self):
        self.angle_degrees = as_float(self.angle_degrees, "angle_degrees", 0.0, 90.0)
        self.offset = as_float(self.offset, "offset", 0.0)


def coplanar(normals_a, centroids_a, normals_b, centroids_b, params: MergeParams) -> np.ndarray:
    """Elementwise three-part coplanarity test between broadcast plane arrays.

    Arrays hold one component per row of their first axis, shape (3, ...).
    Each dot product is :func:`~planeops.geometry.dot3`'s, so a pair gets the
    same bits whichever batch it is tested in, and the test is symmetric.
    """
    return _coplanar(normals_a, centroids_a, normals_b, centroids_b, np.cos(np.radians(params.angle_degrees)),
                     params.offset)


def _coplanar(normals_a, centroids_a, normals_b, centroids_b, cos_tol, offset):
    """:func:`coplanar` with the angle already turned into its cosine."""
    sep = centroids_b - centroids_a
    return (
        (np.abs(dot3(normals_a, normals_b)) >= cos_tol)
        & (np.abs(dot3(sep, normals_a)) <= offset)  # centroid b against plane a
        & (np.abs(dot3(sep, normals_b)) <= offset)  # centroid a against plane b
    )


def dedupe_inliers(planes: list[PlaneModel], points: np.ndarray) -> list[PlaneModel]:
    """Give every multiply-claimed point to the first plane that claims it.

    Detectors with local verification can claim the same point from several
    planes; metrics need one owner per point. Walking the planes in list
    order, each keeps the points no earlier plane claimed, as greedy
    extraction does (Schnabel, Wahl & Klein, CGF 2007). A plane that loses
    no point comes back as the same object; one that loses some keeps its
    centroid and normal; one left without points is dropped. No point is lost.
    """
    claimed = np.zeros(points.shape[0], dtype=bool)
    out = []
    for plane in planes:
        kept = plane.inliers[~claimed[plane.inliers]]
        if kept.size:
            claimed[kept] = True
            out.append(plane if kept.size == plane.inlier_count
                       else PlaneModel(centroid=plane.centroid, normal=plane.normal, inliers=kept))
    return out


def merge_all(planes: list[PlaneModel], points: np.ndarray, params: MergeParams) -> list[PlaneModel]:
    """Merge coplanar planes to a fixpoint.

    Overlapping inlier sets are deduplicated first (the first plane to claim
    a point keeps it), then the coplanar pair with the largest combined size
    merges repeatedly into the least-squares plane of the union of their
    inliers. When the union cannot determine a plane (fewer than 3 points, or
    collinear), the merged plane keeps the centroid and normal of its larger
    part (the earlier one on a size tie). Ties between pairs go to the pair
    earliest in list order, where the merged plane replaces its two parts at
    the end of the list. The result has no coplanar pair left, preserves the
    total (deduplicated) inlier count, and is sorted by descending inlier
    count.

    Planes live in slots numbered in list order: the P inputs, then one new
    slot per merge. Merges run in chains. When ``(a, b)`` merges into ``m``,
    ``m``'s size is the largest pair sum so far, so any pair holding ``m``
    outweighs every other: if ``m`` has a coplanar partner, the next merge is
    ``(x, m)`` with ``x`` its largest partner (earliest slot on ties). So a
    merge tests only the new plane against every slot. A chain ends on a
    plane with no partner, which only later chain planes, testing it
    themselves, can join. So a chain starts from the input of largest score,
    its size plus its largest live partner's (earliest input on ties), and
    that partner. Each input keeps a bound on its score, which only falls:
    at first its size plus the largest input size. The input of largest
    bound tests its row; if its score is below the bound, the bound falls to
    it (-1 with no partner), otherwise no input outscores it and it starts.

    A consumed slot stays in place, marked by size -1, until consumed slots
    outnumber live ones among the slots in use. Then one order-preserving
    gather squeezes them out of every per-slot array and list. Ties go to
    the earliest slot and the inputs stay first, so the renumbering changes
    no choice, and a row test spans at most twice the live planes. A squeeze
    costs O(slots in use), and the next one waits until a third of the live
    planes has merged away, so squeezes cost O(1) per merge. Squeezing out
    the two parts of every merge (one ``np.delete`` per merge) cost more
    than the shorter rows saved.

    A merge combines its parts' moments
    (:func:`~planeops.geometry.combine_moments`) and takes one eigen
    decomposition. An input plane's moments are taken the first time it
    merges, about the first plane's centroid, so that means keep their
    digits far from the origin; the merged plane agrees with a refit of the
    union's points up to rounding. Inlier arrays are joined once, at the end.
    """
    current = dedupe_inliers(planes, points)
    p = len(current)
    if p <= 1:
        return current

    cap = 2 * p - 1  # every merge consumes two slots and fills one new one
    inputs = current + [None] * (p - 1)  # the input plane of each input slot
    moments: list = [None] * cap  # filled on first use for inputs, on creation for merges
    members: list = [[pl.inliers] for pl in current] + [None] * (p - 1)  # inlier arrays, joined at the end
    normals, centroids = np.zeros((2, 3, cap))  # one contiguous row per component
    sizes = np.full(cap, -1, dtype=np.int64)  # -1 marks an empty or consumed slot
    normals[:, :p] = np.transpose([pl.normal for pl in current])
    centroids[:, :p] = np.transpose([pl.centroid for pl in current])
    sizes[:p] = [pl.inlier_count for pl in current]
    score = np.full(cap, -1, dtype=np.int64)  # an input's bound on its best pair sum; -1 once spent
    score[:p] = sizes[:p] + sizes[:p].max()
    origin = current[0].centroid
    cos_tol = np.cos(np.radians(params.angle_degrees))

    def partners(slot, upto):
        """Sizes of the live slots below ``upto`` coplanar with ``slot``, 0 or -1 elsewhere."""
        return sizes[:upto] * _coplanar(normals[:, slot, None], centroids[:, slot, None], normals[:, :upto],
                                        centroids[:, :upto], cos_tol, params.offset)

    def slot_moments(slot):
        if moments[slot] is None:
            moments[slot] = point_moments(points[inputs[slot].inliers] - origin)
        return moments[slot]

    def compact(used):
        """Squeeze the consumed slots out of ``[0, used)``, keeping the live
        ones in order; return the slots then in use and the inputs among them."""
        kept = np.flatnonzero(sizes[:used] >= 0)
        k = kept.size
        normals[:, :k], centroids[:, :k] = normals[:, kept], centroids[:, kept]
        for arr in (sizes, score):
            arr[:k], arr[k:used] = arr[kept], -1
        order = kept.tolist()
        for per_slot in (inputs, moments, members):
            per_slot[:k], per_slot[k:used] = [per_slot[i] for i in order], [None] * (used - k)
        return k, int(np.searchsorted(kept, p))

    m = live = p  # the next free slot, and the live slots below it
    while True:
        a = int(score[:m].argmax())  # largest bound, earliest input on ties
        if score[a] < 0:
            break
        cand = partners(a, p)
        cand[a] = 0  # a plane is not its own partner
        b = int(cand.argmax())
        pair = sizes[a] + cand[b] if cand[b] > 0 else -1
        if pair < score[a]:  # the bound was loose: tighten it and look again
            score[a] = pair
            continue
        while True:  # one chain: merge (a, b) into m, then m with its largest partner
            union = moments[m] = combine_moments(slot_moments(a), slot_moments(b))
            members[m], members[a], members[b] = members[a] + members[b], None, None
            try:
                normals[:, m], centroids[:, m] = plane_normal(union), origin + union.mean
            except DegenerateInput:
                keep = a if sizes[a] >= sizes[b] else b
                normals[:, m], centroids[:, m] = normals[:, keep], centroids[:, keep]
            sizes[a] = sizes[b] = score[a] = score[b] = -1
            sizes[m] = union.count
            m, live = m + 1, live - 1
            if m > 2 * live:  # consumed slots outnumber live ones
                m, p = compact(m)
            if live == 1:  # the newest plane is all that is left
                break
            cand = partners(m - 1, m - 1)
            x = int(cand.argmax())
            if cand[x] <= 0:
                break
            a, b = x, m - 1

    survivors = [
        inputs[slot] if slot < p else PlaneModel(
            centroid=centroids[:, slot].copy(), normal=normals[:, slot].copy(),
            inliers=np.sort(np.concatenate(members[slot])))  # deduped sets are disjoint: the sorted join is the union
        for slot in np.flatnonzero(sizes[:m] >= 0).tolist()
    ]
    return sorted(survivors, key=lambda pl: -pl.inlier_count)
