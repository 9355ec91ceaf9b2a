"""Coplanarity merging tests: the pair test, fixpoints, conservation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_plane_soup, reference_dedupe_inliers, reference_merge_all
from planeops import DegenerateInput, MergeParams, PlaneModel, coplanar, fit_plane, merge_all
from planeops.merge import dedupe_inliers


def _plane(centroid, normal, inliers=()):
    n = np.asarray(normal, dtype=float)
    return PlaneModel(centroid=centroid, normal=n / np.linalg.norm(n), inliers=np.asarray(inliers, dtype=np.int64))


def _tilted_normal(degrees):
    a = math.radians(degrees)
    return (math.sin(a), 0.0, math.cos(a))


class TestCoplanar:
    def test_identical_planes(self):
        a = _plane((0, 0, 0), (0, 0, 1))
        assert coplanar(a, a, MergeParams())

    def test_in_plane_offset(self):
        a = _plane((0, 0, 0), (0, 0, 1))
        b = _plane((1, 1, 0), (0, 0, 1))
        assert coplanar(a, b, MergeParams())

    def test_parallel_but_separated(self):
        a = _plane((0, 0, 0), (0, 0, 1))
        b = _plane((0, 0, 0.2), (0, 0, 1))
        assert not coplanar(a, b, MergeParams(offset=0.05))

    def test_angle_threshold(self):
        a = _plane((0, 0, 0), (0, 0, 1))
        assert coplanar(a, _plane((0, 0, 0), _tilted_normal(6.0)), MergeParams(angle_degrees=7.0))
        assert not coplanar(a, _plane((0, 0, 0), _tilted_normal(8.0)), MergeParams(angle_degrees=7.0))

    def test_flipped_normal_equivalent(self):
        a = _plane((0, 0, 0), (0, 0, 1))
        b = _plane((0.5, 0.5, 0), (0, 0, -1))
        assert coplanar(a, b, MergeParams())


class TestDedupeInliers:
    def test_disjoint_sets_untouched(self, rng):
        points = rng.normal(size=(20, 3))
        a = _plane((0, 0, 0), (0, 0, 1), inliers=range(10))
        b = _plane((0, 0, 1), (0, 0, 1), inliers=range(10, 20))
        out = dedupe_inliers([a, b], points)
        np.testing.assert_array_equal(out[0].inliers, a.inliers)
        np.testing.assert_array_equal(out[1].inliers, b.inliers)

    def test_shared_point_goes_to_nearest(self):
        points = np.array([[0, 0, 0.1], [5, 5, 5]])
        near = _plane((0, 0, 0.08), (0, 0, 1), inliers=[0])
        far = _plane((0, 0, 1.0), (0, 0, 1), inliers=[0])
        out = dedupe_inliers([near, far], points)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].inliers, [0])
        assert out[0].centroid[2] == pytest.approx(0.08)


@st.composite
def split_unions(draw):
    """A point set, a split of it into two nonempty runs, and a centre for
    the parts' planes, for one merge.

    The union is a noisy plane patch, a thin strip, points on one line, or
    one repeated point, with 2 to 300 points, near the origin or about 10^3 m
    from it, where raw sums of coordinates would lose most of their digits.
    The centre lies about 1 m off the points, so the merge takes the parts'
    moments about a point other than their own.

    Points sit at distinct steps along the patch and alternate between its
    two long edges, so even three points span its full width: a plane's
    normal is only defined to about eps * (length / width)**2, and a few
    random points in a strip could lie on a line by chance.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.sampled_from([2, 3, 4, 7, 40, 300]), label="points")
    split = draw(st.integers(1, n - 1), label="split")
    kind = draw(st.sampled_from(["plane", "strip", "line", "spot"]), label="kind")
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    u, v, w = basis.T
    origin = rng.normal(size=3) * draw(st.sampled_from([1.0, 1e3]), label="offset")
    along = rng.permutation(np.linspace(-1, 1, n))[:, None]
    across = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
    if kind == "plane":
        points = origin + along * u + across * v + rng.normal(scale=0.005, size=(n, 1)) * w
    elif kind == "strip":
        points = origin + along * u + draw(st.sampled_from([3e-3, 1e-2]), label="width") * across * v
    elif kind == "line":
        points = origin + along * u
    else:
        points = np.repeat(origin[None], n, axis=0)
    return points, split, points[0] + rng.normal(size=3)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=split_unions())
def test_merge_fits_like_fit_plane_on_the_union(case):
    """A merge fitted from its parts' moments against fit_plane on the union.

    Where fit_plane fits the union, the merged plane agrees within 1e-9 on
    the normal and 1e-9 relative on the centroid. Where it raises, the merge
    keeps the larger part's centroid and normal, the first part's on a tie.
    """
    points, split, centre = case
    n = points.shape[0]
    tilted = (math.sin(math.radians(1.0)), 0.0, math.cos(math.radians(1.0)))
    a = _plane(centre, (0, 0, 1), inliers=range(split))
    b = _plane(centre + 0.01, tilted, inliers=range(split, n))  # coplanar with a under the defaults
    (merged,) = merge_all([a, b], points, MergeParams())
    np.testing.assert_array_equal(merged.inliers, np.arange(n))
    try:
        want = fit_plane(points)
    except DegenerateInput:
        keep = a if split >= n - split else b
        assert merged.normal.tobytes() == keep.normal.tobytes()
        assert merged.centroid.tobytes() == keep.centroid.tobytes()
        return
    assert np.abs(merged.normal - want.normal).max() <= 1e-9
    assert np.abs(merged.centroid - want.centroid).max() <= 1e-9 * max(1.0, np.abs(want.centroid).max())


def _split_wall(rng, n=1200):
    """One planar wall detected as two half-planes."""
    x = rng.uniform(0, 2, size=n)
    z = rng.uniform(0, 2, size=n)
    points = np.column_stack([x, np.zeros(n), z]) + rng.normal(scale=0.004, size=(n, 3))
    left = np.flatnonzero(x < 1.0)
    right = np.flatnonzero(x >= 1.0)
    a = fit_plane(points[left], inliers=left)
    b = fit_plane(points[right], inliers=right)
    return points, a, b


class TestMergeAll:
    def test_two_halves_of_a_wall(self, rng):
        points, a, b = _split_wall(rng)
        merged = merge_all([a, b], points, MergeParams())
        assert len(merged) == 1
        assert merged[0].inlier_count == points.shape[0]
        angle = np.degrees(np.arccos(np.clip(abs(merged[0].normal[1]), 0, 1)))
        assert angle < 1.0

    def test_orthogonal_planes_untouched(self, rng):
        n = 500
        floor_pts = np.column_stack([rng.uniform(0, 2, (n, 2)), np.zeros(n)])
        wall_pts = np.column_stack([rng.uniform(0, 2, n), np.zeros(n), rng.uniform(0, 2, n)])
        points = np.vstack([floor_pts, wall_pts])
        floor = fit_plane(points[:n], inliers=range(n))
        wall = fit_plane(points[n:], inliers=range(n, 2 * n))
        merged = merge_all([floor, wall], points, MergeParams())
        assert len(merged) == 2

    def test_exact_copies_collapse(self, rng):
        points = np.column_stack([rng.uniform(0, 1, (100, 2)), np.zeros(100)])
        plane = fit_plane(points, inliers=range(100))
        copies = [PlaneModel(plane.centroid, plane.normal, plane.inliers) for _ in range(4)]
        merged = merge_all(copies, points, MergeParams())
        assert len(merged) == 1
        assert merged[0].inlier_count == 100

    def test_fixpoint_and_idempotence(self, rng):
        points, planes = random_plane_soup(rng)
        params = MergeParams()
        merged = merge_all(planes, points, params)
        for i, a in enumerate(merged):
            for b in merged[i + 1:]:
                assert not coplanar(a, b, params)
        again = merge_all(merged, points, params)
        assert len(again) == len(merged)
        for x, y in zip(again, merged):
            np.testing.assert_array_equal(x.inliers, y.inliers)

    def test_conservation_and_count(self, rng):
        points, planes = random_plane_soup(rng)
        total_before = len(np.unique(np.concatenate([p.inliers for p in planes])))
        merged = merge_all(planes, points, MergeParams())
        total_after = sum(p.inlier_count for p in merged)
        assert total_after == total_before
        assert len(merged) <= len(planes)

    def test_empty_and_single(self, rng):
        points = rng.normal(size=(10, 3))
        assert merge_all([], points, MergeParams()) == []
        single = _plane((0, 0, 0), (0, 0, 1), inliers=range(5))
        out = merge_all([single], points, MergeParams())
        assert len(out) == 1

    def test_output_sorted_by_size(self, rng):
        points, planes = random_plane_soup(rng)
        merged = merge_all(planes, points, MergeParams())
        sizes = [p.inlier_count for p in merged]
        assert sizes == sorted(sizes, reverse=True)


def _assert_same_planes(got, want):
    """Bit-identical plane lists: order, inliers, normals and centroids."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x.inliers, y.inliers)
        assert x.normal.tobytes() == y.normal.tobytes()
        assert x.centroid.tobytes() == y.centroid.tobytes()


def _assert_same_merge(got, want):
    """Merged plane lists with identical order and inliers whose fits agree within 1e-9.

    ``merge_all`` fits a merged plane from its parts' moments, the reference
    refits the union's points; the two round differently in the last bits.
    Centroids are compared relative to their magnitude.
    """
    assert len(got) == len(want)
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x.inliers, y.inliers)
        assert np.abs(x.normal - y.normal).max() <= 1e-9
        assert np.abs(x.centroid - y.centroid).max() <= 1e-9 * max(1.0, np.abs(y.centroid).max())


# Multiples of a merge threshold straddling 1, so pairs land just inside and
# just outside the angle and offset tests.
NEAR_THRESHOLD = [0.0, 0.3, 0.97, 0.999, 1.001, 1.03, 2.0]


@st.composite
def fragment_sets(draw):
    """Fragments of a few base planes, with ties, near-threshold pairs and chains.

    Each fragment is a small patch tilted and shifted off its base plane by a
    multiple of the merge thresholds, stepped along the plane so merges chain.
    Sizes come from a short list so combined sizes tie; some patches lie on
    one shared line, so their unions cannot be refit; some fragments claim
    points of others, so deduplication runs first.
    """
    angle = draw(st.sampled_from([5.0, 7.0, 10.0]), label="angle")
    offset = draw(st.sampled_from([0.02, 0.05, 0.075]), label="offset")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    chunks, planes, start = [], [], 0
    for _ in range(draw(st.integers(1, 3), label="bases")):
        base = rng.normal(size=3)
        base /= np.linalg.norm(base)
        u = np.cross(base, [1.0, 0.0, 0.0] if abs(base[0]) < 0.9 else [0.0, 1.0, 0.0])
        u /= np.linalg.norm(u)
        v = np.cross(base, u)
        origin = rng.uniform(-2, 2, size=3)
        step = draw(st.sampled_from([0.1, 0.4, 1.0]), label="step")
        for k in range(draw(st.integers(1, 8), label="fragments")):
            size = draw(st.sampled_from([3, 4, 6, 6, 10]), label="size")
            tilt = np.radians(angle * draw(st.sampled_from(NEAR_THRESHOLD)) * draw(st.sampled_from([-1, 1])))
            shift = offset * draw(st.sampled_from(NEAR_THRESHOLD)) * draw(st.sampled_from([-1, 1]))
            normal = np.cos(tilt) * base + np.sin(tilt) * u
            along = np.cos(tilt) * u - np.sin(tilt) * base
            coords = rng.uniform(-0.3, 0.3, size=(size, 2))
            if draw(st.integers(0, 3), label="collinear") == 0:  # on the base plane's u axis
                pts = origin + (k * step + coords[:, :1]) * u
            else:
                pts = origin + k * step * u + shift * base + coords[:, :1] * along + coords[:, 1:] * v
            chunks.append(pts)
            planes.append(PlaneModel(centroid=pts.mean(axis=0), normal=normal,
                                     inliers=np.arange(start, start + size)))
            start += size
    for plane in planes:
        if draw(st.integers(0, 3), label="steal") == 0:
            plane.inliers = np.union1d(plane.inliers, rng.choice(start, size=3))
    return np.vstack(chunks), planes, MergeParams(angle_degrees=angle, offset=offset)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=fragment_sets())
def test_merge_all_matches_full_rescan_reference(case):
    points, planes, params = case
    _assert_same_merge(merge_all(planes, points, params), reference_merge_all(planes, points, params))


def test_merge_all_matches_reference_on_size_ties():
    """Six equal fragments of one wall: every pair ties, so list order decides."""
    x = np.repeat(np.arange(6.0), 4) + np.tile([0.0, 0.5, 0.0, 0.5], 6)
    z = np.tile([0.0, 0.0, 0.5, 0.5], 6)
    points = np.column_stack([x, np.zeros(24), z])
    planes = [fit_plane(points[i:i + 4], inliers=np.arange(i, i + 4)) for i in range(0, 24, 4)]
    for params in (MergeParams(), MergeParams(angle_degrees=10.0, offset=0.075)):
        _assert_same_planes(merge_all(planes, points, params), reference_merge_all(planes, points, params))
    assert len(merge_all(planes, points, MergeParams())) == 1


claim_sets = st.lists(st.lists(st.integers(0, 11), max_size=12, unique=True), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(claims=claim_sets, data=st.data())
def test_dedupe_matches_dict_reference(claims, data):
    """Grid points and axis planes at half-integer heights make equal distances common."""
    points = np.array([[i % 3, (i // 3) % 2, i // 6] for i in range(12)], dtype=float)
    planes = []
    for inliers in claims:
        axis = data.draw(st.integers(0, 2), label="axis")
        height = data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]), label="height")
        normal = np.eye(3)[axis]
        planes.append(PlaneModel(centroid=normal * height, normal=normal, inliers=np.sort(inliers)))
    _assert_same_planes(dedupe_inliers(planes, points), reference_dedupe_inliers(planes, points))


def test_dedupe_three_claimants_and_losers():
    """A point claimed three times at equal distance stays with the first claimant;
    a plane that loses every point is dropped."""
    points = np.array([[0, 0, 0.5], [0, 0, 2.0], [0, 0, 0.1]])
    low = _plane((0, 0, 0), (0, 0, 1), inliers=[0, 2])
    high = _plane((0, 0, 1), (0, 0, 1), inliers=[0, 1])
    loser = _plane((0, 0, 1), (0, 0, 1), inliers=[0, 2])
    top = _plane((0, 0, 2), (0, 0, 1), inliers=[1])
    out = dedupe_inliers([low, high, loser, top], points)
    _assert_same_planes(out, reference_dedupe_inliers([low, high, loser, top], points))
    assert [p.inliers.tolist() for p in out] == [[0, 2], [1]]
    assert out[1].centroid[2] == 2.0
