"""Local three-point sampling detector tests."""

import numpy as np
import pytest

from planeops import (
    CloudTooSmall,
    DegenerateInput,
    FspfParams,
    KdTree,
    fit_plane,
    fspf_detect,
    gen_synthetic,
    three_point_normal,
)
from planeops.fspf import BLOCK_ANCHORS, fit_block, score_block

from helpers import brute_force_radius, replay_fspf


def _dense_plane(rng, n=4000, extent=1.0):
    scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [extent, 0, 0], "edge_v": [0, extent, 0], "count": n}]}
    points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=int(rng.integers(1 << 30)))
    return points


class TestThreePointNormal:
    def test_unit_triangle(self):
        n, collinear = three_point_normal((0, 0, 0), (1, 0, 0), (0, 1, 0))
        assert not collinear
        np.testing.assert_allclose(n, [0, 0, 1], atol=1e-15)

    def test_collinear(self):
        _, collinear = three_point_normal((0, 0, 0), (1, 0, 0), (2, 0, 0))
        assert collinear

    def test_coincident(self):
        _, collinear = three_point_normal((1, 1, 1), (1, 1, 1), (0, 1, 0))
        assert collinear

    def test_orthogonal_to_edges(self, rng):
        p0, p1, p2 = rng.normal(size=(3, 50, 3))
        normals, collinear = three_point_normal(p0, p1, p2)
        assert normals.shape == (50, 3) and collinear.shape == (50,)
        for n, a, b in zip(normals[~collinear], (p1 - p0)[~collinear], (p2 - p0)[~collinear]):
            assert abs(np.dot(n, a)) < 1e-9 * np.linalg.norm(a)
            assert abs(np.dot(n, b)) < 1e-9 * np.linalg.norm(b)

    def test_stack_equals_single_triples(self, rng):
        p = rng.normal(size=(40, 3, 3))
        p[:5, 2] = p[:5, 0] + 2.0 * (p[:5, 1] - p[:5, 0])  # collinear rows
        p[5:8, 1] = p[5:8, 0]  # coincident rows
        normals, collinear = three_point_normal(p[:, 0], p[:, 1], p[:, 2])
        assert collinear[5:8].all()
        for row in range(p.shape[0]):
            n, c = three_point_normal(*p[row])
            assert c == collinear[row]
            if not c:
                np.testing.assert_array_equal(n, normals[row])
                reference = np.cross(p[row, 1] - p[row, 0], p[row, 2] - p[row, 0])
                np.testing.assert_allclose(np.abs(n), np.abs(reference) / np.linalg.norm(reference), atol=1e-12)
                assert n[np.argmax(np.abs(n))] > 0


def _mixed_cloud(rng):
    """A dense noisy plane, a line of points, a few coincident points and
    isolated points: rows of every kind (accepted, collinear, thin)."""
    plane = _dense_plane(rng, n=3000)
    line = np.column_stack([np.linspace(0, 1, 200), np.full(200, 2.0), np.full(200, 0.5)])
    stack = np.repeat([[3.0, 3.0, 3.0]], 4, axis=0)
    lonely = rng.uniform(5, 9, size=(20, 3))
    return np.vstack([plane, line, stack, lonely])


def _scalar_hypothesis(points, params, anchor, fractions):
    """One hypothesis recomputed from full-scan spheres, as a loop over
    single anchors would: (companions, normal, collinear, draws, inliers),
    or None when the r1 sphere is too thin."""
    p0 = points[anchor]
    near = brute_force_radius(points, p0, params.r1)
    near = near[near != anchor]
    if near.size < 2:
        return None
    first = int(fractions[0] * near.size)
    second = int(fractions[1] * (near.size - 1))
    second += second >= first
    companions = near[[first, second]]
    normal, collinear = three_point_normal(p0, points[companions[0]], points[companions[1]])
    sphere = brute_force_radius(points, p0, params.r2)
    draws = sphere[(fractions[2:] * sphere.size).astype(np.int64)]
    offsets = sum((points[draws, axis] - p0[axis]) * normal[axis] for axis in range(3))
    return companions, normal, bool(collinear), draws, int((np.abs(offsets) < params.dist_threshold).sum())


class TestScoreBlock:
    @pytest.mark.parametrize("r1, r2", [(0.07, 0.14), (0.1, 0.05)])
    def test_matches_scalar_recomputation(self, rng, r1, r2):
        points = _mixed_cloud(rng)
        kd = KdTree(points)
        params = FspfParams(r1=r1, r2=r2, local_samples=30)
        m = 400
        anchors = np.concatenate([rng.integers(0, points.shape[0], size=m - 30),
                                  np.arange(points.shape[0] - 30, points.shape[0])])
        fractions = rng.random((m, params.local_samples - 1))
        fractions[:10] = np.nextafter(1.0, 0.0)  # the largest fraction stays in range
        block = score_block(points, kd, params, anchors, fractions)
        kinds = set()
        for row in range(m):
            expected = _scalar_hypothesis(points, params, anchors[row], fractions[row])
            if expected is None:
                kinds.add("thin")
                assert block.companions[row].tolist() == [-1, -1]
                continue
            companions, normal, collinear, draws, inliers = expected
            np.testing.assert_array_equal(block.companions[row], companions)
            assert block.collinear[row] == collinear
            np.testing.assert_array_equal(block.draws[row], draws)
            if collinear:
                kinds.add("collinear")
                continue
            kinds.add("hypothesis")
            np.testing.assert_array_equal(block.normals[row], normal)
            assert block.inliers[row] == inliers
            assert block.inlier_mask[row].sum() == inliers
        assert kinds == {"thin", "collinear", "hypothesis"}


def test_fit_block_matches_fit_plane_per_row(rng):
    """Every row's claims are its distinct inlier draws, and its stacked fit is fit_plane on them: the same verdict, normals within
    1e-12, centroids within 1e-12. The cloud adds points a few ulps apart,
    one spot that only rounding spreads out."""
    near_spot = -3.0 + rng.normal(scale=1e-15, size=(40, 3))
    points = np.vstack([_mixed_cloud(rng), near_spot])
    kd = KdTree(points)
    params = FspfParams(r1=0.07, r2=0.14, local_samples=30)
    anchors = np.concatenate([rng.integers(0, points.shape[0], size=370),
                              np.arange(points.shape[0] - 70, points.shape[0])])
    block = score_block(points, kd, params, anchors, rng.random((anchors.size, params.local_samples - 1)))
    rows = np.flatnonzero(block.companions[:, 0] >= 0)
    fit = fit_block(points, block, rows)
    verdicts = set()
    for i, row in enumerate(rows.tolist()):
        claimed = np.unique(block.draws[row][block.inlier_mask[row]])
        np.testing.assert_array_equal(fit.claims[i][fit.keep[i]], claimed)
        try:
            want = fit_plane(points[claimed])
        except DegenerateInput:
            verdicts.add("degenerate")
            assert not fit.usable[i]
            continue
        verdicts.add("plane")
        assert fit.usable[i]
        assert np.abs(fit.normals[i] - want.normal).max() <= 1e-12
        assert np.abs(fit.centroids[i] - want.centroid).max() <= 1e-12
    assert verdicts == {"degenerate", "plane"}


class _CountingTree(KdTree):
    """Records how many centres each radius query answered, per radius."""

    def __init__(self, points):
        super().__init__(points)
        self.centres = {}

    def radius_search(self, center, radius):
        self.centres.setdefault(radius, []).append(len(np.atleast_2d(center)))
        return super().radius_search(center, radius)


class TestBlockBoundaries:
    @pytest.mark.parametrize("iterations", [1, BLOCK_ANCHORS - 1, BLOCK_ANCHORS, BLOCK_ANCHORS + 1])
    def test_runs_exactly_max_iterations(self, rng, iterations):
        points = _dense_plane(rng, n=2000)
        kd = _CountingTree(points)
        params = FspfParams(r1=0.1, r2=0.14, max_iterations=iterations, max_inlier_points=10**9)
        planes = fspf_detect(points, kd, params, np.random.default_rng(6))
        full, rest = divmod(iterations, BLOCK_ANCHORS)
        blocks = [BLOCK_ANCHORS] * full + [rest] * (rest > 0)
        assert kd.centres == {0.1: blocks, 0.14: blocks}
        assert 0 < len(planes) <= iterations

    def test_next_block_extends_the_first(self, rng):
        points = _dense_plane(rng, n=2000)
        kd = KdTree(points)
        runs = [fspf_detect(points, kd, FspfParams(r1=0.1, r2=0.14, max_iterations=iterations,
                                                   max_inlier_points=10**9), np.random.default_rng(6))
                for iterations in (BLOCK_ANCHORS, BLOCK_ANCHORS + 1)]
        assert len(runs[1]) - len(runs[0]) in (0, 1)
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a.inliers, b.inliers)

    def test_budget_ends_mid_block(self, rng):
        points = _dense_plane(rng, n=2000)
        kd = KdTree(points)
        unlimited = FspfParams(r1=0.1, r2=0.14, max_iterations=BLOCK_ANCHORS, max_inlier_points=10**9)
        planes, replayed = _detect_and_replay(points, kd, unlimited, 6)
        assert len(planes) > 5
        budget = sum(r.inlier_draws for r in replayed[:3]) - 1
        limited = FspfParams(r1=0.1, r2=0.14, max_iterations=BLOCK_ANCHORS, max_inlier_points=budget)
        cut, cut_replayed = _detect_and_replay(points, kd, limited, 6)
        assert len(cut) == 3
        for a, b in zip(cut, planes):
            np.testing.assert_array_equal(a.inliers, b.inliers)
        assert [r.anchor for r in cut_replayed] == [r.anchor for r in replayed[:3]]


def _detect_and_replay(points, kd, params, seed):
    """``fspf_detect``'s planes and their replayed hypotheses, which must
    claim the same inliers in the same order."""
    planes = fspf_detect(points, kd, params, np.random.default_rng(seed))
    replayed = replay_fspf(points, kd, params, np.random.default_rng(seed))
    assert len(replayed) == len(planes)
    for plane, hypothesis in zip(planes, replayed):
        np.testing.assert_array_equal(plane.inliers, hypothesis.inliers)
    return planes, replayed


class TestFspfDetect:
    def test_single_dense_plane(self, rng):
        points = _dense_plane(rng)
        params = FspfParams(r1=0.1, r2=0.1, min_inlier_fraction=0.8)
        planes = fspf_detect(points, KdTree(points), params, np.random.default_rng(3))
        assert len(planes) >= 1
        angles = [np.degrees(np.arccos(np.clip(abs(p.normal[2]), 0, 1))) for p in planes]
        assert min(angles) < 3.0

    def test_noise_cube_rarely_accepts(self):
        # Needs a dense cloud: with only a handful of distinct points in the
        # verification sphere, repeated draws of a lucky subset can pass the
        # inlier-fraction gate even on pure noise.
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(30000, 3))
        params = FspfParams(
            r1=0.05, r2=0.1, min_inlier_fraction=0.8, dist_threshold=0.05,
            max_iterations=2000, max_inlier_points=10**9,
        )
        planes = fspf_detect(points, KdTree(points), params, np.random.default_rng(1))
        assert len(planes) / params.max_iterations < 0.05

    def test_zero_iterations(self, rng):
        points = _dense_plane(rng, n=200)
        planes = fspf_detect(points, KdTree(points), FspfParams(max_iterations=0), np.random.default_rng(0))
        assert planes == []

    def test_cloud_smaller_than_local_samples(self):
        points = np.random.default_rng(1).uniform(size=(40, 3))
        with pytest.raises(CloudTooSmall):
            fspf_detect(points, KdTree(points), FspfParams(local_samples=80), np.random.default_rng(0))

    def test_inliers_local_and_within_threshold(self, rng):
        points = _dense_plane(rng)
        params = FspfParams(r1=0.07, r2=0.14)
        planes, replayed = _detect_and_replay(points, KdTree(points), params, 5)
        assert planes
        for plane, hypothesis in zip(planes, replayed):
            anchor = points[hypothesis.anchor]
            assert (np.linalg.norm(points[plane.inliers] - anchor, axis=1) <= params.r2 + 1e-12).all()
            offsets = np.abs((points[plane.inliers] - anchor) @ hypothesis.normal)
            assert (offsets < params.dist_threshold).all()

    def test_inlier_budget_stops_loop(self, rng):
        points = _dense_plane(rng)
        params = FspfParams(r1=0.1, r2=0.1, max_inlier_points=100)
        _, replayed = _detect_and_replay(points, KdTree(points), params, 2)
        total = sum(r.inlier_draws for r in replayed)
        assert total >= 100
        assert total <= 100 + params.local_samples

    def test_deterministic_given_seed(self, rng):
        points = _dense_plane(rng)
        kd = KdTree(points)
        params = FspfParams(r1=0.08, r2=0.16)
        a = fspf_detect(points, kd, params, np.random.default_rng(11))
        b = fspf_detect(points, kd, params, np.random.default_rng(11))
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.inliers, pb.inliers)
            np.testing.assert_array_equal(pa.normal, pb.normal)

    def test_plane_count_bounded_by_iterations(self, rng):
        points = _dense_plane(rng, n=1000)
        params = FspfParams(r1=0.2, r2=0.2, max_iterations=50, max_inlier_points=10**9)
        planes = fspf_detect(points, KdTree(points), params, np.random.default_rng(4))
        assert len(planes) <= 50
