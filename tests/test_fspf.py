"""Local three-point sampling detector tests."""

import numpy as np
import pytest

from planeops import CloudTooSmall, CollinearSample, FspfParams, KdTree, fspf_detect, gen_synthetic, three_point_normal


def _dense_plane(rng, n=4000, extent=1.0):
    scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [extent, 0, 0], "edge_v": [0, extent, 0], "count": n}]}
    points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=int(rng.integers(1 << 30)))
    return points


class TestThreePointNormal:
    def test_unit_triangle(self):
        n = three_point_normal((0, 0, 0), (1, 0, 0), (0, 1, 0))
        np.testing.assert_allclose(n, [0, 0, 1], atol=1e-15)

    def test_collinear(self):
        with pytest.raises(CollinearSample):
            three_point_normal((0, 0, 0), (1, 0, 0), (2, 0, 0))

    def test_coincident(self):
        with pytest.raises(CollinearSample):
            three_point_normal((1, 1, 1), (1, 1, 1), (0, 1, 0))

    def test_orthogonal_to_edges(self, rng):
        for _ in range(50):
            p0, p1, p2 = rng.normal(size=(3, 3))
            try:
                n = three_point_normal(p0, p1, p2)
            except CollinearSample:
                continue
            assert abs(np.dot(n, p1 - p0)) < 1e-9 * np.linalg.norm(p1 - p0)
            assert abs(np.dot(n, p2 - p0)) < 1e-9 * np.linalg.norm(p2 - p0)


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
        planes, details = fspf_detect(points, KdTree(points), params, np.random.default_rng(5), return_details=True)
        assert planes
        for plane, detail in zip(planes, details):
            anchor = points[detail.anchor_index]
            assert (np.linalg.norm(points[plane.inliers] - anchor, axis=1) <= params.r2 + 1e-12).all()
            offsets = np.abs((points[plane.inliers] - anchor) @ detail.hypothesis_normal)
            assert (offsets < params.dist_threshold).all()

    def test_inlier_budget_stops_loop(self, rng):
        points = _dense_plane(rng)
        params = FspfParams(r1=0.1, r2=0.1, max_inlier_points=100)
        planes, details = fspf_detect(points, KdTree(points), params, np.random.default_rng(2), return_details=True)
        total = sum(d.inlier_draws for d in details)
        assert total >= 100
        assert total <= 100 + params.local_samples

    def test_claim_full_sphere_flag(self, rng):
        points = _dense_plane(rng)
        kd = KdTree(points)
        draws = fspf_detect(points, kd, FspfParams(r1=0.1, r2=0.14), np.random.default_rng(9))
        balls = fspf_detect(points, kd, FspfParams(r1=0.1, r2=0.14, claim_full_sphere=True),
                            np.random.default_rng(9))
        assert len(draws) == len(balls)  # same acceptance sequence
        assert balls[0].inlier_count > draws[0].inlier_count

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
