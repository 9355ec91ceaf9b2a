"""One-point RANSAC detector tests."""

import math

import numpy as np
import pytest

from planeops import (
    NoPlaneFound,
    OpsParams,
    Orientation,
    PlaneModel,
    SampleSet,
    adaptive_iterations,
    classify_orientation,
    detect_grouped,
    extract_full_inliers,
    gen_synthetic,
    make_box_room,
    one_point_ransac,
)

from helpers import ops_samples

UP = (0.0, 0.0, 1.0)
TOL = 7.0


def _detect(points, params, seed):
    """Sample and detect on one generator seeded with ``seed``, as a run does."""
    rng = np.random.default_rng(seed)
    return detect_grouped(points, ops_samples(points, params, rng), params, rng, UP, TOL)


def _orientations(planes):
    return [classify_orientation(p.normal, UP, TOL) for p in planes]


def _sample_set(positions, normals, cloud_size=None):
    positions = np.asarray(positions, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = positions.shape[0]
    return SampleSet(
        indices=np.arange(n, dtype=np.int64),
        positions=positions,
        normals=normals,
        cloud_size=cloud_size or n,
    )


def _plane_samples(rng, n, z=0.0, jitter=0.0):
    xy = rng.uniform(-1, 1, size=(n, 2))
    pts = np.column_stack([xy, np.full(n, z)])
    if jitter:
        pts = pts + rng.normal(scale=jitter, size=pts.shape)
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    return pts, normals


class TestAdaptiveIterations:
    def test_reference_value(self):
        assert adaptive_iterations(0.99, 0.5) == 7

    def test_zero_outliers(self):
        assert adaptive_iterations(0.99, 0.0) == 1

    def test_high_outlier_fraction(self):
        assert adaptive_iterations(0.99, 0.99) == 459

    def test_matches_closed_form_on_grid(self):
        for e in np.arange(0.1, 0.95, 0.1):
            expected = math.ceil(math.log(1 - 0.99) / math.log(e))
            assert adaptive_iterations(0.99, float(e)) == expected

    def test_monotone_in_e(self):
        values = [adaptive_iterations(0.99, e) for e in np.arange(0.0, 0.95, 0.1)]
        assert values == sorted(values)

    def test_monotone_in_p(self):
        values = [adaptive_iterations(p, 0.5) for p in (0.5, 0.9, 0.99, 0.999)]
        assert values == sorted(values)

    def test_cap(self):
        assert adaptive_iterations(0.99, 0.99, cap=100) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            adaptive_iterations(1.0, 0.5)
        with pytest.raises(ValueError):
            adaptive_iterations(0.99, 1.0)


class TestOnePointRansac:
    def test_pure_plane_terminates_fast(self, rng):
        pts, normals = _plane_samples(rng, 100)
        result = one_point_ransac(_sample_set(pts, normals), OpsParams(min_inliers=20), rng)
        assert result.iterations <= 2
        assert len(result.sample_inliers) == 100

    def test_prefers_dominant_plane(self, rng):
        pts_a, n_a = _plane_samples(rng, 70, z=0.0, jitter=0.002)
        pts_b, n_b = _plane_samples(rng, 30, z=1.0, jitter=0.002)
        samples = _sample_set(np.vstack([pts_a, pts_b]), np.vstack([n_a, n_b]))
        result = one_point_ransac(samples, OpsParams(min_inliers=20, dist_threshold=0.05), rng)
        assert set(result.sample_inliers.tolist()) == set(range(70))
        assert abs(result.model.centroid[2]) < 0.01

    def test_scattered_points_fail(self, rng):
        pts = rng.uniform(0, 1, size=(10, 3))
        normals = rng.normal(size=(10, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        with pytest.raises(NoPlaneFound):
            one_point_ransac(_sample_set(pts, normals), OpsParams(min_inliers=20), rng)

    def test_all_inliers_within_threshold(self, rng):
        pts, normals = _plane_samples(rng, 200, jitter=0.01)
        params = OpsParams(min_inliers=20, dist_threshold=0.05)
        result = one_point_ransac(_sample_set(pts, normals), params, rng)
        d = np.abs((pts[result.sample_inliers] - result.model.centroid) @ result.model.normal)
        assert (d < 2 * params.dist_threshold).all()  # refit can shift the plane slightly


class TestExtractFullInliers:
    def test_recovers_wall_from_sparse_sample(self, rng):
        wall = np.column_stack([
            rng.uniform(0, 2, size=10000),
            np.zeros(10000),
            rng.uniform(0, 2, size=10000),
        ]) + rng.normal(scale=0.005, size=(10000, 3))
        hypo = PlaneModel(centroid=wall[:300].mean(axis=0), normal=(0, 1, 0))
        full = extract_full_inliers(wall, hypo, 0.05)
        assert full.inlier_count >= 0.99 * 10000

    def test_respects_active_mask(self, rng):
        pts, _ = _plane_samples(rng, 100)
        mask = np.zeros(100, dtype=bool)
        mask[50:] = True
        model = PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1))
        full = extract_full_inliers(pts, model, 0.05, active_mask=mask)
        assert full.inliers.min() >= 50

    def test_no_points_in_reach(self, rng):
        pts, _ = _plane_samples(rng, 50, z=5.0)
        model = PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1))
        full = extract_full_inliers(pts, model, 0.05)
        assert full.inlier_count == 0
        np.testing.assert_array_equal(full.normal, model.normal)


class TestDetectAllPlanes:
    def test_box_room(self, rng):
        # 5 m faces keep the unavoidable edge strips (points of one face
        # within dist_threshold of the adjacent face's plane) under 5%.
        points, truth = make_box_room(size=5.0, clutter=0, seed=11)
        params = OpsParams(sampling_rate=0.05, k=10, min_inliers=20, grouping="detect_first")
        planes = _detect(points, params, 4)
        assert len(planes) == 6
        for plane in planes:
            true_ids = truth.plane_ids[plane.inliers]
            vals, counts = np.unique(true_ids, return_counts=True)
            assert counts.max() / plane.inlier_count >= 0.95

    def test_single_plane(self, rng):
        scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 2000}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=2)
        planes = _detect(points, OpsParams(sampling_rate=0.1, k=10, grouping="detect_first"), 1)
        assert len(planes) == 1

    def test_uniform_noise_yields_little(self, rng):
        points = rng.uniform(0, 1, size=(2000, 3))
        planes = _detect(points, OpsParams(sampling_rate=0.2, k=10, min_inliers=20, grouping="detect_first"), 9)
        for plane in planes:
            assert plane.inlier_count <= 0.3 * 2000

    def test_disjoint_inliers_and_threshold(self):
        points, _ = make_box_room(clutter=300, seed=5)
        params = OpsParams(sampling_rate=0.05, k=10, grouping="detect_first")
        planes = _detect(points, params, 5)
        seen = np.zeros(points.shape[0], dtype=bool)
        for plane in planes:
            assert plane.inlier_count >= params.min_inliers
            assert not seen[plane.inliers].any()
            seen[plane.inliers] = True
            # inliers are claimed within dist_threshold of the pre-refit
            # hypothesis; refitting can tilt the plane, moving far-edge
            # points by a few extra centimeters at room scale
            d = np.abs((points[plane.inliers] - plane.centroid) @ plane.normal)
            assert (d < 2 * params.dist_threshold).all()

    def test_deterministic_given_seed(self):
        points, _ = make_box_room(points_per_face=400, clutter=100, seed=3)
        params = OpsParams(sampling_rate=0.08, k=10, grouping="detect_first")
        a = _detect(points, params, 21)
        b = _detect(points, params, 21)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.inliers, pb.inliers)
            np.testing.assert_array_equal(pa.normal, pb.normal)


class TestDetectGrouped:
    def test_box_room_orientation_split(self):
        points, _ = make_box_room(clutter=0, seed=13)
        orientations = _orientations(_detect(points, OpsParams(sampling_rate=0.05, k=10), 2))
        assert orientations.count(Orientation.HORIZONTAL) == 2
        assert orientations.count(Orientation.VERTICAL) == 4

    def test_tilted_plane_is_other(self):
        scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 1.4, 1.4], "count": 2500}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=1)
        planes = _detect(points, OpsParams(sampling_rate=0.1, k=10), 3)
        assert len(planes) == 1
        assert _orientations(planes) == [Orientation.OTHER]

    def test_group_first_matches_detect_first_count(self):
        points, _ = make_box_room(clutter=0, seed=17)
        grouped = _detect(points, OpsParams(sampling_rate=0.05, k=10, grouping="group_first"), 6)
        flat = _detect(points, OpsParams(sampling_rate=0.05, k=10, grouping="detect_first"), 6)
        assert len(grouped) == len(flat) == 6

    def test_grouping_sets_detection_order(self):
        # a 3000-point wall and a 1000-point floor: orientation-blind
        # detection takes the larger plane first, grouped detection the
        # horizontal one
        scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 0, 2], "count": 3000},
                           {"corner": [0, 0.2, 0], "edge_u": [2, 0, 0], "edge_v": [0, 1, 0], "count": 1000}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=4)
        flat = _detect(points, OpsParams(sampling_rate=0.05, k=10, grouping="detect_first"), 2)
        grouped = _detect(points, OpsParams(sampling_rate=0.05, k=10, grouping="group_first"), 2)
        assert _orientations(flat) == [Orientation.VERTICAL, Orientation.HORIZONTAL]
        assert _orientations(grouped) == [Orientation.HORIZONTAL, Orientation.VERTICAL]

    def test_group_counts_roughly_decreasing(self):
        points, _ = make_box_room(clutter=300, seed=19)
        planes = _detect(points, OpsParams(sampling_rate=0.05, k=10), 8)
        by_group: dict = {}
        for plane, orient in zip(planes, _orientations(planes)):
            by_group.setdefault(orient, []).append(plane.inlier_count)
        for counts in by_group.values():
            for earlier, later in zip(counts, counts[1:]):
                assert later <= 2 * earlier
