"""Normal estimation tests: analytic planes, spheres, weighting behavior."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeops import GtParams, KdTree, OpsParams, estimate_normals, make_box_room, sample_indices
from planeops import kdtree
from planeops.normals import normals_from_neighbors

from helpers import ops_samples, reference_normals_from_neighbors, reference_sample_indices


def _angle_to(n, reference):
    reference = np.asarray(reference, dtype=float)
    reference = reference / np.linalg.norm(reference)
    return np.arccos(np.clip(np.abs(n @ reference), 0.0, 1.0))


def _normal_at(pts, index, kd, k):
    """The one normal at ``index``; it must be valid."""
    normals, _, valid = estimate_normals(pts, kd, [index], k)
    assert valid[0]
    return normals[0]


def _plane_cloud(rng, n, a=0.3, b=-0.2):
    xy = rng.uniform(-1, 1, size=(n, 2))
    return np.column_stack([xy, a * xy[:, 0] + b * xy[:, 1]])


class TestEstimateNormal:
    def test_cross_neighborhood(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        normal = _normal_at(pts, 0, KdTree(pts), k=4)
        np.testing.assert_allclose(normal, [0, 0, 1], atol=1e-12)

    def test_analytic_plane(self, rng):
        pts = _plane_cloud(rng, 2000)
        kd = KdTree(pts)
        normals, _, valid = estimate_normals(pts, kd, np.arange(200), k=10)
        assert valid.all()
        truth = np.array([0.3, -0.2, -1.0])
        angles = np.array([_angle_to(n, truth) for n in normals])
        assert angles.max() < 1e-6

    def test_sphere_median_error(self, rng):
        v = rng.normal(size=(2000, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        kd = KdTree(pts)
        normals, _, valid = estimate_normals(pts, kd, np.arange(2000), k=10)
        assert valid.all()
        angles = np.array([_angle_to(n, p) for n, p in zip(normals, pts)])
        assert np.degrees(np.median(angles)) < 5.0

    def test_collinear_neighborhood_degenerate(self):
        pts = np.array([[float(i), 0, 0] for i in range(6)])
        normals, _, valid = estimate_normals(pts, KdTree(pts), [0], k=4)
        assert not valid[0]
        assert np.isnan(normals[0]).all()

    def test_fewer_points_than_k(self):
        # Each of 5 points takes the other 4 as its neighbours at k = 30.
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.4, 0.7, 0]], dtype=float)
        normals, _, valid = estimate_normals(pts, KdTree(pts), np.arange(5), k=30)
        assert valid.all()
        np.testing.assert_array_equal(np.abs(normals), np.tile([0.0, 0.0, 1.0], (5, 1)))

    def test_duplicate_reference_neighbor_skipped(self):
        pts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        normal = _normal_at(pts, 0, KdTree(pts), k=5)
        np.testing.assert_allclose(normal, [0, 0, 1], atol=1e-12)

    def test_coplanar_curvature_zero(self, rng):
        pts = _plane_cloud(rng, 500)
        kd = KdTree(pts)
        _, curvature, valid = estimate_normals(pts, kd, np.arange(50), k=10)
        assert valid.all()
        assert curvature.max() < 1e-9

    def test_near_outlier_tilts_more_than_far_outlier(self, rng):
        # Gaussian weighting: an off-plane point near the reference must
        # perturb the estimate more than the same point placed far away.
        disk = rng.uniform(-1, 1, size=(40, 2))
        base = np.column_stack([disk, np.zeros(40)])
        ref = np.zeros(3)

        def tilt(outlier):
            pts = np.vstack([ref, base, outlier])
            kd = KdTree(pts)
            n = _normal_at(pts, 0, kd, k=41)
            return _angle_to(n, [0, 0, 1])

        near = tilt(np.array([[0.1, 0.0, 0.4]]))
        far = tilt(np.array([[0.9, 0.0, 0.4]]))
        assert near > far

    def test_scale_invariance_with_adaptive_sigma(self, rng):
        pts = _plane_cloud(rng, 300) + rng.normal(scale=0.005, size=(300, 3))
        scaled = pts * 37.0
        n1 = _normal_at(pts, 5, KdTree(pts), k=10)
        n2 = _normal_at(scaled, 5, KdTree(scaled), k=10)
        np.testing.assert_allclose(n1, n2, atol=1e-9)


def _collinear_strip():
    """150 points on a line with 1e-7 m of sideways noise: the two smallest
    scatter eigenvalues are about 1e-10 of the largest apart."""
    count = 150
    return np.column_stack([np.linspace(0.0, 1.5, count), 1e-7 * np.random.default_rng(0).standard_normal(count),
                            np.zeros(count)])


@pytest.mark.parametrize("cloud, k", [
    pytest.param(lambda: make_box_room(3.5, 1000, clutter=500, noise_sigma=0.005, seed=0)[0], GtParams().k,
                 id="room-6.5k-gt-k"),
    pytest.param(lambda: make_box_room(3.5, 1000, clutter=500, noise_sigma=0.005, seed=0)[0], OpsParams().k,
                 id="room-6.5k-ops-k"),
    pytest.param(lambda: make_box_room(3.5, 10000, clutter=5000, noise_sigma=0.005, seed=1)[0], GtParams().k,
                 id="room-65k-gt-k"),
    pytest.param(_collinear_strip, 3, id="strip-k3"),
    pytest.param(_collinear_strip, 10, id="strip-k10"),
])
def test_normals_match_einsum_eigh_reference(cloud, k):
    """Every point's neighbourhood, as ground truth takes it: the same valid
    mask as the einsum-and-eigh formula, normals within 1e-9 rad of it and
    curvature within 1e-12."""
    points = cloud()
    idx = np.arange(points.shape[0], dtype=np.int64)
    nbr_dist, nbr_idx = KdTree(points).knn(idx, k)
    normals, curvature, valid = normals_from_neighbors(points, idx, nbr_dist, nbr_idx)
    want_normals, want_curvature, want_valid = reference_normals_from_neighbors(points, idx, nbr_dist, nbr_idx)
    np.testing.assert_array_equal(valid, want_valid)
    assert np.isnan(normals[~valid]).all()
    assert np.linalg.norm(np.cross(normals[valid], want_normals[valid]), axis=1).max(initial=0.0) <= 1e-9
    np.testing.assert_allclose(curvature, want_curvature, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 7, 1001])
def test_normal_blocks_match_one_block(rows):
    """Rows walked in blocks of 1 and 7 rows, and in a ragged pair, get the
    bits of one block."""
    points = make_box_room(3.5, 300, clutter=150, noise_sigma=0.005, seed=0)[0]
    idx = np.arange(points.shape[0], dtype=np.int64)
    nbr_dist, nbr_idx = KdTree(points).knn(idx, 30)
    with mock.patch.object(kdtree, "BLOCK_ENTRIES", 2**30):
        whole = normals_from_neighbors(points, idx, nbr_dist, nbr_idx)
    with mock.patch.object(kdtree, "BLOCK_ENTRIES", rows * 30):
        blocked = normals_from_neighbors(points, idx, nbr_dist, nbr_idx)
    for got, want in zip(blocked, whole):
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


class TestSampleIndices:
    def test_full_rate_returns_all(self, rng):
        idx = sample_indices(10, 1.0, rng)
        assert sorted(idx.tolist()) == list(range(10))

    def test_half_rate(self, rng):
        idx = sample_indices(10, 0.5, rng)
        assert len(idx) == 5
        assert len(set(idx.tolist())) == 5

    def test_rounds_up_to_one(self, rng):
        assert len(sample_indices(1000, 1e-6, rng)) == 1

    def test_deterministic_for_seed(self):
        a = sample_indices(100, 0.3, np.random.default_rng(7))
        b = sample_indices(100, 0.3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rate_validation(self, rng):
        with pytest.raises(ValueError):
            sample_indices(10, 0.0, rng)
        with pytest.raises(ValueError):
            sample_indices(10, 1.5, rng)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        # Rates up to 1 for clouds of up to 20,000 points; larger clouds keep
        # the reference loop to 20,000 draws.
        st.integers(1, 10**6).flatmap(
            lambda n: st.tuples(st.just(n), st.floats(0.0, min(1.0, 20000 / n), exclude_min=True))),
        st.integers(0, 2**63 - 1),
    )
    @example((1, 1.0), 0)
    @example((2, 1.0), 1)
    @example((10**6, 0.03), 2)
    def test_matches_scalar_reference(self, case, seed):
        n, rate = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(sample_indices(n, rate, rng), reference_sample_indices(n, rate, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [7, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33])
    def test_one_draw_equals_scalar_draws(self, n):
        # sample_indices relies on this: one draw with an array of lower
        # bounds yields the values and generator state of one scalar draw
        # per bound, also for ranges beyond 32 bits.
        m = min(n, 500)
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        draws = rng.integers(np.arange(m), n)
        assert draws.tolist() == [int(ref_rng.integers(i, n)) for i in range(m)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBuildSampleSet:
    def test_planar_cloud_all_aligned(self, rng):
        pts = _plane_cloud(rng, 1000)
        samples = ops_samples(pts, OpsParams(sampling_rate=0.1, k=10), rng)
        assert len(samples) == 100
        truth = np.array([0.3, -0.2, -1.0])
        for n in samples.normals:
            assert _angle_to(n, truth) < 1e-6

    def test_single_sample(self, rng):
        pts = _plane_cloud(rng, 50)
        samples = ops_samples(pts, OpsParams(sampling_rate=1e-9, k=5), rng)
        assert len(samples) == 1

    def test_bookkeeping(self, rng):
        # a planar cloud with one far-duplicated spot: that sample drops
        pts = np.vstack([_plane_cloud(rng, 400), np.full((5, 3), 100.0)])
        samples = ops_samples(pts, OpsParams(sampling_rate=1.0, k=4), rng)
        assert len(samples) <= 400
        assert (samples.indices < 400).all()
        np.testing.assert_array_equal(samples.positions, pts[samples.indices])
        assert samples.cloud_size == 405
