"""One-point RANSAC detector tests."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeops import (
    NoPlaneFound,
    OpsParams,
    Orientation,
    PlaneModel,
    SampleSet,
    adaptive_iterations,
    detect_grouped,
    extract_full_inliers,
    gen_synthetic,
    make_box_room,
    one_point_ransac,
)

import helpers
from planeops import ops, plane_distances
from planeops.geometry import classify_orientations
from helpers import (
    ops_samples,
    reference_detect_grouped,
    reference_extract_full_inliers,
    reference_one_point_ransac,
)

UP = (0.0, 0.0, 1.0)
TOL = 7.0


def _detect(points, params, seed):
    """Sample and detect on one generator seeded with ``seed``, as a run does."""
    rng = np.random.default_rng(seed)
    return detect_grouped(points, ops_samples(points, params, rng), params, rng, UP, TOL)


def _orientations(planes):
    return [Orientation(c) for c in classify_orientations([p.normal for p in planes], UP, TOL).tolist()]


def _everyone(samples):
    """The alive mask of a fresh pool."""
    return np.ones(len(samples), dtype=bool)


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
        samples = _sample_set(pts, normals)
        result = one_point_ransac(samples, OpsParams(min_inliers=20), rng, _everyone(samples))
        assert result.iterations <= 2
        assert len(result.sample_inliers) == 100

    def test_prefers_dominant_plane(self, rng):
        pts_a, n_a = _plane_samples(rng, 70, z=0.0, jitter=0.002)
        pts_b, n_b = _plane_samples(rng, 30, z=1.0, jitter=0.002)
        samples = _sample_set(np.vstack([pts_a, pts_b]), np.vstack([n_a, n_b]))
        result = one_point_ransac(samples, OpsParams(min_inliers=20, dist_threshold=0.05), rng, _everyone(samples))
        assert set(result.sample_inliers.tolist()) == set(range(70))
        assert abs(result.model.centroid[2]) < 0.01

    def test_scattered_points_fail(self, rng):
        pts = rng.uniform(0, 1, size=(10, 3))
        normals = rng.normal(size=(10, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        samples = _sample_set(pts, normals)
        with pytest.raises(NoPlaneFound):
            one_point_ransac(samples, OpsParams(min_inliers=20), rng, _everyone(samples))

    def test_all_inliers_within_threshold(self, rng):
        pts, normals = _plane_samples(rng, 200, jitter=0.01)
        params = OpsParams(min_inliers=20, dist_threshold=0.05)
        samples = _sample_set(pts, normals)
        result = one_point_ransac(samples, params, rng, _everyone(samples))
        d = np.abs((pts[result.sample_inliers] - result.model.centroid) @ result.model.normal)
        assert (d < 2 * params.dist_threshold).all()  # refit can shift the plane slightly


def _assert_split(live, plane, rest):
    """``rest`` is ascending, disjoint from the plane's inliers, and the two make up ``live``."""
    assert (np.diff(rest) > 0).all()
    assert np.intersect1d(plane.inliers, rest).size == 0
    np.testing.assert_array_equal(np.union1d(plane.inliers, rest), live)
    assert plane.inlier_count + rest.size == live.size


class TestExtractFullInliers:
    def test_recovers_wall_from_sparse_sample(self, rng):
        wall = np.column_stack([
            rng.uniform(0, 2, size=10000),
            np.zeros(10000),
            rng.uniform(0, 2, size=10000),
        ]) + rng.normal(scale=0.005, size=(10000, 3))
        hypo = PlaneModel(centroid=wall[:300].mean(axis=0), normal=(0, 1, 0))
        live = np.arange(10000)
        full, rest = extract_full_inliers(wall, hypo, 0.05, live)
        assert full.inlier_count >= 0.99 * 10000
        _assert_split(live, full, rest)

    def test_respects_live_index(self, rng):
        pts, _ = _plane_samples(rng, 100)
        model = PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1))
        live = np.arange(50, 100)
        full, rest = extract_full_inliers(pts, model, 0.05, live)
        assert full.inliers.min() >= 50
        _assert_split(live, full, rest)

    def test_no_points_in_reach(self, rng):
        pts, _ = _plane_samples(rng, 50, z=5.0)
        model = PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1))
        live = np.arange(50)
        full, rest = extract_full_inliers(pts, model, 0.05, live)
        assert full.inlier_count == 0
        np.testing.assert_array_equal(full.normal, model.normal)
        np.testing.assert_array_equal(rest, live)


class TestDetectAllPlanes:
    def test_box_room(self, rng):
        # 5 m faces keep the unavoidable edge strips (points of one face
        # within dist_threshold of the adjacent face's plane) under 5%.
        points, truth = make_box_room(size=5.0, clutter=0, seed=11)
        params = OpsParams(sampling_rate=0.05, k=10, min_inliers=20)
        planes = _detect(points, params, 4)
        assert len(planes) == 6
        for plane in planes:
            true_ids = truth.plane_ids[plane.inliers]
            vals, counts = np.unique(true_ids, return_counts=True)
            assert counts.max() / plane.inlier_count >= 0.95

    def test_single_plane(self, rng):
        scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 2000}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=2)
        planes = _detect(points, OpsParams(sampling_rate=0.1, k=10), 1)
        assert len(planes) == 1

    def test_uniform_noise_yields_little(self, rng):
        points = rng.uniform(0, 1, size=(2000, 3))
        planes = _detect(points, OpsParams(sampling_rate=0.2, k=10, min_inliers=20), 9)
        for plane in planes:
            assert plane.inlier_count <= 0.3 * 2000

    def test_disjoint_inliers_and_threshold(self):
        points, _ = make_box_room(clutter=300, seed=5)
        params = OpsParams(sampling_rate=0.05, k=10)
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
        params = OpsParams(sampling_rate=0.08, k=10)
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

    def test_groups_come_from_the_orientation_rule(self):
        # With the rule patched to call every sample OTHER, detection runs as
        # one group: the planes and random stream of the reference given the
        # same codes, which the true groups would take in another order.
        points, _ = make_box_room(points_per_face=600, clutter=100, seed=5)
        params = OpsParams(sampling_rate=0.05, k=10)
        samples = ops_samples(points, params, np.random.default_rng(0))
        calls = []

        def all_other(normals, up, tol_degrees):
            calls.append((normals, up, tol_degrees))
            return np.full(len(normals), int(Orientation.OTHER), dtype=np.int8)

        assert ops.classify_orientations is classify_orientations
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        with mock.patch.object(ops, "classify_orientations", all_other):
            patched = detect_grouped(points, samples, params, rng, UP, TOL)
        assert len(calls) == 1 and calls[0][0] is samples.normals and calls[0][1:] == (UP, TOL)
        with mock.patch.object(helpers, "classify_orientations", all_other):
            expected = reference_detect_grouped(points, samples, params, ref_rng, UP, TOL)
        grouped = detect_grouped(points, samples, params, np.random.default_rng(1), UP, TOL)
        assert len(patched) >= 4
        assert [p.inliers.tolist() for p in patched] == [p.inliers.tolist() for p in expected]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [p.inliers.tolist() for p in patched] != [p.inliers.tolist() for p in grouped]
        assert _orientations(grouped) == sorted(_orientations(grouped))  # horizontal, vertical, other

    def test_group_counts_roughly_decreasing(self):
        points, _ = make_box_room(clutter=300, seed=19)
        planes = _detect(points, OpsParams(sampling_rate=0.05, k=10), 8)
        by_group: dict = {}
        for plane, orient in zip(planes, _orientations(planes)):
            by_group.setdefault(orient, []).append(plane.inlier_count)
        for counts in by_group.values():
            for earlier, later in zip(counts, counts[1:]):
                assert later <= 2 * earlier


def _assert_same_ransac(samples, params, seed, alive=None):
    """one_point_ransac and the scalar reference agree on everything they
    return or raise, and leave their generators in the same state. Without
    ``alive``, every sample is in the pool."""
    alive = _everyone(samples) if alive is None else alive
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = reference_one_point_ransac(samples, params, ref_rng, alive)
    except NoPlaneFound as exc:
        with pytest.raises(NoPlaneFound) as raised:
            one_point_ransac(samples, params, rng, alive)
        assert str(raised.value) == str(exc)
        expected = None
    else:
        got = one_point_ransac(samples, params, rng, alive)
        assert got.iterations == expected.iterations
        np.testing.assert_array_equal(got.sample_inliers, expected.sample_inliers)
        np.testing.assert_array_equal(got.model.inliers, expected.model.inliers)
        assert got.model.centroid.tobytes() == expected.model.centroid.tobytes()
        assert got.model.normal.tobytes() == expected.model.normal.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return expected


def _mixed_samples(rng, plane_sizes, clutter, cloud_size=None, normal_noise=0.05):
    """Samples on a few random planes (equal sizes give count ties) plus
    clutter with random normals, shuffled."""
    positions, normals = [], []
    for size in plane_sizes:
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        u = np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0])
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        coeffs = rng.uniform(-1, 1, size=(size, 2))
        offset = rng.uniform(-1, 1) * normal
        positions.append(offset + coeffs[:, :1] * u + coeffs[:, 1:] * v + rng.normal(scale=0.01, size=(size, 3)))
        noisy = normal + rng.normal(scale=normal_noise, size=(size, 3))
        normals.append(noisy / np.linalg.norm(noisy, axis=1, keepdims=True))
    positions.append(rng.uniform(-1.5, 1.5, size=(clutter, 3)))
    random_normals = rng.normal(size=(clutter, 3))
    normals.append(random_normals / np.linalg.norm(random_normals, axis=1, keepdims=True))
    order = rng.permutation(sum(plane_sizes) + clutter)
    return _sample_set(np.vstack(positions)[order], np.vstack(normals)[order], cloud_size)


@st.composite
def ransac_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plane_sizes = draw(st.lists(st.sampled_from([3, 12, 25, 25, 40, 60]), max_size=4))
    clutter = draw(st.integers(0, 40))
    m = sum(plane_sizes) + clutter
    if m == 0:
        clutter = m = 1
    samples = _mixed_samples(rng, plane_sizes, clutter, cloud_size=draw(st.integers(1, 12 * m)))
    alive = None
    if draw(st.booleans()):
        alive = rng.random(m) < draw(st.sampled_from([0.3, 0.8]))
    params = OpsParams(min_inliers=draw(st.integers(3, 24)), probability=draw(st.sampled_from([0.5, 0.9, 0.99])))
    return samples, params, alive


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ransac_cases(), st.sampled_from([1, 7, 64, 300, ops.BLOCK_DISTANCES]), st.integers(0, 2**32 - 1))
def test_one_point_ransac_matches_scalar_reference(case, block_distances, seed):
    # Small blocks put block ends at every offset of the budget's end.
    samples, params, alive = case
    with mock.patch.object(ops, "BLOCK_DISTANCES", block_distances):
        _assert_same_ransac(samples, params, seed, alive)


def test_ransac_budget_shrinks_mid_block():
    # The first pick sees all 100 samples, which cuts the budget from 100 to
    # 1 inside the first block: the generator must be rewound to one draw.
    pts, normals = _plane_samples(np.random.default_rng(0), 100)
    result = _assert_same_ransac(_sample_set(pts, normals), OpsParams(min_inliers=20), seed=3)
    assert result.iterations == 1


def test_ransac_count_ties_keep_first():
    # Two planes of 30 samples: equal counts never replace the first winner.
    rng = np.random.default_rng(1)
    a, na = _plane_samples(rng, 30, z=0.0)
    b, nb = _plane_samples(rng, 30, z=1.0)
    samples = _sample_set(np.vstack([a, b]), np.vstack([na, nb]))
    winners = set()
    for seed in range(8):
        result = _assert_same_ransac(samples, OpsParams(min_inliers=20), seed)
        assert result.iterations > 1
        winners.add(int(result.sample_inliers[0]) // 30)
    assert winners == {0, 1}


def test_ransac_threshold_is_strict_on_exact_distances():
    # Several picks in one block, near the origin and 1e3 m from it, each
    # with one sample exactly at dist_threshold and one a grid step below.
    for seed in range(30):
        for shift in (0.0, 1e3):
            _assert_threshold_block(seed, shift)


def _grid(values):
    """Round to multiples of 2**-20, where sums of a few coordinates are exact."""
    return np.round(np.asarray(values) * 2**20) / 2**20


def _assert_threshold_block(seed, shift, block=6, core=8):
    """The first RANSAC block holds ``block`` picks, each heading a cluster
    of ``core`` samples within 0.02 m of its plane, one sample at exactly
    ``dist_threshold`` and one 2**-20 m below it. Positions lie on the
    ``_grid`` and the common normal is a coordinate axis, so every distance
    formula is exact. The clusters are translates of one another, 1 m apart
    along the normal, so each pick sees only its own cluster. A pick counts
    itself, ``core`` and the sample below: ``min_inliers + 1``. The budget
    ends at the block's last pick, so counting the threshold sample in, or
    the one below it out, changes the result."""
    rng = np.random.default_rng(seed)
    m = block * (core + 3)
    draw_seed = next(s for s in range(seed, seed + 1000)
                     if np.unique(np.random.default_rng(s).integers(0, m, size=block)).size == block)
    picks = np.random.default_rng(draw_seed).integers(0, m, size=block)
    axis = seed % 3
    normal = np.eye(3)[axis]
    thr = float(_grid(0.05))
    offsets = np.empty((core + 2, 3))
    offsets[:, np.arange(3) != axis] = _grid(rng.uniform(-0.3, 0.3, size=(core + 2, 2)))
    offsets[:, axis] = np.concatenate([[thr, thr - 2**-20], _grid(rng.uniform(-0.02, 0.02, size=core))])
    head = _grid(rng.uniform(-1, 1, size=3))
    cluster = np.vstack([head, head + offsets])  # head, on, below, core
    clusters = [cluster + i * normal + shift for i in range(block)]
    others = np.setdiff1d(np.arange(m), picks)
    slots = np.concatenate([picks, rng.permutation(others)])
    positions = np.empty((m, 3))
    positions[slots] = np.vstack([c[:1] for c in clusters] + [c[1:] for c in clusters])
    rows = block + np.arange(block) * (core + 2)  # each cluster's threshold sample
    on, below = slots[rows], slots[rows + 1]
    normals = np.tile(normal, (m, 1))
    for pick, i in zip(picks, on):
        assert abs(positions[i] - positions[pick])[axis] == thr
    e = 1.0 - (core + 2) / m
    params = OpsParams(dist_threshold=thr, min_inliers=core + 1, probability=1.0 - e ** (block - 0.5))
    assert adaptive_iterations(params.probability, e) == block
    with mock.patch.object(ops, "BLOCK_DISTANCES", block * m):
        result = _assert_same_ransac(_sample_set(positions, normals, cloud_size=block), params, draw_seed)
    assert result.iterations == block
    assert result.sample_inliers.size == core + 2
    assert np.intersect1d(result.sample_inliers, on).size == 0
    assert np.intersect1d(result.sample_inliers, below).size == 1


def test_ransac_no_plane_found_matches():
    rng = np.random.default_rng(2)
    samples = _mixed_samples(rng, [], 200, cloud_size=5000)
    assert _assert_same_ransac(samples, OpsParams(min_inliers=30), seed=4) is None


@pytest.mark.parametrize("m", [16383, 16384, 16385, 32767, 32768, 32769])
def test_ransac_at_block_size_boundaries(m):
    # Pools around 2**16 / 4 and 2**16 / 2 samples, where one block holds
    # 4 or 3 and 2 or 1 picks: one run with several blocks, one without a plane.
    rng = np.random.default_rng(m)
    samples = _mixed_samples(rng, [int(0.4 * m)], m - int(0.4 * m), cloud_size=20 * m)
    assert _assert_same_ransac(samples, OpsParams(min_inliers=20), seed=m).iterations > 4
    alone = _mixed_samples(rng, [], m, cloud_size=13)
    assert _assert_same_ransac(alone, OpsParams(min_inliers=m // 2), seed=m) is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.sampled_from([0.0, 0.01, 0.3, 0.9, 1.0]))
def test_extract_full_inliers_on_live_matches_masked_scan(seed, n, claimed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2, 2, size=(n, 3))
    points[: n // 2, 2] = rng.normal(scale=0.03, size=n // 2)  # half of them near z = 0
    normal = np.array([0.0, 0.0, 1.0]) + rng.normal(scale=0.05, size=3)
    model = PlaneModel(centroid=rng.normal(scale=0.02, size=3), normal=normal / np.linalg.norm(normal))
    active = rng.random(n) >= claimed
    live = np.flatnonzero(active)
    # The gathered distances equal the full-cloud ones bit for bit, at every
    # position a live point can take.
    full_dists = plane_distances(points, model.centroid, model.normal)
    assert plane_distances(points[live], model.centroid, model.normal).tobytes() == full_dists[live].tobytes()
    got, rest = extract_full_inliers(points, model, 0.05, live)
    _assert_split(live, got, rest)
    expected = reference_extract_full_inliers(points, model, 0.05, active)
    np.testing.assert_array_equal(got.inliers, expected.inliers)
    assert got.centroid.tobytes() == expected.centroid.tobytes()
    assert got.normal.tobytes() == expected.normal.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detect_grouped_matches_masked_reference(seed):
    points, _ = make_box_room(points_per_face=2000, clutter=3000, seed=seed)
    params = OpsParams(sampling_rate=0.05, k=10, min_inliers=5)
    samples = ops_samples(points, params, np.random.default_rng(seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    planes = detect_grouped(points, samples, params, rng, UP, TOL)
    expected = reference_detect_grouped(points, samples, params, ref_rng, UP, TOL)
    assert len(planes) == len(expected) > 6  # the clutter yields spurious planes too
    for got, ref in zip(planes, expected):
        assert (np.diff(got.inliers) > 0).all()
        np.testing.assert_array_equal(got.inliers, ref.inliers)
        assert got.centroid.tobytes() == ref.centroid.tobytes()
        assert got.normal.tobytes() == ref.normal.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state



def _scattered_samples(rng, m, extent):
    """m samples with random normals, uniform in a cube of edge ``extent``."""
    normals = rng.normal(size=(m, 3))
    return _sample_set(rng.uniform(0.0, extent, size=(m, 3)), normals / np.linalg.norm(normals, axis=1, keepdims=True),
                       cloud_size=100 * m)


def _ransac_thresholds(samples, params, seed):
    """The threshold of each ``ops._near`` call that one_point_ransac makes."""
    with mock.patch.object(ops, "_near", wraps=ops._near) as near:
        try:
            one_point_ransac(samples, params, np.random.default_rng(seed), _everyone(samples))
        except NoPlaneFound:
            pass
    return [call.args[3] for call in near.call_args_list]


@pytest.mark.parametrize("m", [113, 315])
def test_ransac_hopeless_pool_stops_early(m):
    # No sample's plane holds more than min_inliers samples: after m picks
    # the check scores every sample once and the rest of the 10 m budget is
    # drawn at once, which leaves the generator where the full loop does.
    params = OpsParams(min_inliers=20)
    samples = _scattered_samples(np.random.default_rng(m), m, 10.0)
    counts = [(plane_distances(samples.positions, p, n) < params.dist_threshold).sum()
              for p, n in zip(samples.positions, samples.normals)]
    assert max(counts) <= params.min_inliers
    block, slack = ops.BLOCK_DISTANCES // m, params.dist_threshold + 1e-9
    for seed in range(3):
        with pytest.raises(NoPlaneFound, match=f"no hypothesis exceeded 20 inliers in {10 * m} iterations"):
            one_point_ransac(samples, params, np.random.default_rng(seed), _everyone(samples))
        _assert_same_ransac(samples, params, seed)
        blocks = -(-m // block)  # of picks until m are drawn, and of the check's planes
        assert _ransac_thresholds(samples, params, seed) == [params.dist_threshold] * blocks + [slack] * blocks


def test_ransac_late_winner_is_untouched():
    # Four coplanar samples among scattered ones, min_inliers 3: when the
    # first m picks miss the plane, the check finds a sample that can win
    # and the loop goes on to the reference's result.
    params = OpsParams(min_inliers=3)
    rng = np.random.default_rng(5)
    scattered = _scattered_samples(rng, 396, 1000.0)
    plane, plane_normals = _plane_samples(rng, 4, z=500.0)
    samples = _sample_set(np.vstack([scattered.positions, plane]), np.vstack([scattered.normals, plane_normals]),
                          cloud_size=40000)
    late = 0
    for seed in range(400):
        thresholds = _ransac_thresholds(samples, params, seed)
        if params.dist_threshold + 1e-9 in thresholds:
            late += 1
            assert thresholds[-1] == params.dist_threshold  # picks went on after the check
            result = _assert_same_ransac(samples, params, seed)
            assert set(result.sample_inliers.tolist()) == {396, 397, 398, 399}
    assert late >= 3
