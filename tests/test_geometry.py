"""Tests for the core geometric primitives."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_combine_moments
from planeops import DegenerateInput, Orientation, PlaneModel, classify_orientations, fit_plane, plane_distances
from planeops.geometry import (
    EIGEN_FALLBACK_GAP,
    EIGEN_TIE_RTOL,
    as_float,
    as_unit_vector,
    canonical_sign,
    combine_moments,
    dot3,
    point_moments,
    symmetric_eigen3,
)


def _plane(centroid, normal):
    n = np.asarray(normal, dtype=float)
    return PlaneModel(centroid=centroid, normal=n / np.linalg.norm(n))


def _distance(point, plane):
    """Distance of one point, through the batched function."""
    (d,) = plane_distances(np.array([point], dtype=float), plane.centroid, plane.normal)
    return float(d)


class TestPointPlaneDistance:
    def test_axis_aligned(self):
        plane = _plane((0, 0, 0), (0, 0, 1))
        assert _distance((0, 0, 1), plane) == 1.0

    def test_point_on_plane(self):
        plane = _plane((0, 0, 0), (0, 0, 1))
        assert _distance((5, 7, 0), plane) == 0.0

    def test_diagonal_plane(self):
        plane = _plane((0, 0, 0), (1, 1, 1))
        d = _distance((1, 1, 1), plane)
        assert d == pytest.approx(math.sqrt(3), abs=1e-12)
        # cross-check against an explicit projection
        p = np.array([1.0, 1.0, 1.0])
        foot = p - np.dot(p - plane.centroid, plane.normal) * plane.normal
        assert d == pytest.approx(np.linalg.norm(p - foot), abs=1e-12)

    def test_sign_flip_invariance(self, rng):
        for _ in range(50):
            c = rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            p = rng.normal(size=3) * 5
            assert _distance(p, _plane(c, n)) == pytest.approx(
                _distance(p, _plane(c, -n)), abs=1e-12
            )


class TestFitPlane:
    def test_unit_square(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        model = fit_plane(pts)
        assert abs(model.normal[2]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(model.centroid, [0.5, 0.5, 0.0], atol=1e-12)

    def test_analytic_plane(self, rng):
        # z = 2x + 3y + 1, exact
        xy = rng.uniform(-2, 2, size=(100, 2))
        pts = np.column_stack([xy, 2 * xy[:, 0] + 3 * xy[:, 1] + 1])
        model = fit_plane(pts)
        expected = np.array([2.0, 3.0, -1.0]) / math.sqrt(14)
        assert abs(np.dot(model.normal, expected)) == pytest.approx(1.0, abs=1e-12)
        residuals = np.abs((pts - model.centroid) @ model.normal)
        assert residuals.max() < 1e-9

    def test_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            fit_plane([(0, 0, 0), (1, 1, 1), (2, 2, 2)])

    def test_too_few_points_raises(self):
        with pytest.raises(DegenerateInput):
            fit_plane([(0, 0, 0), (1, 0, 0)])

    def test_coplanar_residuals_zero(self, rng):
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u = np.cross(n, [1, 0, 0] if abs(n[0]) < 0.9 else [0, 1, 0])
            u /= np.linalg.norm(u)
            v = np.cross(n, u)
            coeffs = rng.uniform(-3, 3, size=(30, 2))
            pts = rng.normal(size=3) + coeffs[:, :1] * u + coeffs[:, 1:] * v
            model = fit_plane(pts)
            assert np.abs((pts - model.centroid) @ model.normal).max() < 1e-9

    def test_rigid_motion_invariance(self, rng):
        pts = rng.uniform(-1, 1, size=(60, 2))
        cloud = np.column_stack([pts, 0.3 * pts[:, 0] - 0.7 * pts[:, 1]])
        base = fit_plane(cloud)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        moved = cloud @ q.T + rng.normal(size=3)
        rotated = fit_plane(moved)
        assert abs(np.dot(rotated.normal, q @ base.normal)) == pytest.approx(1.0, abs=1e-6)

    def test_normal_sign_canonical(self):
        model = fit_plane([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert model.normal[2] == pytest.approx(1.0)  # not -1


class TestClassifyOrientation:
    def test_horizontal(self):
        assert classify_orientations((0, 0, 1), (0, 0, 1), 7.0).tolist() == [Orientation.HORIZONTAL]

    def test_vertical(self):
        assert classify_orientations((1, 0, 0), (0, 0, 1), 7.0).tolist() == [Orientation.VERTICAL]

    def test_forty_five_degrees_is_other(self):
        n = (0.0, math.sin(math.radians(45)), math.cos(math.radians(45)))
        assert classify_orientations(n, (0, 0, 1), 7.0).tolist() == [Orientation.OTHER]

    def test_sign_invariance(self, rng):
        n = rng.normal(size=(100, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        np.testing.assert_array_equal(classify_orientations(n), classify_orientations(-n))

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            classify_orientations((0, 0, 1), (0, 0, 1), 45.0)
        with pytest.raises(ValueError):
            classify_orientations((0, 0, 1), (0, 0, 1), 0.0)

    def test_boundary_inside_band(self):
        n = [(0.0, math.sin(math.radians(a)), math.cos(math.radians(a))) for a in (6.9, 83.1)]
        assert classify_orientations(n, (0, 0, 1), 7.0).tolist() == [Orientation.HORIZONTAL, Orientation.VERTICAL]

    def test_shapes(self):
        # One vector, a stack or nothing; six numbers are not two normals.
        assert classify_orientations([]).shape == classify_orientations(np.empty((0, 3))).shape == (0,)
        for bad in (np.array([[0.0, 0, 1, 1, 0, 0]]), np.array([0.0, 0, 1, 1, 0, 0]), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="one vector or"):
                classify_orientations(bad)


UP_AXES = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.6, 0.8)]


@pytest.mark.parametrize("up", UP_AXES, ids=["z", "x", "tilted"])
@pytest.mark.parametrize("tol", [7.0, 20.0])
def test_orientation_rule_against_analytic_angles(up, tol):
    """Normals built at known angles from the up axis, in several azimuths:
    the class flips exactly at the tolerance and at 90 minus it, either sign."""
    u = np.asarray(up)
    a = np.cross(u, (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0))
    a /= np.linalg.norm(a)
    b = np.cross(u, a)
    H, V, O = (int(o) for o in Orientation)
    cases = [(0.0, H), (tol - 1e-9, H), (tol + 1e-9, O), (45.0, O),
             (90.0 - tol - 1e-9, O), (90.0 - tol + 1e-9, V), (90.0, V)]
    for azimuth in np.radians([0.0, 37.0, 90.0, 200.0]):
        w = np.cos(azimuth) * a + np.sin(azimuth) * b  # a unit vector perpendicular to up
        angles = np.radians([angle for angle, _ in cases])
        normals = np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * w
        want = [code for _, code in cases]
        assert classify_orientations(normals, up, tol).tolist() == want
        assert classify_orientations(-normals, up, tol).tolist() == want


@pytest.mark.parametrize("tol", [0.0, 45.0, -3.0, 60.0])
def test_orientation_rule_rejects_tolerance_outside_open_band(tol):
    with pytest.raises(ValueError):
        classify_orientations(np.eye(3), (0.0, 0.0, 1.0), tol)
    with pytest.raises(ValueError):
        classify_orientations(np.empty((0, 3)), (0.0, 0.0, 1.0), tol)


def test_orientation_rule_rejects_non_unit_up():
    with pytest.raises(ValueError):
        classify_orientations(np.eye(3), (0.0, 0.0, 2.0), 7.0)


def test_orientation_rule_shapes():
    codes = classify_orientations(np.empty((0, 3)))
    assert codes.dtype == np.int8 and codes.shape == (0,)
    assert classify_orientations((0.0, 0.0, 1.0)).tolist() == [int(Orientation.HORIZONTAL)]


class TestOrientationChar:
    def test_round_trip(self):
        for orient in Orientation:
            assert Orientation.from_char(orient.char) is orient

    @pytest.mark.parametrize("c", ["", "HV", "VO", "HVO", "h", "X"])
    def test_rejects_all_but_one_class_character(self, c):
        with pytest.raises(ValueError):
            Orientation.from_char(c)


_TILTED = np.array([0.36, -0.48, 0.8])  # unit length in exact arithmetic


@pytest.mark.parametrize("vec, unit", [
    ((0, 0, 1), True), ((-1.0, 0.0, 0.0), True), (_TILTED, True), (_TILTED / np.linalg.norm(_TILTED), True),
    ((1 + 0.5e-9, 0, 0), True), ((0, 1 - 0.5e-9, 0), True), (_TILTED * (1 + 0.5e-9), True),
    (_TILTED * (1 - 0.5e-9), True),
    ((1 + 2e-9, 0, 0), False), ((0, 0, 1 - 2e-9), False), (_TILTED * (1 + 2e-9), False), (_TILTED * (1 - 2e-9), False),
    ((0, 0, 2), False), ((0, 0, 0), False), ((1e200, 0, 0), False), ((1e-200, 0, 0), False),
    ((np.nan, 0, 1), False), ((0, 0, np.inf), False), ((np.inf, np.nan, 0), False),
    ([[0, 0, 1]], True), ([[0], [1], [0]], True),
])
def test_as_unit_vector_length_check(vec, unit):
    """Norms within 1e-9 of 1 pass as a float64 3-vector; others, NaN and inf raise."""
    if unit:
        got = as_unit_vector(vec)
        assert got.dtype == np.float64 and got.shape == (3,)
        np.testing.assert_array_equal(got, np.asarray(vec, dtype=np.float64).reshape(3))
    else:
        with pytest.raises(ValueError, match="not a unit vector"):
            as_unit_vector(vec)


@pytest.mark.parametrize("vec", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), np.eye(3), (), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
def test_as_unit_vector_rejects_other_shapes(vec):
    with pytest.raises(ValueError):
        as_unit_vector(vec)


class TestPlaneModel:
    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 2))

    def test_inliers_coerced_to_int64(self):
        model = PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1), inliers=[3, 1, 2])
        assert model.inliers.dtype == np.int64
        assert model.inlier_count == 3


# Eigenvalue triples before scaling: a generic spread, exact repeats, rank 1
# and 2, the zero matrix, the two smallest a relative gap g apart (either side
# of EIGEN_FALLBACK_GAP), and the two largest within a relative gap g.
SPECTRA = {
    "spread": lambda r, g: np.sort(r.uniform(-1.0, 1.0, 3)),
    "zero-zero-h": lambda r, g: np.array([0.0, 0.0, r.uniform(0.1, 1.0)]),
    "a-a-a": lambda r, g: np.full(3, r.uniform(-1.0, 1.0)),
    "rank-1": lambda r, g: np.array([0.0, 0.0, 1.0]) * r.uniform(0.1, 1.0),
    "rank-2": lambda r, g: np.array([0.0, *np.sort(r.uniform(0.1, 1.0, 2))]),
    "zero": lambda r, g: np.zeros(3),
    "low-pair": lambda r, g: np.array([0.0, g, 1.0]) + r.uniform(0.0, 0.5) * np.array([1.0, 1.0, 0.0]),
    "high-pair": lambda r, g: np.array([r.uniform(0.0, 0.9), 1.0 - g, 1.0]),
}


@st.composite
def symmetric_stacks(draw):
    """A stack of A = R diag(lambda) R^T for random rotations R, each scaled
    by a power of ten from 1e-150 to 1e150."""
    rows = draw(st.integers(0, 24), label="rows")
    kinds = draw(st.lists(st.sampled_from(sorted(SPECTRA)), min_size=rows, max_size=rows), label="kinds")
    gaps = draw(st.lists(st.floats(-12.0, 0.0), min_size=rows, max_size=rows), label="log10_gaps")
    scales = draw(st.lists(st.integers(-150, 150), min_size=rows, max_size=rows), label="log10_scales")
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    stack = np.empty((rows, 3, 3))
    for i in range(rows):
        q, upper = np.linalg.qr(r.standard_normal((3, 3)))
        q *= np.sign(np.diag(upper))
        stack[i] = (q * SPECTRA[kinds[i]](r, 10.0 ** gaps[i])) @ q.T * 10.0 ** scales[i]
    return stack


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_stacks())
def test_symmetric_eigen3_against_eigh(stack):
    """Every row's eigenvalues are eigh's within 1e-12 of the largest
    |eigenvalue|, its smallest eigenvector is eigh's within 1e-9 rad where
    the two smallest are at least 1e-6 of it apart, and it makes the same
    EIGEN_TIE_RTOL decision; rows clearly inside the fallback band are eigh's
    output bit for bit."""
    eigvals, vector = symmetric_eigen3(stack)
    assert eigvals.shape == vector.shape == (stack.shape[0], 3)
    want, vectors = np.linalg.eigh(stack)
    low, mid, high = want.T
    rho = np.abs(want).max(axis=1, initial=0.0)
    assert (np.abs(eigvals - want) <= 1e-12 * rho[:, None]).all()
    separated = mid - low >= EIGEN_FALLBACK_GAP * rho
    assert (np.linalg.norm(np.cross(vector, vectors[:, :, 0]), axis=1)[separated] <= 1e-9).all()
    assert (np.abs(np.linalg.norm(vector, axis=1) - 1.0) <= 1e-12).all()
    tie = eigvals[:, 1] - eigvals[:, 0] > EIGEN_TIE_RTOL * np.maximum(eigvals[:, 2], 0.0)
    np.testing.assert_array_equal(tie, mid - low > EIGEN_TIE_RTOL * np.maximum(high, 0.0))
    inside = mid - low <= 0.99 * EIGEN_FALLBACK_GAP * rho
    np.testing.assert_array_equal(eigvals[inside], want[inside])
    np.testing.assert_array_equal(vector[inside], vectors[inside, :, 0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), counts=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       far=st.sampled_from([0.0, 1.0, 1e3, 1e6]))
def test_combine_moments_matches_numpy_update(seed, counts, far):
    """The update on Python floats against the same update on numpy arrays,
    to the last bit: two sets of 1 to 40 points, of any spread, near the
    origin or far from it, in either order, and a union combined again."""
    rng = np.random.default_rng(seed)
    a, b, c = (point_moments(rng.normal(size=(n, 3)) * rng.uniform(0.01, 2.0) + far * rng.normal(size=3))
               for n in (*counts, 5))
    for x, y in ((a, b), (b, a), (combine_moments(a, b), c), (c, combine_moments(b, a))):
        got, want = combine_moments(x, y), reference_combine_moments(x, y)
        assert got.count == want.count
        assert got.mean.shape == (3,) and got.scatter.shape == (3, 3)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.scatter.tobytes() == want.scatter.tobytes()


def _special_stack(rng, shape):
    """Random components with some NaN, +0 and -0 entries."""
    u = rng.normal(size=shape)
    u.flat[rng.choice(u.size, size=u.size // 4, replace=False)] = rng.choice([np.nan, 0.0, -0.0], size=u.size // 4)
    return u


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert ((got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))).all()


@pytest.mark.parametrize("seed", range(5))
def test_dot3_sums_x_then_y_then_z(seed):
    """The bits of u[0]*v[0] + u[1]*v[1] + u[2]*v[2] on Python floats, in
    either argument order, and for each pair in any broadcast batch."""
    rng = np.random.default_rng(seed)
    u, v = _special_stack(rng, (3, 20)), _special_stack(rng, (3, 30))
    outer = dot3(u[:, :, None], v[:, None, :])
    want = [[x0 * y0 + x1 * y1 + x2 * y2 for (y0, y1, y2) in v.T.tolist()] for (x0, x1, x2) in u.T.tolist()]
    _assert_same_bits(outer, np.array(want))
    _assert_same_bits(dot3(v[:, None, :], u[:, :, None]), outer)
    for i in range(u.shape[1]):
        _assert_same_bits(dot3(u[:, i, None], v), outer[i])
        _assert_same_bits(dot3(u[:, i], v[:, i % v.shape[1]]), outer[i, i % v.shape[1]])


def test_symmetric_eigen3_is_exact_under_power_of_two_scaling(rng):
    """Scaling by a power of two is exact, so the closed form's rows scale
    bit for bit, from 2**-500 to 2**500."""
    q = np.linalg.qr(rng.standard_normal((200, 3, 3)))[0]
    stack = (q * rng.uniform(0.0, 1.0, (200, 1, 3))) @ q.transpose(0, 2, 1)
    eigvals, vector = symmetric_eigen3(stack)
    for power in (-500, -37, 1, 500):
        scaled_vals, scaled_vector = symmetric_eigen3(np.ldexp(stack, power))
        np.testing.assert_array_equal(scaled_vals, np.ldexp(eigvals, power))
        np.testing.assert_array_equal(scaled_vector, vector)


def test_symmetric_eigen3_hands_zero_and_non_finite_rows_to_eigh():
    """Zero and non-finite rows are eigh's output bit for bit; the finite rows
    around them keep their own eigenvalues; an empty stack gives empty arrays."""
    stack = np.array([np.diag([1.0, 2.0, 4.0]), np.zeros((3, 3)), np.diag([np.nan, 1.0, 1.0]),
                      np.diag([np.inf, 1.0, 1.0]), np.diag([3.0, 1.0, 2.0])])
    eigvals, vector = symmetric_eigen3(stack)
    want, vectors = np.linalg.eigh(stack)
    np.testing.assert_array_equal(eigvals[1:4], want[1:4])
    np.testing.assert_array_equal(vector[1:4], vectors[1:4, :, 0])
    np.testing.assert_allclose(eigvals[[0, 4]], [[1.0, 2.0, 4.0], [1.0, 2.0, 3.0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs(vector[[0, 4]]), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], rtol=0, atol=1e-15)
    empty_vals, empty_vector = symmetric_eigen3(np.empty((0, 3, 3)))
    assert empty_vals.shape == empty_vector.shape == (0, 3)


# (value, as_float's low, high and closed_high, whether the value is inside).
AS_FLOAT_CASES = [
    (0.0, (0.0, 1.0, False), False),
    (np.nextafter(0.0, 1.0), (0.0, 1.0, False), True),
    (0.5, (0.0, 1.0, False), True),
    (np.nextafter(1.0, 0.0), (0.0, 1.0, False), True),
    (1.0, (0.0, 1.0, False), False),
    (1.0, (0.0, 1.0, True), True),
    (np.nextafter(1.0, 2.0), (0.0, 1.0, True), False),
    (-0.5, (0.0, 1.0, True), False),
    (90.0, (0.0, 90.0, False), False),
    (1e308, (0.0, np.inf, False), True),
    (np.inf, (0.0, np.inf, False), False),
    (-np.inf, (0.0, np.inf, False), False),
    (np.inf, (0.0, 1.0, True), False),
    (np.nan, (0.0, 1.0, True), False),
    (np.nan, (0.0, np.inf, False), False),
    (1, (0.0, 1.0, True), True),
    (0, (0.0, 1.0, True), False),
    (np.float32(0.5), (0.0, 1.0, False), True),
    (np.float64(1.0), (0.0, 1.0, False), False),
    (np.int64(1), (0.0, 1.0, True), True),
    (np.float64(np.nan), (0.0, 1.0, True), False),
]


@pytest.mark.parametrize("value, interval, inside", AS_FLOAT_CASES)
def test_as_float_interval(value, interval, inside):
    """Both ends, open and closed; NaN and infinities; Python and numpy scalars."""
    low, high, closed_high = interval
    if inside:
        number = as_float(value, "x", low, high, closed_high=closed_high)
        assert type(number) is float and number == float(value)
    else:
        with pytest.raises(ValueError, match=r"^x must be in \(0, (1|90|inf)[)\]], got "):
            as_float(value, "x", low, high, closed_high=closed_high)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, [0.5]])
def test_as_float_rejects_non_numbers(value):
    for interval in ((), (0.0, 1.0)):
        with pytest.raises(ValueError, match=r"^x must be a number, got "):
            as_float(value, "x", *interval)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e308, np.float32(2.5)])
def test_as_float_without_interval_converts_any_number(value):
    number = as_float(value, "x")
    assert type(number) is float and (number == float(value) or math.isnan(number))


def _tied_and_zero_vectors():
    """Vectors whose largest magnitude is shared by two or three components,
    in every sign pattern, and vectors built from signed zeros."""
    for big, small in ((1.0, 0.5), (0.5, 1.0), (2.0, 0.0)):
        for pattern in ((big, big, small), (big, small, big), (small, big, big), (big, big, big)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                yield np.array(pattern) * signs
    for values in itertools.product((0.0, -0.0, 0.25, -0.25), repeat=3):
        yield np.array(values)


def test_canonical_sign_one_vector_matches_stacked_path(rng):
    vectors = [*rng.normal(size=(500, 3)), *_tied_and_zero_vectors()]
    for v in vectors:
        one = canonical_sign(v)
        assert one.tobytes() == canonical_sign(v[None, :])[0].tobytes(), v
        assert one.tobytes() == (-v if v[np.argmax(np.abs(v))] < 0 else v).tobytes(), v
