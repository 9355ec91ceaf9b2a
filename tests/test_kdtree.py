"""Spatial index tests against full-scan oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_knn_row_matches_brute_force, brute_force_knn, brute_force_radius, reference_knn
from planeops import EmptyCloud, KdTree


def assert_radius_rows_match_brute_force(tree, centres, radius):
    """Each padded row holds the full scan's ball, then -1 to the widest ball."""
    rows = tree.radius_search(centres, radius)
    balls = [brute_force_radius(tree.points, c, radius) for c in centres]
    assert rows.dtype == np.int64
    assert rows.shape == (len(centres), max((b.size for b in balls), default=0))
    for row, ball in zip(rows, balls):
        np.testing.assert_array_equal(row[:ball.size], ball)
        assert (row[ball.size:] == -1).all()


def test_empty_cloud_raises():
    with pytest.raises(EmptyCloud):
        KdTree(np.empty((0, 3)))


def test_single_point_cloud():
    # The only point has no other point: its rows are empty.
    tree = KdTree([[1.0, 2.0, 3.0]])
    d, i = tree.knn([0, 0], k=3)
    assert d.shape == i.shape == (2, 0)
    assert tree.radius_search([(1.0, 2.0, 3.0)], 0.5).tolist() == [[0]]


def test_line_of_points():
    tree = KdTree([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    _, i = tree.knn([0], k=2)
    assert i.tolist() == [[1, 2]]


def test_saturation_returns_all():
    tree = KdTree([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    d, i = tree.knn([0, 2], k=5)
    assert d.shape == i.shape == (2, 2)
    assert [sorted(row) for row in i.tolist()] == [[1, 2], [0, 1]]


def test_self_excluded():
    tree = KdTree([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    d, i = tree.knn([0, 1, 2], k=1)
    assert i.tolist() == [[1], [0], [1]]
    assert d.tolist() == [[1.0], [1.0], [2.0]]


def test_equidistant_neighbours():
    # four points equidistant from the origin: any two of them are an answer
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=np.float64)
    tree = KdTree(pts)
    d, i = tree.knn([0], k=2)
    assert d.tolist() == [[1.0, 1.0]]
    assert_knn_row_matches_brute_force(pts, 0, 2, d[0], i[0])


def test_knn_matches_brute_force(rng):
    pts = rng.uniform(0, 1, size=(1000, 3))
    tree = KdTree(pts)
    own = rng.choice(1000, size=100, replace=False)
    for k in (1, 10, 30):
        d, i = tree.knn(own, k)
        assert d.shape == i.shape == (100, k)
        for row, e in enumerate(own):
            bd, bi = brute_force_knn(pts, e, k)
            np.testing.assert_array_equal(i[row], bi)
            np.testing.assert_array_equal(d[row], bd)


def test_knn_prefix_property(rng):
    pts = rng.uniform(0, 1, size=(400, 3))
    tree = KdTree(pts)
    own = rng.choice(400, size=20, replace=False)
    _, i_small = tree.knn(own, 7)
    _, i_big = tree.knn(own, 12)
    np.testing.assert_array_equal(i_small, i_big[:, :7])


def test_knn_takes_only_a_flat_index_array():
    tree = KdTree([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    for bad in (np.array([[0, 1]]), np.array([[0], [1]]), 0):
        with pytest.raises(ValueError, match="1-D"):
            tree.knn(bad, k=1)
    assert tree.knn([], k=1)[1].shape == (0, 1)


def test_knn_rejects_index_outside_cloud():
    # numpy would read index -1 as the last point
    tree = KdTree([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    for bad in ([-1], [0, 3], [1, 2**40]):
        with pytest.raises(ValueError, match="index the cloud"):
            tree.knn(bad, k=1)


grid_points = st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=8, max_size=60)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(points=grid_points, data=st.data())
def test_knn_batch_on_integer_grid_matches_brute_force(points, data):
    # Duplicates and equidistant grid points tie heavily, and a duplicate may
    # come before the queried copy.
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    k = data.draw(st.one_of(st.integers(1, 3), st.integers(1, n + 3)), label="k")
    own = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), label="own")
    tree = KdTree(pts)
    d, i = tree.knn(own, k)
    for row, e in enumerate(own):
        assert_knn_row_matches_brute_force(pts, e, k, d[row], i[row])


@st.composite
def mixed_clouds(draw):
    """Generic points plus lattice points, some repeated, in shuffled order.

    Generic points have no ties; lattice points tie exactly, and a repeat
    may sit at a lower index than the queried copy.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    lattice = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=30), label="lattice")
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(lattice), max_size=len(lattice)), label="repeats")
    generic = rng.uniform(0.0, 2.0, size=(draw(st.integers(0, 40), label="generic"), 3))
    pts = np.concatenate([generic, np.repeat(np.asarray(lattice, dtype=np.float64), repeats, axis=0)])
    return pts[rng.permutation(pts.shape[0])]


def _assert_same_knn(tree, own, k):
    got, want = tree.knn(own, k), reference_knn(tree, own, k)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.flags.c_contiguous
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))  # the same bits


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cloud=mixed_clouds(), data=st.data())
def test_knn_mixed_batch_matches_brute_force(cloud, data):
    # One batch holds rows without ties and rows with exact ties at the k-th
    # distance, queries whose duplicate comes first, and with k near n,
    # clouds where every point is fetched. Each row is also what a batch of
    # its index alone gives, whatever leaf order the batch is queried in, and
    # the batch, empty or not, has the reference query's bits.
    pts = cloud
    n = pts.shape[0]
    k = data.draw(st.one_of(st.integers(1, 8), st.integers(max(1, n - 3), n + 3)), label="k")
    own = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=20), label="own"), dtype=np.int64)
    tree = KdTree(pts)
    _assert_same_knn(tree, own, k)
    d, i = tree.knn(own, k)
    assert d.shape == i.shape == (len(own), min(k, n - 1))
    for row, e in enumerate(own.tolist()):
        assert_knn_row_matches_brute_force(pts, e, k, d[row], i[row])
        if row in (0, len(own) - 1):
            sd, si = tree.knn([e], k)
            np.testing.assert_array_equal(si[0], i[row])
            np.testing.assert_array_equal(sd[0], d[row])


@pytest.mark.parametrize("copies", [1, 2, 5])
def test_knn_matches_reference_knn(rng, copies):
    # With one copy of each point, every queried point is its own first
    # neighbour; with copies, some row has a duplicate first, so the queried
    # point is dropped from later columns too.
    pts = np.repeat(rng.uniform(0.0, 1.0, size=(600 // copies, 3)), copies, axis=0)
    pts = pts[rng.permutation(pts.shape[0])]
    tree = KdTree(pts)
    all_idx = np.arange(pts.shape[0])
    first = tree._tree.query(pts, k=2)[1][:, 0]
    assert (first == all_idx).all() == (copies == 1)
    for k in (1, 3, 10):
        for own in (all_idx, rng.permutation(all_idx)[:100], np.array([7, 7, 3]), np.empty(0, dtype=np.int64)):
            _assert_same_knn(tree, own, k)


def test_radius_simple():
    tree = KdTree([[0.05, 0, 0], [0.2, 0, 0]])
    assert tree.radius_search([(0, 0, 0)], 0.1).tolist() == [[0]]


def test_radius_covers_whole_cloud(rng):
    pts = rng.uniform(0, 1, size=(50, 3))
    tree = KdTree(pts)
    assert tree.radius_search([(0.5, 0.5, 0.5)], 10.0).tolist() == [list(range(50))]


def test_radius_boundary_inclusive():
    tree = KdTree([[0.5, 0, 0], [0.5000001, 0, 0]])
    assert tree.radius_search([(0, 0, 0)], 0.5).tolist() == [[0]]


def test_radius_without_centres():
    tree = KdTree([[0, 0, 0], [1, 1, 1]])
    for none in (np.empty((0, 3)), []):
        rows = tree.radius_search(none, 0.5)
        assert rows.shape == (0, 0) and rows.dtype == np.int64


def test_radius_takes_only_rows_of_three():
    # Six numbers are not two centres, nor is an (m, 6) array 2m of them.
    tree = KdTree(np.eye(3))
    for bad in (np.array([1.0, 0, 0, 0, 1, 0]), np.zeros((2, 6)), np.zeros(3), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            tree.radius_search(bad, 0.1)


def test_radius_matches_brute_force(rng):
    pts = rng.uniform(0, 1, size=(1000, 3))
    tree = KdTree(pts)
    for r in (0.05, 0.1, 0.3):
        assert_radius_rows_match_brute_force(tree, rng.uniform(0, 1, size=(40, 3)), r)


def test_radius_monotone_in_radius(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    tree = KdTree(pts)
    centres = rng.uniform(0, 1, size=(10, 3))
    for small, big in zip(tree.radius_search(centres, 0.1), tree.radius_search(centres, 0.25)):
        assert set(small.tolist()) - {-1} <= set(big.tolist())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(points=grid_points, data=st.data())
def test_radius_on_integer_grid_matches_brute_force(points, data):
    # Lattice distances are often exactly the radius (the bound is inclusive),
    # and centres beyond the lattice have empty balls.
    pts = np.asarray(points, dtype=np.float64)
    radius = data.draw(st.sampled_from([0.5, 1.0, np.sqrt(2.0), 1.5, 2.0, 3.0]), label="radius")
    centres = np.asarray(data.draw(st.lists(st.tuples(*[st.integers(-2, 12)] * 3), min_size=0, max_size=20),
                                   label="centres"), dtype=np.float64).reshape(-1, 3) / 2.0
    assert_radius_rows_match_brute_force(KdTree(pts), centres, radius)


def test_duplicate_points(rng):
    pts = np.repeat(rng.uniform(0, 1, size=(20, 3)), 3, axis=0)
    tree = KdTree(pts)
    d, i = tree.knn(np.arange(pts.shape[0]), 5)
    for row in range(pts.shape[0]):
        assert_knn_row_matches_brute_force(pts, row, 5, d[row], i[row])


def test_excluded_copy_among_duplicates():
    # With 5 copies and k = 2, cKDTree's 3 nearest copies may leave out the
    # queried one; the row then drops its farthest column instead.
    pts = np.concatenate([np.repeat([[0.5, 0.5, 0.5]], 5, axis=0), [[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.6]]])
    tree = KdTree(pts)
    d, i = tree.knn(np.arange(5), 2)
    assert d.tolist() == [[0.0, 0.0]] * 5
    for copy in range(5):
        assert_knn_row_matches_brute_force(pts, copy, 2, d[copy], i[copy])


def test_invalid_arguments():
    tree = KdTree([[0, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError):
        tree.knn([0], k=0)
    with pytest.raises(ValueError):
        tree.radius_search([(0, 0, 0)], 0.0)
