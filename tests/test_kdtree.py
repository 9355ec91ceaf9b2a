"""Spatial index tests against full-scan oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_knn_row_matches_brute_force, brute_force_knn, brute_force_radius
from planeops import EmptyCloud, KdTree


def assert_batch_matches_singles(tree, queries, k, exclude=None):
    """One batched knn call must equal the single-point calls, stacked."""
    queries = np.asarray(queries, dtype=np.float64)
    rows = [None] * len(queries) if exclude is None else np.broadcast_to(exclude, len(queries)).tolist()
    singles = [tree.knn(q, k, exclude_index=e) for q, e in zip(queries, rows)]
    d, i = tree.knn(queries, k, exclude_index=exclude)
    np.testing.assert_array_equal(d, np.stack([sd for sd, _ in singles]))
    np.testing.assert_array_equal(i, np.stack([si for _, si in singles]))


def test_empty_cloud_raises():
    with pytest.raises(EmptyCloud):
        KdTree(np.empty((0, 3)))


def test_single_point_cloud():
    tree = KdTree([[1.0, 2.0, 3.0]])
    d, i = tree.knn((1.0, 2.0, 3.0), k=1)
    assert i.tolist() == [0]
    assert d[0] == 0.0


def test_line_of_points():
    tree = KdTree([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    _, i = tree.knn((0.1, 0, 0), k=2)
    assert i.tolist() == [0, 1]


def test_saturation_returns_all():
    tree = KdTree([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    d, i = tree.knn((0, 0, 0), k=5)
    assert len(i) == 3
    assert sorted(i.tolist()) == [0, 1, 2]
    assert_batch_matches_singles(tree, [(0, 0, 0), (2, 0, 0)], k=5)
    assert_batch_matches_singles(tree, [(0, 0, 0), (2, 0, 0)], k=5, exclude=[0, 1])


def test_exclude_index():
    tree = KdTree([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    _, i = tree.knn((0, 0, 0), k=1, exclude_index=0)
    assert i.tolist() == [1]
    assert_batch_matches_singles(tree, tree.points, k=2, exclude=0)
    assert_batch_matches_singles(tree, tree.points, k=2, exclude=[0, 1, 2])


def test_equidistant_neighbours():
    # four points equidistant from the origin: any two of them are an answer
    pts = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=np.float64)
    tree = KdTree(pts)
    d, i = tree.knn((0, 0, 0), k=2)
    assert d.tolist() == [1.0, 1.0]
    assert_knn_row_matches_brute_force(pts, (0, 0, 0), 2, d, i)
    assert_batch_matches_singles(tree, [(0, 0, 0), (0, 0, 1), (1, 0, 0)], k=2)


def test_knn_matches_brute_force(rng):
    pts = rng.uniform(0, 1, size=(1000, 3))
    tree = KdTree(pts)
    queries = rng.uniform(0, 1, size=(100, 3))
    for k in (1, 10, 30):
        for q in queries:
            d, i = tree.knn(q, k)
            bd, bi = brute_force_knn(pts, q, k)
            np.testing.assert_array_equal(i, bi)
            np.testing.assert_array_equal(d, bd)
        assert_batch_matches_singles(tree, queries, k)


def test_knn_prefix_property(rng):
    pts = rng.uniform(0, 1, size=(400, 3))
    tree = KdTree(pts)
    for q in rng.uniform(0, 1, size=(20, 3)):
        _, i_small = tree.knn(q, 7)
        _, i_big = tree.knn(q, 12)
        np.testing.assert_array_equal(i_small, i_big[:7])


grid_points = st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=8, max_size=60)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(points=grid_points, data=st.data())
def test_knn_batch_on_integer_grid_matches_brute_force(points, data):
    # Duplicates and equidistant grid points tie heavily, and a duplicate may
    # come before the copy a query excludes.
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    k = data.draw(st.one_of(st.integers(1, 3), st.integers(1, n + 3)), label="k")
    queries = np.asarray(data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=20),
                                   label="queries"), dtype=np.float64) / 2.0
    exclude = data.draw(st.lists(st.integers(0, n - 1), min_size=len(queries), max_size=len(queries)),
                        label="exclude")
    tree = KdTree(pts)
    d, i = tree.knn(queries, k, exclude_index=exclude)
    for row, (q, e) in enumerate(zip(queries, exclude)):
        assert_knn_row_matches_brute_force(pts, q, k, d[row], i[row], exclude_index=e)


@st.composite
def mixed_clouds(draw):
    """Generic points plus lattice points, some repeated, in shuffled order.

    Generic points have no ties; lattice points tie exactly, and a repeat
    may sit at a lower index than the copy a query excludes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    lattice = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=30), label="lattice")
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(lattice), max_size=len(lattice)), label="repeats")
    generic = rng.uniform(0.0, 2.0, size=(draw(st.integers(0, 40), label="generic"), 3))
    pts = np.concatenate([generic, np.repeat(np.asarray(lattice, dtype=np.float64), repeats, axis=0)])
    return pts[rng.permutation(pts.shape[0])], rng


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cloud=mixed_clouds(), data=st.data())
def test_knn_mixed_batch_matches_brute_force(cloud, data):
    # One batch holds rows without ties and rows with exact ties at the k-th
    # distance, self-queries whose duplicate comes first, and with k near n,
    # clouds where every point is fetched.
    pts, rng = cloud
    n = pts.shape[0]
    k = data.draw(st.one_of(st.integers(1, 8), st.integers(max(1, n - 3), n + 3)), label="k")
    own = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=15), label="own"))
    halves = np.asarray(data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=10),
                                  label="halves"), dtype=np.float64) / 2.0
    generic = rng.uniform(0.0, 2.0, size=(5, 3))
    queries = np.concatenate([pts[own], halves, generic])
    exclude = np.concatenate([own, rng.integers(0, n, size=len(halves) + len(generic))])
    tree = KdTree(pts)
    for ex in (exclude, None):
        d, i = tree.knn(queries, k, exclude_index=ex)
        assert d.shape == i.shape == (len(queries), min(k, n - (ex is not None)))
        for row, q in enumerate(queries):
            e = None if ex is None else int(ex[row])
            assert_knn_row_matches_brute_force(pts, q, k, d[row], i[row], exclude_index=e)
            if row in (0, len(own), len(queries) - 1):  # the one-point form, on each kind of query
                sd, si = tree.knn(q, k, exclude_index=e)
                np.testing.assert_array_equal(si, i[row])
                np.testing.assert_array_equal(sd, d[row])


def test_radius_simple():
    tree = KdTree([[0.05, 0, 0], [0.2, 0, 0]])
    assert tree.radius_search((0, 0, 0), 0.1).tolist() == [0]


def test_radius_covers_whole_cloud(rng):
    pts = rng.uniform(0, 1, size=(50, 3))
    tree = KdTree(pts)
    assert tree.radius_search((0.5, 0.5, 0.5), 10.0).tolist() == list(range(50))


def test_radius_boundary_inclusive():
    tree = KdTree([[0.5, 0, 0], [0.5000001, 0, 0]])
    assert tree.radius_search((0, 0, 0), 0.5).tolist() == [0]


def test_radius_matches_brute_force(rng):
    pts = rng.uniform(0, 1, size=(1000, 3))
    tree = KdTree(pts)
    for r in (0.05, 0.1, 0.3):
        for q in rng.uniform(0, 1, size=(40, 3)):
            np.testing.assert_array_equal(tree.radius_search(q, r), brute_force_radius(pts, q, r))


def test_radius_monotone_in_radius(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    tree = KdTree(pts)
    for q in rng.uniform(0, 1, size=(10, 3)):
        small = set(tree.radius_search(q, 0.1).tolist())
        big = set(tree.radius_search(q, 0.25).tolist())
        assert small <= big


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(points=grid_points, data=st.data())
def test_radius_batch_on_integer_grid_matches_single_queries(points, data):
    # Lattice distances are often exactly the radius (the bound is inclusive),
    # and centres beyond the lattice have empty balls.
    pts = np.asarray(points, dtype=np.float64)
    radius = data.draw(st.sampled_from([0.5, 1.0, np.sqrt(2.0), 1.5, 2.0, 3.0]), label="radius")
    centres = np.asarray(data.draw(st.lists(st.tuples(*[st.integers(-2, 12)] * 3), min_size=0, max_size=20),
                                   label="centres"), dtype=np.float64).reshape(-1, 3) / 2.0
    tree = KdTree(pts)
    batch = tree.radius_search(centres, radius)
    singles = [tree.radius_search(c, radius) for c in centres]
    assert batch.dtype == np.int64
    assert batch.shape == (len(centres), max((s.size for s in singles), default=0))
    for row, single, centre in zip(batch, singles, centres):
        np.testing.assert_array_equal(single, brute_force_radius(pts, centre, radius))
        np.testing.assert_array_equal(row[:single.size], single)
        assert (row[single.size:] == -1).all()


def test_duplicate_points(rng):
    pts = np.repeat(rng.uniform(0, 1, size=(20, 3)), 3, axis=0)
    tree = KdTree(pts)
    for q in rng.uniform(0, 1, size=(10, 3)):
        d, i = tree.knn(q, 5)
        assert_knn_row_matches_brute_force(pts, q, 5, d, i)
    assert_batch_matches_singles(tree, rng.uniform(0, 1, size=(10, 3)), 5)
    assert_batch_matches_singles(tree, pts, 5, exclude=np.arange(pts.shape[0]))


def test_excluded_copy_among_duplicates():
    # With 5 copies and k = 2, cKDTree's 3 nearest copies may leave out the
    # excluded one; the row then drops its farthest column instead.
    pts = np.concatenate([np.repeat([[0.5, 0.5, 0.5]], 5, axis=0), [[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.6]]])
    tree = KdTree(pts)
    for copy in range(5):
        d, i = tree.knn(pts[copy], 2, exclude_index=copy)
        assert d.tolist() == [0.0, 0.0]
        assert_knn_row_matches_brute_force(pts, pts[copy], 2, d, i, exclude_index=copy)
    assert_batch_matches_singles(tree, pts[:5], 2, exclude=np.arange(5))


def test_invalid_arguments():
    tree = KdTree([[0, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError):
        tree.knn((0, 0, 0), k=0)
    with pytest.raises(ValueError):
        tree.radius_search((0, 0, 0), 0.0)
