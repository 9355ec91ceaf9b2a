"""Spatial index tests against full-scan oracles."""

import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_knn_row_matches_brute_force,
    brute_force_knn,
    brute_force_radius,
    reference_knn,
    run_python,
)
from planeops import CloudTooWide, EmptyCloud, KdTree, make_box_room
from planeops import kdtree


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


@pytest.mark.parametrize("pts", [
    pytest.param([[-1e308, 0, 0], [1e308, 1, 0], [0, 2, 1]], id="span-past-float64"),
    pytest.param([[0, 0, 0], [2e154, 0, 0]], id="square-past-float64"),
    pytest.param([[0, 0, 0], [1e154, 1e154, 1e154]], id="diagonal-past-float64"),
])
def test_too_wide_cloud_raises(pts):
    with pytest.raises(CloudTooWide):
        KdTree(pts)


def test_single_point_cloud():
    # The only point has no other point: its rows are empty.
    tree = KdTree([[1.0, 2.0, 3.0]])
    d, i = tree.knn([0, 0], k=3)
    assert d.shape == i.shape == (2, 0)
    assert tree.radius_search([(1.0, 2.0, 3.0)], 0.5).tolist() == [[0]]


@pytest.mark.parametrize("pts", [
    pytest.param([[0, 0, 0], [1, 0, 0], [2, 0, 0]], id="flat-axes"),
    pytest.param([[0, 0, 0], [1e-310, 0, 0], [0, 1, 0], [3e-310, 1e-310, 0]], id="subnormal-span"),
    pytest.param([[-6e153, 0, 0], [6e153, 1, 0], [0, 2, 1]], id="wide-span"),
])
def test_zorder_keys_take_any_finite_extent(pts):
    # Sorting into Z-order cells neither warns nor fails on an axis without
    # extent, one too narrow to scale, or one whose square nearly overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = KdTree(pts)
    assert sorted(tree._order.tolist()) == list(range(len(pts)))
    if np.abs(pts).max() < 1e300:
        assert tree.knn([0], k=1)[1].tolist() == [[brute_force_knn(np.asarray(pts, dtype=float), 0, 1)[1][0]]]


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
    first = tree._order[tree._tree.query(pts, k=2)[1][:, 0]]
    assert (first == all_idx).all() == (copies == 1)
    for k in (1, 3, 10):
        for own in (all_idx, rng.permutation(all_idx)[:100], np.array([7, 7, 3]), np.empty(0, dtype=np.int64)):
            _assert_same_knn(tree, own, k)


def test_permuted_cloud_permutes_answers(rng):
    # Without ties the geometry alone fixes every answer. The same cloud in
    # another input order, and so with another ordered copy inside each
    # Z-order cell, gives the same distances, bit for bit, and the same
    # points under the permutation.
    pts = rng.uniform(0.0, 1.0, size=(3000, 3))
    perm = rng.permutation(pts.shape[0])
    tree, permuted = KdTree(pts), KdTree(pts[perm])
    own = rng.permutation(pts.shape[0])[:500]
    for k in (1, 10, 30):
        dist, nbr = tree.knn(perm[own], k)
        p_dist, p_nbr = permuted.knn(own, k)
        np.testing.assert_array_equal(p_dist.view(np.uint64), dist.view(np.uint64))
        np.testing.assert_array_equal(perm[p_nbr], nbr)
    centres = rng.uniform(0.0, 1.0, size=(50, 3))
    for radius in (0.05, 0.2):
        rows, p_rows = tree.radius_search(centres, radius), permuted.radius_search(centres, radius)
        assert rows.shape == p_rows.shape
        for row, p_row in zip(rows, p_rows):
            assert sorted(perm[p_row[p_row >= 0]].tolist()) == row[row >= 0].tolist()


# BLOCK_ENTRIES for m queries whose rows hold w neighbours plus the queried
# point: fewer entries than one row, 7 rows, and about half the queries,
# which leaves a smaller last block.
KNN_BLOCKS = {"one-row": lambda m, w: 1, "seven-rows": lambda m, w: 7 * (w + 1),
              "ragged": lambda m, w: (m // 2 + 1) * (w + 1)}


@pytest.mark.parametrize("block", sorted(KNN_BLOCKS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(cloud=mixed_clouds(), data=st.data())
def test_knn_blocks_match_one_query(block, cloud, data):
    # Blocks of queries give the bits of the reference's single query, ties
    # and duplicates included.
    n = cloud.shape[0]
    k = data.draw(st.integers(1, n + 1), label="k")
    own = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40), label="own"))
    tree = KdTree(cloud)
    with mock.patch.object(kdtree, "BLOCK_ENTRIES", KNN_BLOCKS[block](own.size, min(k, n - 1))):
        _assert_same_knn(tree, own, k)


@pytest.mark.parametrize("m, per_row, sizes", [
    pytest.param(0, 10, [], id="no-rows"),
    pytest.param(3, kdtree.BLOCK_ENTRIES + 1, [1, 1, 1], id="row-past-block"),
    pytest.param(kdtree.BLOCK_ENTRIES // 4, 8, [kdtree.BLOCK_ENTRIES // 8] * 2, id="exact-multiple"),
])
def test_row_blocks_cover_rows_in_order(m, per_row, sizes):
    blocks = [range(m)[rows] for rows in kdtree.row_blocks(m, per_row)]
    assert [len(b) for b in blocks] == sizes
    assert [i for b in blocks for i in b] == list(range(m))


def test_knn_peak_memory_is_outputs_and_one_block():
    # All points at k = 10 on a 65k room: the (m, k) outputs, 12 bytes per
    # query for the queries' Morton keys and their Z-order, and one block of
    # at most BLOCK_ENTRIES entries at 48 bytes each. One whole query peaked
    # at 23.9 MB, 13.5 MB above the outputs.
    points = make_box_room(3.5, 10000, 5000)[0]
    tree, all_idx = KdTree(points), np.arange(points.shape[0])
    tree.knn(all_idx[:10], 10)
    tracemalloc.start()
    try:
        dist, nbr = tree.knn(all_idx, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dist.nbytes + nbr.nbytes + 12 * all_idx.size + 48 * kdtree.BLOCK_ENTRIES


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


def test_radius_rows_ascend_against_zorder(rng):
    # The input runs against the Z-order, so the tree's copy holds the cloud
    # nearly reversed: each row still maps back to ascending cloud indices,
    # padded with -1.
    pts = rng.uniform(0.0, 1.0, size=(2000, 3))
    pts = pts[KdTree(pts)._order[::-1]]
    tree = KdTree(pts)
    assert (np.diff(tree._order) < 0).mean() > 0.9
    for r in (0.05, 0.1, 0.3):
        assert_radius_rows_match_brute_force(tree, rng.uniform(0, 1, size=(40, 3)), r)


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
    with pytest.raises(ValueError):
        tree.radius_search([(0, 0, 0)], float("nan"))


# The answers a loader path gives on each cloud of an .npz file, written to
# another: k-NN at a few k and balls at two radii around every point.
LOADER_ANSWERS = (
    "import sys\n"
    "import numpy as np\n"
    "from planeops import kdtree\n"
    "path = sys.argv[1]\n"
    "if path == 'no-file':\n"
    "    kdtree.EXTENSION_SUFFIXES = ['.no-such-suffix']\n"
    "elif path == 'load-fails':\n"
    "    def failing(spec):\n"
    "        raise ImportError('cannot load')\n"
    "    kdtree.module_from_spec = failing\n"
    "clouds = np.load(sys.argv[2])\n"
    "answers = {}\n"
    "for name in clouds.files:\n"
    "    pts = clouds[name]\n"
    "    tree, own = kdtree.KdTree(pts), np.arange(pts.shape[0])\n"
    "    for k in (1, 4, pts.shape[0]):\n"
    "        answers[f'{name}-knn{k}-d'], answers[f'{name}-knn{k}-i'] = tree.knn(own, k)\n"
    "    for radius in (0.5, 1.0):\n"
    "        answers[f'{name}-ball{radius}'] = tree.radius_search(pts, radius)\n"
    "np.savez(sys.argv[3], **answers)\n"
    "print(['scipy.spatial' in sys.modules, sys.modules[kdtree.CKDTREE_MODULE].cKDTree is kdtree.load_ckdtree()])\n"
)


@settings(max_examples=1, deadline=None, derandomize=True, database=None, phases=[Phase.generate])  # no shrinking
@given(clouds=st.lists(mixed_clouds(), min_size=12, max_size=12))
def test_public_import_fallback_gives_the_fast_paths_bits(tmp_path_factory, clouds):
    # When no extension file matches, or loading it fails, the public import
    # is used, and its tree answers with the same bits as the extension
    # loaded from its file. Each path runs in a fresh interpreter, so one
    # example of a dozen clouds stands for many: not the minimal one.
    assume(sum(len(cloud) for cloud in clouds) > 200)
    work = tmp_path_factory.mktemp("loader")
    np.savez(work / "clouds.npz", *clouds)
    answers = {}
    for path, imports_spatial in (("file", False), ("no-file", True), ("load-fails", True)):
        out = work / f"{path}.npz"
        assert run_python(LOADER_ANSWERS, path, work / "clouds.npz", out) == str([imports_spatial, True])
        with np.load(out) as found:
            answers[path] = {name: found[name] for name in found.files}
    fast = answers.pop("file")
    for other in answers.values():
        assert other.keys() == fast.keys()
        for name, want in fast.items():
            assert other[name].dtype == want.dtype
            np.testing.assert_array_equal(other[name].view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("first", ["scipy.spatial", "planeops"])
def test_loader_and_scipy_spatial_share_one_class(first):
    # An imported scipy.spatial is used as it is; an extension loaded first
    # is what a later import of scipy.spatial finds, class and all.
    script = (
        "import sys\n"
        "from planeops import kdtree\n"
        f"if {first!r} == 'scipy.spatial':\n"
        "    import scipy.spatial\n"
        "cls = kdtree.load_ckdtree()\n"
        "before = 'scipy.spatial' in sys.modules\n"
        "import scipy.spatial\n"
        "tree = kdtree.KdTree([[0, 0, 0], [1, 0, 0], [0, 2, 0]])\n"
        "print([before, cls is scipy.spatial.cKDTree, type(tree._tree) is cls,\n"
        "       sys.modules[kdtree.CKDTREE_MODULE].cKDTree is cls, tree.knn([0], 1)[1].tolist()])\n"
    )
    assert run_python(script) == str([first == "scipy.spatial", True, True, True, [[1]]])


def test_loader_loads_once_across_threads():
    # Threads that build their first indexes at once, more of them than
    # cores and switching often, run the extension's init once and all get
    # its class.
    workers, cls, calls, found = 8, object(), [], []
    started = threading.Barrier(workers)

    def slow_find():
        calls.append(cls)
        time.sleep(0.05)
        return cls

    def load():
        started.wait(timeout=10)
        found.append(kdtree.load_ckdtree())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(kdtree, "_ckdtree", None), mock.patch.object(kdtree, "_find_ckdtree", slow_find):
            threads = [threading.Thread(target=load) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == [cls] and found == [cls] * workers
