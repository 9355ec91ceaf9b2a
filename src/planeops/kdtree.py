"""k-NN and radius queries over a point cloud, on scipy's cKDTree.

The tree is built over a copy of the cloud sorted into Z-order (Morton)
cells, so that its build and queries walk nearby memory, and answers are
mapped back to cloud indices. k-NN rows hold cKDTree's distances, sorted
ascending; points at exactly equal distance come back in cKDTree's order
over the copy, which is deterministic for a given scipy, so seeded runs
reproduce bit-for-bit. Radius queries are inclusive (``d**2 <= r**2``) and
return indices in ascending order.

cKDTree is loaded when the first index is built, so commands that never
build one do not pay for loading it; see :func:`load_ckdtree`.
"""

import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import as_points

__all__ = ["CloudTooWide", "EmptyCloud", "KdTree", "load_ckdtree", "row_blocks"]

ZORDER_CELLS = 32  # per axis: 5 bits each, so a Morton key fits in uint16, whose stable argsort is a radix sort
BLOCK_ENTRIES = 2**15  # per row block of k-NN queries, normals and edge tests: their temporaries stay within L2


def row_blocks(m: int, per_row: int):
    """Slices over ``m`` rows of ``per_row`` entries each: at most ``BLOCK_ENTRIES`` entries, or one row."""
    step = max(1, BLOCK_ENTRIES // max(1, per_row))
    return (slice(start, start + step) for start in range(0, m, step))


CKDTREE_MODULE = "scipy.spatial._ckdtree"  # the extension that defines cKDTree, under scipy's own name
_ckdtree = None  # the class, once loaded
_ckdtree_lock = threading.Lock()


def load_ckdtree() -> type:
    """scipy's cKDTree class, loaded once per process.

    ``scipy.spatial``'s package init loads qhull, the distance functions
    and ``scipy.special``, none of which an index needs. So unless that
    package or the extension is already imported, the extension
    ``scipy/spatial/_ckdtree<suffix>`` is loaded from its file alone and
    registered under its scipy name, where a later ``import scipy.spatial``
    finds and reuses it, class and all. The file name is scipy's private
    layout: when no file matches, or loading it fails, the public import is
    used. Threads that build their first indexes at once load it once.
    """
    global _ckdtree
    with _ckdtree_lock:
        if _ckdtree is None:
            _ckdtree = _find_ckdtree()
        return _ckdtree


def _find_ckdtree() -> type:
    if CKDTREE_MODULE in sys.modules:  # scipy.spatial imports it
        return sys.modules[CKDTREE_MODULE].cKDTree
    import scipy

    folder = Path(scipy.__file__).parent / "spatial"
    path = next((p for p in (folder / f"_ckdtree{s}" for s in EXTENSION_SUFFIXES) if p.is_file()), None)
    if path is not None:
        spec = spec_from_file_location(CKDTREE_MODULE, path)
        try:
            module = module_from_spec(spec)
            sys.modules[CKDTREE_MODULE] = module
            spec.loader.exec_module(module)
            return module.cKDTree
        except (ImportError, AttributeError):
            sys.modules.pop(CKDTREE_MODULE, None)
    from scipy.spatial import cKDTree

    return cKDTree


class EmptyCloud(ValueError):
    """Raised when building an index over zero points."""


class CloudTooWide(ValueError):
    """Raised when a cloud's squared distances or its scatter about its mean, and so a plane fit's, can overflow."""


class KdTree:
    """Static index over an (N, 3) cloud; queries return indices into it.

    ``points`` is the caller's array, never copied or reordered; the tree
    holds its own Z-ordered copy. Queries do not mutate, so a built index is
    safe to share across threads. A cloud without points raises EmptyCloud.
    One whose squared bounding-box diagonal overflows raises CloudTooWide, and
    so does one whose squared offsets from its mean overflow in sum, a bound
    on the scatter of any plane fit over its points.
    """

    def __init__(self, points):
        pts = as_points(points)
        if pts.shape[0] == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self.points = pts
        self._keys = keys = np.zeros(pts.shape[0], dtype=np.uint16)  # Morton key of each point's cell among 32**3
        cell = np.empty(pts.shape[0])
        diagonal2 = 0.0
        for axis in range(3):  # a column at a time: numpy reduces an (N, 3) array along axis 0 row by row
            col = pts[:, axis]
            lo = float(col.min())
            span = float(col.max()) - lo  # Python floats overflow to inf without a warning
            diagonal2 += span * span
            if diagonal2 == np.inf:
                raise CloudTooWide("cloud too wide to index: its squared bounding-box diagonal overflows float64")
            if span <= 1e-300:  # a flat axis, or one too narrow to scale: one cell
                continue
            np.multiply(np.subtract(col, lo, out=cell), (ZORDER_CELLS - 1e-9) / span, out=cell)  # < 32 after rounding
            bits = cell.astype(np.uint16)
            for shift, mask in ((8, 0x100F), (4, 0x10C3), (2, 0x1249)):  # 5 bits to every third bit
                bits |= bits << shift
                bits &= mask
            keys |= bits << axis
        if pts.shape[0] * diagonal2 == np.inf:  # below this the sum is finite: no need to take it
            offsets = pts - pts.min(axis=0)  # each within the diagonal, so their mean cannot overflow
            with np.errstate(over="ignore"):
                if np.square(offsets - offsets.mean(axis=0)).sum() == np.inf:
                    raise CloudTooWide("cloud too wide to index: its scatter about its mean overflows float64")
        order = np.argsort(keys, kind="stable")  # int64: np.take gathers twice as fast by it as by int32
        # Sliding-midpoint splits build about 40% faster than median splits
        # on a 325k-point room (scipy 1.17, one thread) and query no slower;
        # skipping node shrinking and larger leaves save more of the build.
        # The order of equidistant neighbours depends on the tree's shape and
        # on the copy's order, so changing either can change output bytes.
        self._tree = load_ckdtree()(np.take(pts, order, axis=0), leafsize=32, balanced_tree=False, compact_nodes=False)
        self._order = order.astype(np.int32)  # cloud index of each copy row

    def knn(self, indices, k: int):
        """The k nearest other cloud points of each cloud point in ``indices``.

        Returns ``(distances, neighbours)``, each (m, min(k, n - 1)) for m
        indices into an n-point cloud: cKDTree's neighbours without the
        queried point itself, sorted ascending. Equidistant points keep
        cKDTree's order over the ordered copy; a duplicate of the queried
        point is a neighbour at distance 0. Queries run in Z-order, in blocks
        of at most ``BLOCK_ENTRIES`` entries.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        m, n = idx.size, len(self)
        if ((idx < 0) | (idx >= n)).any():
            raise ValueError("indices must index the cloud")
        width = min(k, n - 1)
        out_dist, out_nbr = np.empty((m, width)), np.empty((m, width), dtype=np.intp)
        order = np.argsort(self._keys[idx], kind="stable")
        for rows in row_blocks(m, width + 1):
            block = order[rows]
            own = idx[block]
            dist, nbr = self._tree.query(np.take(self.points, own, axis=0), k=width + 1)
            dist, nbr = dist.reshape(own.size, width + 1), np.take(self._order, nbr).reshape(own.size, width + 1)
            keep = nbr != own[:, None]  # drop the queried point, or the farthest column of a row that lacks it
            keep[keep.all(axis=1), -1] = False
            out_dist[block] = dist[keep].reshape(own.size, width)
            out_nbr[block] = nbr[keep].reshape(own.size, width)
        return out_dist, out_nbr

    def radius_search(self, centers, radius: float) -> np.ndarray:
        """Indices of the points within ``radius`` (inclusive) of each centre.

        ``centers`` is an (m, 3) array of positions; an empty sequence holds
        none. Returns an (m, w) int64 array: row i holds centre i's indices,
        ascending, padded with -1 to the largest count w.
        """
        if not radius > 0.0:  # NaN too
            raise ValueError(f"radius must be positive, got {radius}")
        c = np.asarray(centers, dtype=np.float64)
        if c.shape == (0,):
            c = c.reshape(0, 3)
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError(f"centers must be (m, 3), got shape {c.shape}")
        balls = self._tree.query_ball_point(c, radius)
        lengths = np.fromiter(map(len, balls), dtype=np.int64, count=c.shape[0])
        found = np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(lengths.sum()))
        out = np.full((c.shape[0], lengths.max(initial=0)), len(self), dtype=np.int64)  # sorts after every index
        out[np.arange(out.shape[1]) < lengths[:, None]] = np.take(self._order, found)
        out.sort(axis=1)
        out[out == len(self)] = -1
        return out

    def __len__(self) -> int:
        return self.points.shape[0]
