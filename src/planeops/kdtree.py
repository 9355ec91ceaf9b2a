"""k-NN and radius queries over a point cloud, on scipy's cKDTree.

The tree is built over a copy of the cloud sorted into Z-order (Morton)
cells, so that its build and queries walk nearby memory, and answers are
mapped back to cloud indices. k-NN rows hold cKDTree's distances, sorted
ascending; points at exactly equal distance come back in cKDTree's order
over the copy, which is deterministic for a given scipy, so seeded runs
reproduce bit-for-bit. Radius queries are inclusive (``d**2 <= r**2``) and
return indices in ascending order.

scipy.spatial is imported when the first index is built, so commands that
never build one do not pay for loading it.
"""

from itertools import chain

import numpy as np

from .geometry import as_points

__all__ = ["EmptyCloud", "KdTree"]

ZORDER_CELLS = 32  # per axis: 5 bits each, so a Morton key fits in uint16, whose stable argsort is a radix sort
KNN_ENTRIES = 2**15  # neighbour entries per k-NN query block: about 40 bytes each of temporaries, within L2


class EmptyCloud(ValueError):
    """Raised when building an index over zero points."""


class KdTree:
    """Static index over an (N, 3) cloud; queries return indices into it.

    ``points`` is the caller's array, never copied or reordered; the tree
    holds its own Z-ordered copy. Queries do not mutate, so a built index is
    safe to share across threads.
    """

    def __init__(self, points):
        from scipy.spatial import cKDTree

        pts = as_points(points)
        if pts.shape[0] == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self.points = pts
        self._keys = keys = np.zeros(pts.shape[0], dtype=np.uint16)  # Morton key of each point's cell among 32**3
        cell = np.empty(pts.shape[0])
        for axis in range(3):  # a column at a time: numpy reduces an (N, 3) array along axis 0 row by row
            col = pts[:, axis]
            lo = float(col.min())
            span = float(col.max()) - lo  # a Python float overflows to inf without a warning
            if not 1e-300 < span < np.inf:  # a flat axis, or one too narrow or wide to scale: one cell
                continue
            np.multiply(np.subtract(col, lo, out=cell), (ZORDER_CELLS - 1e-9) / span, out=cell)  # < 32 after rounding
            bits = cell.astype(np.uint16)
            for shift, mask in ((8, 0x100F), (4, 0x10C3), (2, 0x1249)):  # 5 bits to every third bit
                bits |= bits << shift
                bits &= mask
            keys |= bits << axis
        order = np.argsort(keys, kind="stable")  # int64: np.take gathers twice as fast by it as by int32
        # Sliding-midpoint splits build about 40% faster than median splits
        # on a 325k-point room (scipy 1.17, one thread) and query no slower;
        # skipping node shrinking and larger leaves save more of the build.
        # The order of equidistant neighbours depends on the tree's shape and
        # on the copy's order, so changing either can change output bytes.
        self._tree = cKDTree(np.take(pts, order, axis=0), leafsize=32, balanced_tree=False, compact_nodes=False)
        self._order = order.astype(np.int32)  # cloud index of each copy row

    def knn(self, indices, k: int):
        """The k nearest other cloud points of each cloud point in ``indices``.

        Returns ``(distances, neighbours)``, each (m, min(k, n - 1)) for m
        indices into an n-point cloud: cKDTree's neighbours without the
        queried point itself, sorted ascending. Equidistant points keep
        cKDTree's order over the ordered copy; a duplicate of the queried
        point is a neighbour at distance 0. Queries run in Z-order, in blocks
        of at most ``KNN_ENTRIES`` entries.
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
        step = max(1, KNN_ENTRIES // (width + 1))
        for block in np.split(np.argsort(self._keys[idx], kind="stable"), range(step, m, step)):
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
        if radius <= 0.0:
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
