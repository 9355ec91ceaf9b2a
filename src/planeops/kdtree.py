"""k-NN and radius queries over a point cloud, on scipy's cKDTree.

Both queries return what cKDTree returns. k-NN rows hold cKDTree's
distances and indices, sorted by distance; points at exactly equal distance
come back in cKDTree's order, which is deterministic for a given scipy, so
seeded runs reproduce bit-for-bit. Radius queries are inclusive
(``d**2 <= r**2``) and return indices in ascending order.

k-NN queries are made in the tree's leaf order, so that consecutive queries
share nodes, and returned in the caller's order.

scipy.spatial is imported when the first index is built, so commands that
never build one do not pay for loading it.
"""

from itertools import chain

import numpy as np

from .geometry import as_points

__all__ = ["EmptyCloud", "KdTree"]


class EmptyCloud(ValueError):
    """Raised when building an index over zero points."""


class KdTree:
    """Static index over an (N, 3) cloud; queries return indices into it.

    The source array is never copied or reordered. Queries do not mutate, so
    a built index is safe to share across threads.
    """

    def __init__(self, points):
        from scipy.spatial import cKDTree

        pts = as_points(points)
        if pts.shape[0] == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self.points = pts
        # Sliding-midpoint splits build about 40% faster than median splits
        # on a 325k-point room (scipy 1.17, one thread) and query no slower;
        # skipping node shrinking and larger leaves save more of the build.
        # The order of equidistant neighbours depends on the tree's shape, so
        # changing these settings can change output bytes.
        self._tree = cKDTree(pts, leafsize=32, balanced_tree=False, compact_nodes=False)

    def knn(self, indices, k: int):
        """The k nearest other cloud points of each cloud point in ``indices``.

        Returns ``(distances, neighbours)``, each (m, min(k, n - 1)) for m
        indices into an n-point cloud: cKDTree's neighbours without the
        queried point itself, sorted ascending. Equidistant points keep
        cKDTree's order; a duplicate of the queried point is a neighbour at
        distance 0.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        m, n = idx.size, len(self)
        if ((idx < 0) | (idx >= n)).any():
            raise ValueError("indices must index the cloud")
        rank = np.empty(n, dtype=np.int32)  # of each point in the tree's leaf order
        rank[self._tree.indices] = np.arange(n, dtype=np.int32)
        order = np.argsort(rank[idx])
        idx = idx[order]
        width = min(k, n - 1)
        dist, nbr = self._tree.query(self.points[idx], k=width + 1)
        dist, nbr = dist.reshape(m, width + 1), nbr.reshape(m, width + 1)
        keep = nbr != idx[:, None]  # drop the queried point, or the farthest column of a row that lacks it
        keep[keep.all(axis=1), -1] = False
        out_dist = np.empty((m, width))
        out_dist[order] = dist[keep].reshape(m, width)
        del dist  # before the second output is allocated
        out_nbr = np.empty((m, width), dtype=nbr.dtype)
        out_nbr[order] = nbr[keep].reshape(m, width)
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
        balls = self._tree.query_ball_point(c, radius, return_sorted=True)
        lengths = np.fromiter(map(len, balls), dtype=np.int64, count=c.shape[0])
        found = np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(lengths.sum()))
        out = np.full((c.shape[0], lengths.max(initial=0)), -1, dtype=np.int64)
        out[np.arange(out.shape[1]) < lengths[:, None]] = found
        return out

    def __len__(self) -> int:
        return self.points.shape[0]
