"""k-NN and radius queries over a point cloud, on scipy's cKDTree.

Both queries return what cKDTree returns. k-NN rows hold cKDTree's
distances and indices, sorted by distance; points at exactly equal distance
come back in cKDTree's order, which is deterministic for a given scipy, so
seeded runs reproduce bit-for-bit. Radius queries are inclusive
(``d**2 <= r**2``) and return indices in ascending order.

Rows that are cloud points (``exclude_index`` given) are queried in the
tree's leaf order, so that consecutive queries share nodes, and returned in
the caller's order.

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

    def knn(self, query, k: int, exclude_index=None):
        """The k nearest points to ``query`` by Euclidean distance.

        ``query`` is one point or an (m, 3) array of points. ``exclude_index``
        is None, one point index, or one index per query row; that point is
        skipped. Returns ``(distances, indices)`` as cKDTree's ``query``
        gives them, sorted ascending: (k,) arrays for one point, (m, k) for
        an array. Equidistant points keep cKDTree's order. If fewer than k
        points remain after the exclusion, all of them are returned.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        single = np.ndim(query) == 1
        q = np.asarray(query, dtype=np.float64).reshape(-1, 3)
        m, n = q.shape[0], len(self)
        if exclude_index is None:
            width = min(k, n)
            dist, idx = self._tree.query(q, k=width)
            dist, idx = dist.reshape(m, width), idx.reshape(m, width)
            return (dist[0], idx[0]) if single else (dist, idx)

        exclude = np.broadcast_to(np.asarray(exclude_index, dtype=np.int64), (m,))
        if ((exclude < 0) | (exclude >= n)).any():
            raise ValueError("exclude_index must index the cloud")
        order = None
        if m > 1:
            rank = np.empty(n, dtype=np.int32)  # of each point in the tree's leaf order
            rank[self._tree.indices] = np.arange(n, dtype=np.int32)
            order = np.argsort(rank[exclude])
            q, exclude = q[order], exclude[order]
        width = min(k, n - 1)
        dist, idx = self._tree.query(q, k=width + 1)
        dist, idx = dist.reshape(m, width + 1), idx.reshape(m, width + 1)
        # Drop the excluded point, or the farthest column of a row that lacks it.
        drop = idx == exclude[:, None]
        drop[~drop.any(axis=1), -1] = True
        dist, idx = dist[~drop].reshape(m, width), idx[~drop].reshape(m, width)
        if order is not None:
            dist[order], idx[order] = dist.copy(), idx.copy()
        return (dist[0], idx[0]) if single else (dist, idx)

    def radius_search(self, center, radius: float) -> np.ndarray:
        """Indices of all points with distance <= radius, ascending.

        ``center`` is one point, giving a 1-D array, or an (m, 3) array of
        points, giving an (m, w) array: row i holds centre i's indices,
        padded with -1 to the largest count w. Each row equals the one-point
        query on its centre.
        """
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        single = np.ndim(center) == 1
        c = np.asarray(center, dtype=np.float64).reshape(-1, 3)
        balls = self._tree.query_ball_point(c, radius, return_sorted=True)
        lengths = np.fromiter(map(len, balls), dtype=np.int64, count=c.shape[0])
        found = np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(lengths.sum()))
        if single:
            return found
        out = np.full((c.shape[0], lengths.max(initial=0)), -1, dtype=np.int64)
        out[np.arange(out.shape[1]) < lengths[:, None]] = found
        return out

    def __len__(self) -> int:
        return self.points.shape[0]
