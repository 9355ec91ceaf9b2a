"""Reference plane labelings for scoring detectors: planar segments cut from
the connected components of the k-NN smoothness graph (see
:func:`generate_ground_truth`); points in no segment are labeled "other".
"""

from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, Orientation, as_float, as_integer, classify_orientations, dot3, fit_plane
from .kdtree import KdTree, row_blocks
# estimate_normals stays importable as truth.estimate_normals, a name perfbench/spans.py wraps.
from .normals import estimate_normals, normals_from_neighbors  # noqa: F401

__all__ = ["GtParams", "SegmentLabeling", "generate_ground_truth"]


@dataclass
class SegmentLabeling:
    """Per-point segment ids and orientation classes.

    ``plane_ids[i] == -1`` marks an unsegmented point, which is always
    Orientation.OTHER. Points sharing an id share an orientation.
    """

    plane_ids: np.ndarray
    orientations: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.plane_ids).reshape(-1)
        if ids.dtype != np.int32 and ids.size and (ids.min() < -(2**31) or ids.max() >= 2**31):
            raise ValueError("plane ids must fit in int32")
        self.plane_ids = ids.astype(np.int32)
        self.orientations = np.asarray(self.orientations, dtype=np.int8).reshape(-1)
        if self.plane_ids.shape != self.orientations.shape:
            raise ValueError("plane_ids and orientations must have the same length")

    def __len__(self) -> int:
        return int(self.plane_ids.size)

    def check_orientations(self) -> None:
        """Raise ValueError naming the first class code outside Orientation."""
        bad = self.orientations[self.orientations.view(np.uint8) >= len(Orientation)]
        if bad.size:
            raise ValueError(f"{int(bad[0])} is not a valid Orientation")

    def id_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """A table of plane ids, ascending, and each point's row in it: point i has id ``ids[rows[i]]``.

        Ids in [-1, N), as in every labeling planeops makes, take row id + 1
        directly (rows of absent ids go unused), so nothing sorts; any other
        id set is compacted once with np.unique.
        """
        ids = self.plane_ids
        if ids.min(initial=-1) >= -1 and ids.max(initial=-1) < ids.size:
            return np.arange(-1, ids.max(initial=-1) + 1, dtype=ids.dtype), ids + 1
        return np.unique(ids, return_inverse=True)

    def validate(self) -> None:
        """Check the labeling invariants; raises ValueError on violation."""
        self.check_orientations()
        ids, rows = self.id_rows()
        n_codes = len(Orientation)
        keys = np.multiply(rows, n_codes, dtype=np.intp)
        keys += self.orientations
        classes = np.zeros((ids.size, n_codes), dtype=bool)  # which classes each id's points hold
        classes.reshape(-1)[keys] = True
        unsegmented = classes[ids < 0]
        unsegmented[:, int(Orientation.OTHER)] = False
        if unsegmented.any():
            raise ValueError("unsegmented points must be labeled OTHER")
        mixed = ids[np.count_nonzero(classes, axis=1) > 1]
        if mixed.size:
            raise ValueError(f"segment {mixed[0]} mixes orientation labels")

    def segment_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`id_rows`, and which rows of its table are segments: ids of at least 0 that some point has."""
        ids, rows = self.id_rows()
        segment = np.zeros(ids.size, dtype=bool)
        segment[rows] = True
        segment &= ids >= 0
        return ids, rows, segment

    def segment_ids(self) -> np.ndarray:
        """The ids of the segments present, ascending."""
        ids, _, segment = self.segment_rows()
        return ids[segment]

    @classmethod
    def from_planes(cls, plane_ids, plane_classes) -> "SegmentLabeling":
        """Label each point with its plane's class, gathered by plane id (-1 reads OTHER).

        ``plane_classes`` holds one code per plane, from
        :func:`planeops.geometry.classify_orientations`: each plane is classified once.
        """
        table = np.append(np.asarray(plane_classes, dtype=np.int8), np.int8(Orientation.OTHER))
        return cls(plane_ids=plane_ids, orientations=table[plane_ids])

    @classmethod
    def all_other(cls, n: int) -> "SegmentLabeling":
        return cls.from_planes(np.full(n, -1, dtype=np.int32), [])


@dataclass
class GtParams:
    """Edge and plane thresholds for ground-truth extraction."""

    dist_threshold: float = 0.05
    normal_angle_degrees: float = 7.0
    min_plane_size: int = 50
    k: int = 10

    def __post_init__(self):
        self.min_plane_size = as_integer(self.min_plane_size, "min_plane_size", minimum=3)
        self.k = as_integer(self.k, "k", minimum=3)
        self.dist_threshold = as_float(self.dist_threshold, "dist_threshold", 0.0)
        self.normal_angle_degrees = as_float(self.normal_angle_degrees, "normal_angle_degrees", 0.0, 90.0)


def generate_ground_truth(points: np.ndarray, params: GtParams | None = None) -> SegmentLabeling:
    """Label a cloud by the smoothness constraint, tested on every k-NN edge at once.

    An edge (i, j) passes when both normals are valid, they agree within
    ``normal_angle_degrees`` (either sign), and each point lies within
    ``dist_threshold`` of the other's tangent plane (Rabbani, van den Heuvel
    & Vosselman, "Segmentation of Point Clouds Using Smoothness Constraint",
    2006). In each connected component of the passing edges with at least
    ``min_plane_size`` points, a plane starts as the tangent plane of the
    member with the lowest curvature and is refitted to the members it holds
    (within ``dist_threshold`` of it, normal within ``normal_angle_degrees``
    of its normal) for as long as the refit holds more. Those members become
    a segment, classified by their fit (default up axis and tolerance),
    unless fewer than ``min_plane_size`` remain or a fit is degenerate. The
    members left out go through further rounds, over their own edges, until
    a round makes no segment, so a curved surface ends up as strips along
    its flattest direction. Ids follow creation order, and within a round
    each component's lowest point index. A cloud without points raises
    EmptyCloud; one smaller than ``min_plane_size`` is all other.

    One k-NN query serves every point. Normals and the edge test then walk
    the rows in :func:`~planeops.kdtree.row_blocks`, so no per-entry
    temporary but the query's (N, k) results spans the cloud. Each row gets
    the same bits in any block, and the edges come out in row order, so the
    labels do not depend on the block sizes.
    """
    from scipy.sparse import csgraph, csr_matrix

    if params is None:
        params = GtParams()
    kd = KdTree(points)  # raises EmptyCloud, as run_detect's index does
    n = points.shape[0]
    if n < params.min_plane_size:
        return SegmentLabeling.all_other(n)

    all_idx = np.arange(n, dtype=np.int64)
    nbr_dist, adjacency = kd.knn(all_idx, params.k)
    del kd  # its ordered copy and tree, before the normals' blocks
    normals, curvature, _ = normals_from_neighbors(points, all_idx, nbr_dist, adjacency)
    del nbr_dist

    # Each dot product is dot3's, as merge.coplanar takes it, so an edge gets
    # the same bits in either direction.
    dist, cos_tol = params.dist_threshold, np.cos(np.radians(params.normal_angle_degrees))
    cols = np.concatenate([points.T, normals.T])  # x, y, z, then the normal's: gathers from a column run faster
    src, dst = [], []  # the passing edges, row by row; int32 holds any point index
    for rows in row_blocks(n, adjacency.shape[1]):
        nbr = adjacency[rows]
        gathered = np.take(cols, nbr, axis=1)  # (6, rows, k)
        gathered[:3] -= cols[:3, rows, None]  # each neighbour's offset from its row's point, in place
        sep, n_i, n_j = gathered[:3], cols[3:, rows, None], gathered[3:]
        # An invalid normal is NaN, so each of its edges fails the cosine test.
        row, col = np.nonzero((np.abs(dot3(n_i, n_j)) >= cos_tol)
                              & (np.abs(dot3(sep, n_i)) < dist)  # j against the tangent plane of i
                              & (np.abs(dot3(sep, n_j)) < dist))  # i against the tangent plane of j
        src.append((row + rows.start).astype(np.int32))
        dst.append(nbr[row, col].astype(np.int32))
    del adjacency
    src, dst = np.concatenate(src), np.concatenate(dst)

    def agreeing(pts, nrm, centroid, normal):
        """Which members lie within ``dist`` of a plane, with normals within the angle of its normal."""
        normal = normal[:, None]
        return (np.abs(dot3((pts - centroid).T, normal)) < dist) & (np.abs(dot3(nrm.T, normal)) >= cos_tol)

    plane_ids = np.full(n, -1, dtype=np.int32)
    plane_normals = []  # of the segments made, by id
    while src.size:  # a round that makes no segment leaves no member out, and so no edge
        # src ascends and no (i, j) pair repeats, so the edges are a CSR graph as
        # they stand; components are numbered from their lowest point, whatever
        # the order within a row. float64 data is what connected_components reads.
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        graph = csr_matrix((np.ones(src.size), dst, indptr), shape=(n, n))
        labels = csgraph.connected_components(graph, directed=True, connection="weak")[1]
        big = np.flatnonzero(np.bincount(labels)[labels] >= params.min_plane_size)
        big = big[np.argsort(labels[big], kind="stable")]  # by component, each ascending
        groups = np.split(big, np.flatnonzero(np.diff(labels[big])) + 1) if big.size else []
        left = np.zeros(n, dtype=bool)  # members a segment's plane left out
        for member in sorted(groups, key=lambda g: g[0]):
            pts, nrm = np.take(points, member, axis=0), np.take(normals, member, axis=0)
            seed = np.argmin(curvature[member])  # the flattest member, then the lowest index
            near = agreeing(pts, nrm, pts[seed], nrm[seed])
            try:
                while True:  # refit while the plane gains members
                    plane = fit_plane(pts[near])
                    grown = agreeing(pts, nrm, plane.centroid, plane.normal)
                    if np.count_nonzero(grown) <= np.count_nonzero(near):
                        break
                    near = grown
            except DegenerateInput:
                continue
            if np.count_nonzero(near) < params.min_plane_size:
                continue
            plane_ids[member[near]] = len(plane_normals)
            plane_normals.append(plane.normal)
            left[member[~near]] = True
        keep = left[src] & left[dst]
        src, dst = src[keep], dst[keep]

    return SegmentLabeling.from_planes(plane_ids, classify_orientations(plane_normals))
