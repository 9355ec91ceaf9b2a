"""Reference plane labelings via region growing, for scoring detectors.

Normals are estimated for every point, then regions grow outwards from
low-curvature seeds through the k-NN graph, admitting neighbors whose normal
agrees with the region plane and whose distance to it is small. Regions that
stay under the minimum size are folded into the catch-all "other" label.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import DOT_SLACK, DegenerateInput, Orientation, as_integer, classify_orientations, fit_plane
from .kdtree import KdTree
# estimate_normals is unused here but stays importable as truth.estimate_normals,
# a name perfbench/spans.py wraps.
from .normals import estimate_normals, normals_from_neighbors  # noqa: F401

__all__ = ["GtParams", "SegmentLabeling", "generate_ground_truth"]

REFIT_INTERVAL = 64  # points accepted between region-plane refits


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

    def validate(self) -> None:
        """Check the labeling invariants; raises ValueError on violation."""
        segmented = self.plane_ids >= 0
        if not np.all(self.orientations[~segmented] == int(Orientation.OTHER)):
            raise ValueError("unsegmented points must be labeled OTHER")
        # One key per distinct (id, orientation) pair, sorted by id: a segment
        # that mixes labels shows up as the same id on two neighbouring keys.
        pair_ids = np.unique(self.plane_ids[segmented].astype(np.int64) * 256
                             + self.orientations[segmented].view(np.uint8)) >> 8
        mixed = pair_ids[1:][pair_ids[1:] == pair_ids[:-1]]
        if mixed.size:
            raise ValueError(f"segment {mixed[0]} mixes orientation labels")

    def segment_ids(self) -> np.ndarray:
        return np.unique(self.plane_ids[self.plane_ids >= 0])

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
    """Region-growing thresholds for ground-truth extraction."""

    dist_threshold: float = 0.05
    normal_angle_degrees: float = 7.0
    min_plane_size: int = 50
    k: int = 10

    def __post_init__(self):
        self.min_plane_size = as_integer(self.min_plane_size, "min_plane_size")
        self.k = as_integer(self.k, "k")
        if not (0.0 < self.dist_threshold < np.inf and 0.0 < self.normal_angle_degrees < 90.0):  # NaN fails too
            raise ValueError("dist_threshold must be finite and positive, normal_angle_degrees in (0, 90)")
        if self.min_plane_size < 3:
            raise ValueError("min_plane_size must be >= 3")
        if self.k < 3:
            raise ValueError("k must be >= 3")


def generate_ground_truth(points: np.ndarray, params: GtParams | None = None) -> SegmentLabeling:
    """Label a cloud by iterative region growing.

    Seeds are processed lowest-curvature first. A region admits an unvisited
    k-NN neighbor of any member when the neighbor's normal is within
    ``normal_angle_degrees`` of the region plane's normal and its distance to
    the plane is under ``dist_threshold``; the plane refits every
    `REFIT_INTERVAL` accepted points. Regions smaller than ``min_plane_size``
    (and points with degenerate normals) end up unsegmented. A region's
    class is that of its final plane fit, by the default up axis and
    tolerance of :func:`planeops.geometry.classify_orientations`.
    """
    if params is None:
        params = GtParams()
    n = points.shape[0]
    if n < params.min_plane_size:
        return SegmentLabeling.all_other(n)

    kd = KdTree(points)
    all_idx = np.arange(n, dtype=np.int64)
    nbr_dist, adjacency = kd.knn(points, params.k, exclude_index=all_idx)
    normals, curvature, valid = normals_from_neighbors(points, all_idx, nbr_dist, adjacency)

    # The loop runs on Python floats. Their 3-term dot products may differ
    # from np.dot in the last bit, by far less than DOT_SLACK times the sum of
    # the terms' magnitudes: at most 1 for two unit normals, and at most the
    # cloud's summed extents for an offset from the region centroid. A test
    # that lands within that margin of its threshold is re-decided with np.dot.
    cos_tol = float(np.cos(np.radians(params.normal_angle_degrees)))
    cos_lo, cos_hi = cos_tol - DOT_SLACK, cos_tol + DOT_SLACK
    dist_tol = float(params.dist_threshold)
    dist_slack = DOT_SLACK * float(np.ptp(points, axis=0).sum())
    dist_lo, dist_hi = dist_tol - dist_slack, dist_tol + dist_slack
    pts, nrm = points.tolist(), normals.tolist()
    visited = bytearray(np.logical_not(valid).tobytes())  # degenerate points never seed or join
    plane_ids = np.full(n, -1, dtype=np.int32)
    plane_normals = []  # of the regions kept, by id
    for seed in np.argsort(curvature, kind="stable").tolist():
        if visited[seed]:
            continue
        visited[seed] = 1
        centroid, normal = points[seed], normals[seed]
        cx, cy, cz = pts[seed]
        nx, ny, nz = nrm[seed]
        region = [seed]  # also the FIFO: the loop below visits members as they are appended
        since_refit = 0
        for i in region:
            # One row at a time: a list of every row would hold about 5 MB per 13k points.
            for j in adjacency[i].tolist():
                if visited[j]:
                    continue
                ux, uy, uz = nrm[j]
                c = abs(ux * nx + uy * ny + uz * nz)
                if c < cos_hi and (c < cos_lo or abs(float(np.dot(normals[j], normal))) < cos_tol):
                    continue
                px, py, pz = pts[j]
                d = abs((px - cx) * nx + (py - cy) * ny + (pz - cz) * nz)
                if d >= dist_hi or (d > dist_lo and abs(float(np.dot(points[j] - centroid, normal))) >= dist_tol):
                    continue
                visited[j] = 1
                region.append(j)
                since_refit += 1
                if since_refit >= REFIT_INTERVAL:
                    since_refit = 0
                    try:
                        refit = fit_plane(np.take(points, region, axis=0))
                    except DegenerateInput:
                        continue
                    centroid, normal = refit.centroid, refit.normal
                    cx, cy, cz = centroid.tolist()
                    nx, ny, nz = normal.tolist()
        if len(region) >= params.min_plane_size:
            member = np.asarray(region, dtype=np.int64)
            try:
                final = fit_plane(np.take(points, member, axis=0))
            except DegenerateInput:
                continue
            plane_ids[member] = len(plane_normals)
            plane_normals.append(final.normal)

    return SegmentLabeling.from_planes(plane_ids, classify_orientations(plane_normals))
