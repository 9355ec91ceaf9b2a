"""Reference plane labelings via region growing, for scoring detectors.

Normals are estimated for every point, then regions grow outwards from
low-curvature seeds through the k-NN graph, admitting neighbors whose normal
agrees with the region plane and whose distance to it is small. Regions that
stay under the minimum size are folded into the catch-all "other" label.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, Orientation, as_unit_vector, classify_orientation, fit_plane
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
        self.plane_ids = np.asarray(self.plane_ids, dtype=np.int32).reshape(-1)
        self.orientations = np.asarray(self.orientations, dtype=np.int8).reshape(-1)
        if self.plane_ids.shape != self.orientations.shape:
            raise ValueError("plane_ids and orientations must have the same length")

    def __len__(self) -> int:
        return int(self.plane_ids.size)

    def validate(self) -> None:
        """Check the labeling invariants; raises ValueError on violation."""
        if not np.all(self.orientations[self.plane_ids < 0] == int(Orientation.OTHER)):
            raise ValueError("unsegmented points must be labeled OTHER")
        for pid in np.unique(self.plane_ids[self.plane_ids >= 0]):
            if np.unique(self.orientations[self.plane_ids == pid]).size != 1:
                raise ValueError(f"segment {pid} mixes orientation labels")

    def segment_ids(self) -> np.ndarray:
        return np.unique(self.plane_ids[self.plane_ids >= 0])

    @classmethod
    def all_other(cls, n: int) -> "SegmentLabeling":
        return cls(
            plane_ids=np.full(n, -1, dtype=np.int32),
            orientations=np.full(n, int(Orientation.OTHER), dtype=np.int8),
        )


@dataclass
class GtParams:
    """Region-growing thresholds for ground-truth extraction."""

    dist_threshold: float = 0.05
    normal_angle_degrees: float = 7.0
    min_plane_size: int = 50
    k: int = 10
    sigma: float | None = None
    up: tuple = (0.0, 0.0, 1.0)
    orientation_tol_degrees: float = 7.0

    def __post_init__(self):
        if self.dist_threshold <= 0.0 or self.normal_angle_degrees <= 0.0:
            raise ValueError("thresholds must be positive")
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
    (and points with degenerate normals) end up unsegmented.
    """
    if params is None:
        params = GtParams()
    n = points.shape[0]
    if n < params.min_plane_size:
        return SegmentLabeling.all_other(n)

    kd = KdTree(points)
    all_idx = np.arange(n, dtype=np.int64)
    nbr_dist, adjacency = kd.knn(points, params.k, exclude_index=all_idx)
    normals, curvature, valid = normals_from_neighbors(points, all_idx, nbr_dist, adjacency, params.sigma)

    cos_tol = np.cos(np.radians(params.normal_angle_degrees))
    visited = ~valid  # degenerate points never seed or join
    plane_ids = np.full(n, -1, dtype=np.int32)
    orientations = np.full(n, int(Orientation.OTHER), dtype=np.int8)
    up = as_unit_vector(params.up)

    next_id = 0
    for seed in np.argsort(curvature, kind="stable").tolist():
        if visited[seed]:
            continue
        visited[seed] = True
        centroid = points[seed].copy()
        normal = normals[seed].copy()
        region = [seed]
        pending = deque([seed])
        since_refit = 0
        while pending:
            i = pending.popleft()
            for j in adjacency[i].tolist():
                if visited[j]:
                    continue
                if abs(float(np.dot(normals[j], normal))) < cos_tol:
                    continue
                if abs(float(np.dot(points[j] - centroid, normal))) >= params.dist_threshold:
                    continue
                visited[j] = True
                region.append(j)
                pending.append(j)
                since_refit += 1
                if since_refit >= REFIT_INTERVAL:
                    since_refit = 0
                    try:
                        refit = fit_plane(points[region])
                        centroid, normal = refit.centroid, refit.normal
                    except DegenerateInput:
                        pass
        if len(region) >= params.min_plane_size:
            member = np.asarray(region, dtype=np.int64)
            try:
                final = fit_plane(points[member])
            except DegenerateInput:
                continue
            orient = classify_orientation(final.normal, up, params.orientation_tol_degrees)
            plane_ids[member] = next_id
            orientations[member] = int(orient)
            next_id += 1

    return SegmentLabeling(plane_ids=plane_ids, orientations=orientations)
