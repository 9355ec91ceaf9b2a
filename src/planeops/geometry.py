"""Core geometric types and primitives shared by every detector.

Points are plain ``(N, 3)`` float64 arrays in meters. A plane is stored as a
centroid plus a unit normal; the infinite plane through the centroid, not a
bounded polygon.
"""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = [
    "DegenerateInput",
    "Orientation",
    "PlaneModel",
    "as_points",
    "as_unit_vector",
    "classify_orientation",
    "fit_plane",
    "plane_distances",
]

# Two smallest eigenvalues closer than this (relative to the largest) mean the
# point set is a line, not a plane.
EIGEN_TIE_RTOL = 1e-12


class DegenerateInput(ValueError):
    """Raised when a point set does not determine a unique plane."""


class Orientation(IntEnum):
    """Coarse plane orientation relative to the up axis."""

    HORIZONTAL = 0
    VERTICAL = 1
    OTHER = 2

    @property
    def char(self) -> str:
        return "HVO"[self]

    @classmethod
    def from_char(cls, c: str) -> "Orientation":
        if c not in ("H", "V", "O"):
            raise ValueError(f"unknown orientation character {c!r}")
        return cls("HVO".index(c))


def as_points(points) -> np.ndarray:
    """Coerce input to a float64 (N, 3) array of finite coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def as_unit_vector(v) -> np.ndarray:
    """Coerce to a float64 3-vector and check it has unit length."""
    vec = np.asarray(v, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ValueError(f"not a unit vector: {vec}")
    return vec


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip ``v`` so its largest-magnitude component is positive.

    ``v`` is one vector or a stack (..., 3) of them, each flipped on its own.
    Plane geometry is invariant to the normal's sign; a fixed convention makes
    outputs deterministic and diffable.
    """
    if v.ndim == 1:  # one vector, as every plane fit has: kept free of gathers
        dominant = int(np.argmax(np.abs(v)))
        return -v if v[dominant] < 0 else v
    dominant = np.argmax(np.abs(v), axis=-1)
    flip = np.take_along_axis(v, dominant[..., None], axis=-1) < 0
    return np.where(flip, -v, v)


@dataclass
class PlaneModel:
    """A detected plane: centroid, unit normal, and supporting point indices.

    ``inliers`` holds indices into the source cloud, sorted ascending. When
    nonempty, ``centroid`` is the mean of the inlier points.
    """

    centroid: np.ndarray
    normal: np.ndarray
    inliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.centroid = np.asarray(self.centroid, dtype=np.float64).reshape(3)
        self.normal = as_unit_vector(self.normal)
        self.inliers = np.asarray(self.inliers, dtype=np.int64).reshape(-1)

    @property
    def inlier_count(self) -> int:
        return int(self.inliers.size)


def plane_distances(points: np.ndarray, centroid: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Unsigned distances from many points to a plane given as centroid + normal."""
    return np.abs((points - centroid) @ normal)


def fit_plane(points, inliers=None) -> PlaneModel:
    """Least-squares plane through a point set.

    The centroid is the mean of the points; the normal is the eigenvector of
    the centered scatter matrix with the smallest eigenvalue, sign-canonicalized.

    Args:
        points: (N, 3) array-like, N >= 3, not all collinear.
        inliers: optional index array recorded on the returned model.

    Raises:
        DegenerateInput: fewer than 3 points, or the two smallest eigenvalues
            of the scatter tie (the points lie on a line or a single spot).
    """
    pts = as_points(points)
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scatter = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(scatter)
    if eigvals[1] - eigvals[0] <= EIGEN_TIE_RTOL * max(eigvals[2], 0.0):
        raise DegenerateInput("points are collinear (two smallest eigenvalues tie)")
    normal = canonical_sign(eigvecs[:, 0])
    if inliers is None:
        inliers = np.empty(0, dtype=np.int64)
    return PlaneModel(centroid=centroid, normal=normal, inliers=inliers)


def classify_orientation(normal, up=(0.0, 0.0, 1.0), tol_degrees: float = 7.0) -> Orientation:
    """Classify a plane normal as horizontal, vertical, or other.

    A plane is horizontal when its normal is within ``tol_degrees`` of the up
    axis (either sign), vertical when the normal is within ``tol_degrees`` of
    perpendicular to up.
    """
    if not 0.0 < tol_degrees < 45.0:
        raise ValueError(f"tol_degrees must be in (0, 45), got {tol_degrees}")
    n = as_unit_vector(normal)
    u = as_unit_vector(up)
    angle = np.degrees(np.arccos(np.clip(abs(np.dot(n, u)), 0.0, 1.0)))
    if angle <= tol_degrees:
        return Orientation.HORIZONTAL
    if 90.0 - angle <= tol_degrees:
        return Orientation.VERTICAL
    return Orientation.OTHER
