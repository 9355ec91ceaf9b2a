"""Core geometric types and primitives shared by every detector.

Points are plain ``(N, 3)`` float64 arrays in meters. A plane is stored as a
centroid plus a unit normal; the infinite plane through the centroid, not a
bounded polygon.
"""

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateInput",
    "Moments",
    "Orientation",
    "PlaneModel",
    "as_float",
    "as_integer",
    "as_points",
    "as_unit_vector",
    "classify_orientation",
    "classify_orientations",
    "combine_moments",
    "fit_plane",
    "plane_distances",
    "plane_normal",
    "point_moments",
    "scatter_normals",
]

# Two smallest eigenvalues closer than this (relative to the largest) mean the
# point set is a line, not a plane.
EIGEN_TIE_RTOL = 1e-12
EPS_SQUARED = np.finfo(np.float64).eps ** 2
# Two roundings of a 3-term dot product differ by far less than this times the
# sum of its terms' magnitudes; a test so close to its threshold is re-decided.
DOT_SLACK = 1e-14
# Defaults of the one orientation rule, classify_orientations.
UP = (0.0, 0.0, 1.0)
ORIENTATION_TOL_DEGREES = 7.0


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


def as_integer(value, what: str, minimum: int | None = None) -> int:
    """An int, or a float of integral value, as an int; a bool, a string, a
    fraction or a value below ``minimum`` raises ValueError naming ``what``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        number = int(value)
    else:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {number}")
    return number


def as_float(value, what: str) -> float:
    """An int or a float as a float; a bool or a string raises ValueError naming ``what``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


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
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-9:  # NaN fails too
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

    ``inliers`` holds indices into the source cloud, sorted ascending.
    ``centroid`` and ``normal`` are the least-squares plane of the point set
    the plane was fitted on, which is not always its final ``inliers``: a
    plane keeps its fit when deduplication takes inliers away from it, and a
    plane whose inliers determine no plane (fewer than 3 points, or all on a
    line) keeps the fit of the hypothesis it was verified from, or of the
    larger part it was merged from.
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


class Moments(NamedTuple):
    """Point count, mean and centred 3x3 scatter of a point set.

    :func:`scatter_normals` also takes a stack: counts (k,), means (k, 3)
    and scatters (k, 3, 3).
    """

    count: int
    mean: np.ndarray
    scatter: np.ndarray


def point_moments(pts: np.ndarray) -> Moments:
    """Moments of an (N, 3) point array, N >= 1."""
    mean = pts.sum(axis=0) / pts.shape[0]  # the bits of pts.mean(axis=0), without its overhead
    centered = pts - mean
    return Moments(pts.shape[0], mean, centered.T @ centered)


def combine_moments(a: Moments, b: Moments) -> Moments:
    """Moments of the union of two disjoint point sets, from theirs alone.

    The pairwise update of Chan, Golub & LeVeque (1983): the mean moves
    toward ``b`` by its share of the points, and the scatter gains the
    between-set term. It needs no raw sums of coordinates and their
    products, which lose their digits far from the origin. The two means
    still carry the rounding of the coordinates they average, so callers
    take the moments about a point near the data.
    """
    count = a.count + b.count
    d = b.mean - a.mean
    mean = a.mean + d * (b.count / count)
    scatter = a.scatter + b.scatter + (a.count * b.count / count) * (d[:, None] * d)
    return Moments(count, mean, scatter)


def scatter_normals(moments: Moments):
    """Least-squares plane normals of one point set's moments, or of a stack.

    ``moments`` holds one set (count, (3,) mean, (3, 3) scatter) or a stack of
    them (counts (k,), means (k, 3), scatters (k, 3, 3)). Returns ``(normals,
    tie)``: each normal is the sign-canonicalized eigenvector of the smallest
    scatter eigenvalue, and ``tie`` is True where the points determine no
    plane, so the normal is meaningless: the two smallest eigenvalues tie
    (the points lie on a line), or the largest one is no bigger than
    ``count**3 * eps**2 * |mean|**2``, the most that rounding spreads out
    coincident points (the points are one spot).
    """
    eigvals, eigvecs = np.linalg.eigh(moments.scatter)
    if eigvals.ndim == 1:  # one set, as every plane fit and merge has: Python floats cost less here
        low, mid, high = eigvals.tolist()
        x, y, z = moments.mean.tolist()
        tie = (mid - low <= EIGEN_TIE_RTOL * max(high, 0.0)
               or high <= moments.count ** 3 * EPS_SQUARED * (x * x + y * y + z * z))
    else:
        low, mid, high = eigvals[:, 0], eigvals[:, 1], eigvals[:, 2]
        tie = ((mid - low <= EIGEN_TIE_RTOL * np.maximum(high, 0.0))
               | (high <= moments.count.astype(np.float64) ** 3 * EPS_SQUARED * (moments.mean ** 2).sum(axis=1)))
    return canonical_sign(eigvecs[..., :, 0]), tie


def plane_normal(moments: Moments) -> np.ndarray:
    """Normal of the least-squares plane of a point set, given its moments.

    Raises:
        DegenerateInput: fewer than 3 points, or the points lie on a line or
            a single spot (see :func:`scatter_normals`).
    """
    if moments.count < 3:
        raise DegenerateInput(f"need at least 3 points, got {moments.count}")
    normal, tie = scatter_normals(moments)
    if tie:
        raise DegenerateInput("points lie on a line or a single spot")
    return normal


def fit_plane(points, inliers=None) -> PlaneModel:
    """Least-squares plane through a point set.

    The centroid is the mean of the points; the normal is the eigenvector of
    the centered scatter matrix with the smallest eigenvalue, sign-canonicalized.

    Args:
        points: (N, 3) array-like, N >= 3, not all collinear.
        inliers: optional index array recorded on the returned model.

    Raises:
        DegenerateInput: fewer than 3 points, or the points lie on a line or
            a single spot (see :func:`scatter_normals`).
    """
    pts = as_points(points)
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")
    moments = point_moments(pts)
    normal = plane_normal(moments)
    if inliers is None:
        inliers = np.empty(0, dtype=np.int64)
    return PlaneModel(centroid=moments.mean, normal=normal, inliers=inliers)


def classify_orientations(normals, up=UP, tol_degrees: float = ORIENTATION_TOL_DEGREES) -> np.ndarray:
    """Orientation codes (int8 :class:`Orientation` values) of a stack of normals.

    A normal (either sign) within ``tol_degrees`` of the unit ``up`` axis is
    horizontal, one within ``tol_degrees`` of perpendicular to it is
    vertical, and any other is other. ``normals`` is one vector or (m, 3).
    Detection, labels, ground truth and synthetic scenes all classify here.

    Raises:
        ValueError: ``up`` is not a unit vector or ``tol_degrees`` is not in (0, 45).
    """
    if not 0.0 < tol_degrees < 45.0:
        raise ValueError(f"tol_degrees must be in (0, 45), got {tol_degrees}")
    u = as_unit_vector(up)
    cosines = np.asarray(normals, dtype=np.float64).reshape(-1, 3) @ u
    angles = np.degrees(np.arccos(np.clip(np.abs(cosines), 0.0, 1.0)))
    codes = np.full(angles.shape, int(Orientation.OTHER), dtype=np.int8)
    codes[angles <= tol_degrees] = int(Orientation.HORIZONTAL)
    codes[90.0 - angles <= tol_degrees] = int(Orientation.VERTICAL)
    return codes


def classify_orientation(normal, up=UP, tol_degrees: float = ORIENTATION_TOL_DEGREES) -> Orientation:
    """The class of one unit normal; :func:`classify_orientations` of one vector."""
    return Orientation(int(classify_orientations(as_unit_vector(normal), up, tol_degrees)[0]))
