"""Core geometric types and primitives shared by every detector.

Points are plain ``(N, 3)`` float64 arrays in meters. A plane is stored as a
centroid plus a unit normal; the infinite plane through the centroid, not a
bounded polygon.
"""

import math
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
    "classify_orientations",
    "combine_moments",
    "coplanar_mask",
    "dot3",
    "fit_plane",
    "plane_distances",
    "plane_normal",
    "point_moments",
    "scatter_normals",
    "symmetric_eigen3",
]

# Two smallest eigenvalues closer than this (relative to the largest) mean the
# point set is a line, not a plane.
EIGEN_TIE_RTOL = 1e-12
# symmetric_eigen3 hands a matrix to LAPACK when its two smallest eigenvalues
# are closer than this (relative to the largest magnitude): there the closed
# form's arccos turns a rounding error of eps into one of about sqrt(eps).
EIGEN_FALLBACK_GAP = 1e-6
EPS_SQUARED = np.finfo(np.float64).eps ** 2
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


def as_float(value, what: str, low: float | None = None, high: float = np.inf, closed_high: bool = False) -> float:
    """An int or a float as a float; a bool or a string raises ValueError naming
    ``what``, and so does, with ``low`` given, a value outside the open interval
    ``(low, high)``, or ``(low, high]`` with ``closed_high``. NaN is never inside."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if low is not None and not (low < number < high or closed_high and number == high):
        raise ValueError(f"{what} must be in ({low:g}, {high:g}{']' if closed_high else ')'}, got {number!r}")
    return number


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
    x, y, z = vec.tolist()  # Python floats: cheaper than np.linalg.norm on three numbers
    if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"not a unit vector: {vec}")
    return vec


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip ``v`` so its largest-magnitude component is positive.

    ``v`` is one vector or a stack (..., 3) of them, each flipped on its own.
    Plane geometry is invariant to the normal's sign; a fixed convention makes
    outputs deterministic and diffable.
    """
    if v.ndim == 1:  # one vector, as every plane fit has: Python floats; max keeps the first tie, as argmax does
        return -v if max(v.tolist(), key=abs) < 0 else v
    dominant = np.argmax(np.abs(v), axis=-1)
    flip = np.take_along_axis(v, dominant[..., None], axis=-1) < 0
    return np.where(flip, -v, v)


@dataclass
class PlaneModel:
    """A detected plane: centroid, unit normal, and supporting point indices.

    ``inliers`` holds indices into the source cloud, sorted ascending.
    ``centroid`` and ``normal`` are the least-squares plane of the point set
    the plane was fitted on, which is not always its final ``inliers``: a
    plane keeps its fit when deduplication gives some of its inliers to an
    earlier plane that claimed them too, and a plane whose inliers determine
    no plane (fewer than 3 points, or all on a line) keeps the fit of the
    hypothesis it was verified from, or of the larger part it was merged from.
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


def dot3(u, v):
    """Dot products of broadcast arrays whose first axis holds x, y and z, summed in that order, so a
    pair gets the same bits in any batch and either argument order. One broadcast product takes
    fewer numpy calls than three, which counts on merging's short rows."""
    prod = u * v
    return prod[0] + prod[1] + prod[2]


def coplanar_mask(normals_a, points_a, normals_b, points_b, cos_tol: float, offset: float):
    """Which (normal, point) pairs of broadcast (3, ...) arrays are coplanar: normals within the angle of cosine
    ``cos_tol`` (either sign), each point strictly within ``offset`` of the other's plane, dot products dot3's."""
    sep = points_b - points_a
    return ((np.abs(dot3(normals_a, normals_b)) >= cos_tol)
            & (np.abs(dot3(sep, normals_a)) < offset)  # b against a's plane
            & (np.abs(dot3(sep, normals_b)) < offset))  # a against b's plane


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


def _smallest_vector(b00, b11, b22, b10, b20, b21, low):
    """Unit null vector of ``b - low*I``: its adjugate's largest column.

    The adjugate's columns are the cross products of the matrix's row pairs.
    """
    m00, m11, m22 = b00 - low, b11 - low, b22 - low
    a00, a11, a22 = m11 * m22 - b21 * b21, m00 * m22 - b20 * b20, m00 * m11 - b10 * b10
    a10, a20, a21 = b20 * b21 - b10 * m22, b10 * b21 - b20 * m11, b10 * b20 - m00 * b21
    s0 = a00 * a00 + a10 * a10 + a20 * a20
    s1 = a10 * a10 + a11 * a11 + a21 * a21
    s2 = a20 * a20 + a21 * a21 + a22 * a22
    first = (s0 >= s1) & (s0 >= s2)
    second = ~first & (s1 >= s2)
    size = np.sqrt(np.where(first, s0, np.where(second, s1, s2)))
    return (np.where(first, a00, np.where(second, a10, a20)) / size,
            np.where(first, a10, np.where(second, a11, a21)) / size,
            np.where(first, a20, np.where(second, a21, a22)) / size)


def symmetric_eigen3(a: np.ndarray):
    """Ascending eigenvalues (m, 3) and the smallest one's unit eigenvector
    (m, 3) of a stack of symmetric 3x3 matrices, read from the lower triangle
    as ``np.linalg.eigh`` reads them. The vector's sign is arbitrary.

    The hybrid scheme of Kopp ("Efficient numerical diagonalization of
    hermitian 3x3 matrices", Int. J. Mod. Phys. C, 2008). Each matrix is
    scaled by the power of two at or above its largest |entry|, which is
    exact, so the results do not depend on scale. The smallest eigenvalue
    starts from the trigonometric closed form (Smith, CACM 1961). The vector
    is the largest cross product of two rows of ``A - low*I``. Three rounds
    refine both: each takes the vector for the current ``low`` and its
    Rayleigh quotient as the next ``low``, which squares the vector's error,
    down to rounding. The other two eigenvalues are those of ``A`` on the
    plane normal to the vector: their mean from the trace and their half gap
    from the Frobenius norm of what is left.

    A matrix whose two smallest eigenvalues lie within ``EIGEN_FALLBACK_GAP``
    of its largest |eigenvalue| goes to ``np.linalg.eigh``, and so do zero
    and non-finite matrices (their closed form yields NaN): those rows are
    eigh's output, bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    lower = a[:, [0, 1, 2, 1, 2, 2], [0, 1, 2, 0, 0, 1]].T  # the six entries, each (m,)
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, np.frexp(np.abs(lower).max(axis=0, initial=0.0))[1])
        b00, b11, b22, b10, b20, b21 = lower / scale
        q = (b00 + b11 + b22) / 3.0
        d0, d1, d2 = b00 - q, b11 - q, b22 - q
        p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (b10 * b10 + b20 * b20 + b21 * b21)) / 6.0)
        det = d0 * (d1 * d2 - b21 * b21) - b10 * (b10 * d2 - b21 * b20) + b20 * (b10 * b21 - d1 * b20)
        phi = np.arccos(np.clip(det / (2.0 * p ** 3), -1.0, 1.0)) / 3.0
        low = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        for _ in range(3):
            x, y, z = vector = _smallest_vector(b00, b11, b22, b10, b20, b21, low)
            low = b00 * x * x + b11 * y * y + b22 * z * z + 2.0 * (b10 * x * y + b20 * x * z + b21 * y * z)
        mean = (b00 + b11 + b22 - low) / 2.0
        c = low - mean  # A - mean*I - c*v*v^T is A on the plane normal to v, less its mean
        rest = ((b00 - mean - c * x * x) ** 2 + (b11 - mean - c * y * y) ** 2 + (b22 - mean - c * z * z) ** 2
                + 2.0 * ((b10 - c * x * y) ** 2 + (b20 - c * x * z) ** 2 + (b21 - c * y * z) ** 2))
        half_gap = np.sqrt(rest / 2.0)
        eigvals = np.stack([low, mean - half_gap, mean + half_gap], axis=1)
        fallback = ~(eigvals[:, 1] - eigvals[:, 0] > EIGEN_FALLBACK_GAP * np.abs(eigvals).max(axis=1, initial=0.0))
        eigvals *= scale[:, None]
    vector = np.stack(vector, axis=1)
    if fallback.any():
        eigvals[fallback], eigvecs = np.linalg.eigh(a[fallback])
        vector[fallback] = eigvecs[:, :, 0]
    return eigvals, vector


def scatter_normals(moments: Moments):
    """Least-squares plane normals of one point set's moments, or of a stack.

    ``moments`` holds one set (count, (3,) mean, (3, 3) scatter) or a stack of
    them (counts (k,), means (k, 3), scatters (k, 3, 3)). Returns ``(normals,
    tie)``: each normal is the sign-canonicalized eigenvector of the smallest
    scatter eigenvalue, and ``tie`` is True where the points determine no
    plane, so the normal is meaningless: the two smallest eigenvalues tie
    (the points lie on a line), or the largest one is no bigger than
    ``count**3 * eps**2 * |mean|**2``, the most that rounding spreads out
    coincident points (the points are one spot). One set goes to
    ``np.linalg.eigh``, which costs less per call than the stacked kernel,
    and a stack to :func:`symmetric_eigen3`.
    """
    if moments.scatter.ndim == 2:  # one set, as every plane fit and merge has: Python floats cost less here
        eigvals, eigvecs = np.linalg.eigh(moments.scatter)
        low, mid, high = eigvals.tolist()
        x, y, z = moments.mean.tolist()
        tie = (mid - low <= EIGEN_TIE_RTOL * max(high, 0.0)
               or high <= moments.count ** 3 * EPS_SQUARED * (x * x + y * y + z * z))
        return canonical_sign(eigvecs[:, 0]), tie
    eigvals, normals = symmetric_eigen3(moments.scatter)
    low, mid, high = eigvals[:, 0], eigvals[:, 1], eigvals[:, 2]
    tie = ((mid - low <= EIGEN_TIE_RTOL * np.maximum(high, 0.0))
           | (high <= moments.count.astype(np.float64) ** 3 * EPS_SQUARED * (moments.mean ** 2).sum(axis=1)))
    return canonical_sign(normals), tie


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
    vertical, and any other is other. ``normals`` is one vector, (m, 3) or
    an empty sequence. Detection, labels, ground truth and synthetic scenes
    all classify here.

    Raises:
        ValueError: ``normals`` has another shape, ``up`` is not a unit
            vector or ``tol_degrees`` is not in (0, 45).
    """
    if not 0.0 < tol_degrees < 45.0:
        raise ValueError(f"tol_degrees must be in (0, 45), got {tol_degrees}")
    u = as_unit_vector(up)
    stack = np.asarray(normals, dtype=np.float64)
    if stack.shape in ((0,), (3,)):
        stack = stack.reshape(-1, 3)
    if stack.ndim != 2 or stack.shape[1] != 3:
        raise ValueError(f"normals must be one vector or (m, 3), got shape {stack.shape}")
    cosines = stack @ u
    angles = np.degrees(np.arccos(np.clip(np.abs(cosines), 0.0, 1.0)))
    codes = np.full(angles.shape, int(Orientation.OTHER), dtype=np.int8)
    codes[angles <= tol_degrees] = int(Orientation.HORIZONTAL)
    codes[90.0 - angles <= tol_degrees] = int(Orientation.VERTICAL)
    return codes
