"""Plane detection by local three-point sampling in spheres.

Each iteration seeds a plane from three points drawn near a random anchor:
two companions inside a small sphere of radius r1 fix the hypothesis via a
cross product, then a batch of local samples from a larger r2 sphere votes on
it. Hypotheses with a high enough local inlier fraction are accepted and
refit by least squares. The detector trades global support for speed, so it
produces many small planes that the merging stage consolidates.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, PlaneModel, canonical_sign, fit_plane
from .kdtree import KdTree

__all__ = ["CloudTooSmall", "CollinearSample", "FspfParams", "fspf_detect", "three_point_normal"]


class CollinearSample(ValueError):
    """Three sampled points do not span a plane."""


class CloudTooSmall(ValueError):
    """The cloud holds fewer points than one iteration's local samples."""


@dataclass
class FspfParams:
    """Tuning knobs for the local three-point detector.

    ``max_inlier_points=None`` resolves to half the cloud size at run time.
    ``r1`` bounds the hypothesis triple, ``r2`` the verification sphere.
    """

    max_inlier_points: int | None = None
    max_iterations: int = 20000
    local_samples: int = 80
    min_inlier_fraction: float = 0.8
    dist_threshold: float = 0.05
    r1: float = 0.07
    r2: float = 0.14
    claim_full_sphere: bool = False

    def __post_init__(self):
        if self.local_samples < 3:
            raise ValueError("local_samples must be >= 3")
        if not 0.0 < self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in (0, 1]")
        if self.r1 <= 0.0 or self.r2 <= 0.0:
            raise ValueError("sphere radii must be positive")
        if self.dist_threshold <= 0.0:
            raise ValueError("dist_threshold must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@dataclass
class FspfDetail:
    """Diagnostics for one accepted plane (pre-refit hypothesis)."""

    anchor_index: int
    hypothesis_normal: np.ndarray
    inlier_draws: int


def three_point_normal(p0, p1, p2) -> np.ndarray:
    """Unit normal of the plane through three points, sign-canonicalized.

    Raises CollinearSample when the points (nearly) lie on a line, judged by
    the cross-product norm relative to the edge lengths.
    """
    a = np.asarray(p1, dtype=np.float64) - np.asarray(p0, dtype=np.float64)
    b = np.asarray(p2, dtype=np.float64) - np.asarray(p0, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise CollinearSample("coincident sample points")
    cross = np.cross(a, b)
    norm = np.linalg.norm(cross)
    if norm < 1e-12 * na * nb:
        raise CollinearSample("sample points are collinear")
    return canonical_sign(cross / norm)


def fspf_detect(
    points: np.ndarray,
    kd: KdTree,
    params: FspfParams,
    rng: np.random.Generator,
    return_details: bool = False,
):
    """Run the local sampling loop and return the accepted planes.

    Per iteration: draw an anchor uniformly, two distinct companions from its
    r1 sphere (skipping the iteration when the sphere is too thin or the
    triple collinear), then ``local_samples - 3`` draws with replacement from
    the r2 sphere. Draws within ``dist_threshold`` of the hypothesis plane
    are inliers; the plane is accepted when their count exceeds
    ``min_inlier_fraction * local_samples``. Accepted planes record the
    distinct inlier draws (or the whole r2 sphere with
    ``claim_full_sphere=True``) and are refit on their recorded points. The
    loop stops after ``max_iterations`` or once the accumulated inlier-draw
    count reaches ``max_inlier_points``.

    Raises:
        CloudTooSmall: the cloud holds fewer than ``local_samples`` points.
    """
    n = points.shape[0]
    if n < params.local_samples:
        raise CloudTooSmall(f"cloud of {n} points is smaller than local_samples={params.local_samples}")
    n_max = params.max_inlier_points if params.max_inlier_points is not None else n // 2
    accept_above = params.min_inlier_fraction * params.local_samples
    n_draws = params.local_samples - 3

    planes: list[PlaneModel] = []
    details: list[FspfDetail] = []
    total_inliers = 0
    it = 0
    while total_inliers < n_max and it < params.max_iterations:
        it += 1
        anchor = int(rng.integers(0, n))
        p0 = points[anchor]
        near = kd.radius_search(p0, params.r1)
        near = near[near != anchor]
        if near.size < 2:
            continue
        picked = rng.choice(near, size=2, replace=False)
        try:
            normal = three_point_normal(p0, points[picked[0]], points[picked[1]])
        except CollinearSample:
            continue
        sphere = kd.radius_search(p0, params.r2)
        draws = sphere[rng.integers(0, sphere.size, size=n_draws)]
        offsets = np.abs((points[draws] - p0) @ normal)
        inlier_mask = offsets < params.dist_threshold
        n_inlier = int(inlier_mask.sum())
        if n_inlier <= accept_above:
            continue
        claimed = sphere if params.claim_full_sphere else np.unique(draws[inlier_mask])
        if claimed.size < 3:
            continue
        try:
            model = fit_plane(points[claimed], inliers=claimed)
        except DegenerateInput:
            continue
        planes.append(model)
        details.append(FspfDetail(anchor_index=anchor, hypothesis_normal=normal, inlier_draws=n_inlier))
        total_inliers += n_inlier

    if return_details:
        return planes, details
    return planes
