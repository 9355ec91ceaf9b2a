"""Plane detection by local three-point sampling in spheres.

Each iteration seeds a plane from three points drawn near a random anchor:
two companions inside a small sphere of radius r1 fix the hypothesis via a
cross product, then a batch of local samples from a larger r2 sphere votes on
it. Hypotheses with a high enough local inlier fraction are accepted and
refit by least squares. The detector trades global support for speed, so it
produces many small planes that the merging stage consolidates.

Iterations claim no points, so they are independent apart from the inlier
budget that ends the loop. They are drawn and tested in blocks of
``BLOCK_ANCHORS``: one sphere query per radius and a few array operations
per block, then the block's hypotheses are accepted in draw order until a
budget runs out.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DegenerateInput, PlaneModel, canonical_sign, fit_plane
from .kdtree import KdTree

__all__ = ["CloudTooSmall", "FspfParams", "fspf_detect", "three_point_normal"]

# Hypotheses drawn and tested together. Larger blocks amortize the per-call
# overhead further; the work past the stopping iteration is wasted.
BLOCK_ANCHORS = 256


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


class HypothesisBlock(NamedTuple):
    """One block of tested hypotheses; row i belongs to anchor i.

    ``companions`` is -1 in rows whose r1 sphere holds fewer than two points
    besides the anchor; those rows, and rows with ``collinear`` set, hold no
    hypothesis and their other fields are meaningless. ``spheres`` holds each
    anchor's r2 sphere padded with -1, ``draws`` the local samples drawn from
    it and ``inliers`` the number of draws within ``dist_threshold`` of the
    hypothesis plane, the draws marked in ``inlier_mask``.
    """

    companions: np.ndarray
    normals: np.ndarray
    collinear: np.ndarray
    spheres: np.ndarray
    draws: np.ndarray
    inlier_mask: np.ndarray
    inliers: np.ndarray


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, the same bits for any stack shape."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def three_point_normal(p0, p1, p2):
    """Unit normals of the planes through point triples, sign-canonicalized.

    ``p0``, ``p1`` and ``p2`` broadcast to (..., 3). Returns ``(normals,
    collinear)``: ``collinear`` is True where a triple (nearly) lies on a
    line, judged by the cross-product norm relative to the edge lengths, and
    the normal there is meaningless.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    a = np.asarray(p1, dtype=np.float64) - p0
    b = np.asarray(p2, dtype=np.float64) - p0
    cross = np.cross(a, b)
    norm = _norm(cross)
    collinear = (norm == 0.0) | (norm < 1e-12 * _norm(a) * _norm(b))
    return canonical_sign(cross / np.where(collinear, 1.0, norm)[..., None]), collinear


def score_block(points: np.ndarray, kd: KdTree, params: FspfParams, anchors: np.ndarray,
                fractions: np.ndarray) -> HypothesisBlock:
    """Build and test the hypotheses of one block from its drawn positions.

    ``anchors`` holds m point indices. ``fractions`` is (m, local_samples - 1)
    of uniform draws in [0, 1) that pick positions in each anchor's spheres:
    the first two pick two distinct companions from the r1 sphere without the
    anchor, the rest pick the local samples from the r2 sphere, with
    replacement. ``floor(f * k)`` is uniform over k positions up to the 2**-53
    resolution of ``f``, and stays below k in floating point.
    """
    rows = np.arange(anchors.size)[:, None]
    p0 = points[anchors]
    near = kd.radius_search(p0, params.r1)
    others = (near >= 0).sum(axis=1) - 1  # the sphere holds its own anchor
    thin = others < 2
    first = (fractions[:, 0] * others).astype(np.int64)
    second = (fractions[:, 1] * (others - 1)).astype(np.int64)
    pair = np.stack([first, second + (second >= first)], axis=1)
    pair += pair >= (near == anchors[:, None]).argmax(axis=1)[:, None]  # step over the anchor
    pair[thin] = 0
    companions = near[rows, pair]
    normals, collinear = three_point_normal(p0, points[companions[:, 0]], points[companions[:, 1]])
    companions[thin] = -1

    spheres = kd.radius_search(p0, params.r2)
    sizes = (spheres >= 0).sum(axis=1)
    draws = spheres[rows, (fractions[:, 2:] * sizes[:, None]).astype(np.int64)]
    offsets = sum((points[draws, axis] - p0[:, axis, None]) * normals[:, axis, None] for axis in range(3))
    inlier_mask = np.abs(offsets) < params.dist_threshold
    return HypothesisBlock(companions, normals, collinear, spheres, draws, inlier_mask, inlier_mask.sum(axis=1))


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

    Iterations are drawn ``BLOCK_ANCHORS`` at a time: the block's anchors,
    then one array of position fractions (see :func:`score_block`). Draws of
    the iterations after the stopping one are discarded.

    Raises:
        CloudTooSmall: the cloud holds fewer than ``local_samples`` points.
    """
    n = points.shape[0]
    if n < params.local_samples:
        raise CloudTooSmall(f"cloud of {n} points is smaller than local_samples={params.local_samples}")
    n_max = params.max_inlier_points if params.max_inlier_points is not None else n // 2
    accept_above = params.min_inlier_fraction * params.local_samples

    planes: list[PlaneModel] = []
    details: list[FspfDetail] = []
    total_inliers = 0
    it = 0
    while total_inliers < n_max and it < params.max_iterations:
        m = min(BLOCK_ANCHORS, params.max_iterations - it)
        it += m
        anchors = rng.integers(0, n, size=m)
        block = score_block(points, kd, params, anchors, rng.random((m, params.local_samples - 1)))
        passed = (block.companions[:, 0] >= 0) & ~block.collinear & (block.inliers > accept_above)
        for row in np.flatnonzero(passed).tolist():
            if params.claim_full_sphere:
                claimed = block.spheres[row][block.spheres[row] >= 0]
            else:
                claimed = np.unique(block.draws[row][block.inlier_mask[row]])
            if claimed.size < 3:
                continue
            try:
                model = fit_plane(points[claimed], inliers=claimed)
            except DegenerateInput:
                continue
            n_inlier = int(block.inliers[row])
            planes.append(model)
            details.append(FspfDetail(anchor_index=int(anchors[row]), hypothesis_normal=block.normals[row],
                                      inlier_draws=n_inlier))
            total_inliers += n_inlier
            if total_inliers >= n_max:
                break

    if return_details:
        return planes, details
    return planes
