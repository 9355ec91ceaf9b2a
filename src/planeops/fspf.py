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
per block, one stacked least-squares fit of the hypotheses that passed,
then the block's planes are accepted in draw order until a budget runs out.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (  # noqa: F401  fit_plane: no caller, kept importable for perfbench's spans
    Moments,
    PlaneModel,
    as_float,
    as_integer,
    canonical_sign,
    fit_plane,
    scatter_normals,
)
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
    :func:`planeops.pipeline.run_detect` detects on a working cloud of W
    of a cloud's N points (W = N up to ``pipeline.WORKING_POINTS``): an
    explicit budget counts draws on the whole cloud and is scaled to
    ``max(1, max_inlier_points * W // N)``, the identity when W = N, and
    the default reads the working cloud, W / 2.
    ``r1`` bounds the hypothesis triple, ``r2`` the verification sphere.
    """

    max_inlier_points: int | None = None
    max_iterations: int = 20000
    local_samples: int = 80
    min_inlier_fraction: float = 0.8
    dist_threshold: float = 0.05
    r1: float = 0.07
    r2: float = 0.14

    def __post_init__(self):
        self.local_samples = as_integer(self.local_samples, "local_samples", minimum=3)
        self.max_iterations = as_integer(self.max_iterations, "max_iterations", minimum=0)
        if self.max_inlier_points is not None:
            self.max_inlier_points = as_integer(self.max_inlier_points, "max_inlier_points", minimum=1)
        self.min_inlier_fraction = as_float(self.min_inlier_fraction, "min_inlier_fraction", 0.0, 1.0, closed_high=True)
        for name in ("dist_threshold", "r1", "r2"):
            setattr(self, name, as_float(getattr(self, name), name, 0.0))


class HypothesisBlock(NamedTuple):
    """One block of tested hypotheses; row i belongs to anchor i.

    ``companions`` is -1 in rows whose r1 sphere holds fewer than two points
    besides the anchor; those rows, and rows with ``collinear`` set, hold no
    hypothesis and their other fields are meaningless. ``draws`` holds the
    local samples drawn from each anchor's r2 sphere and ``inliers`` the
    number of draws within ``dist_threshold`` of the hypothesis plane, the
    draws marked in ``inlier_mask``.
    """

    companions: np.ndarray
    normals: np.ndarray
    collinear: np.ndarray
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


def score_block(kd: KdTree, params: FspfParams, anchors: np.ndarray, fractions: np.ndarray) -> HypothesisBlock:
    """Build and test the hypotheses of one block from its drawn positions.

    ``anchors`` holds m indices into ``kd.points``. ``fractions`` is (m, local_samples - 1)
    of uniform draws in [0, 1) that pick positions in each anchor's spheres:
    the first two pick two distinct companions from the r1 sphere without the
    anchor, the rest pick the local samples from the r2 sphere, with
    replacement. ``floor(f * k)`` is uniform over k positions up to the 2**-53
    resolution of ``f``, and stays below k in floating point.
    """
    rows, points = np.arange(anchors.size)[:, None], kd.points
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
    return HypothesisBlock(companions, normals, collinear, draws, inlier_mask, inlier_mask.sum(axis=1))


class BlockFit(NamedTuple):
    """Least-squares planes of some rows of a block, fitted together.

    Row i of every field belongs to the i-th fitted row. ``claims`` holds the
    row's claimed point indices, ascending where ``keep`` is set; ``keep``
    marks each distinct index once. ``usable`` is False where the claims
    number fewer than 3 or lie on a line; those rows have no plane.
    """

    claims: np.ndarray
    keep: np.ndarray
    centroids: np.ndarray
    normals: np.ndarray
    usable: np.ndarray


def fit_block(points: np.ndarray, block: HypothesisBlock, rows: np.ndarray) -> BlockFit:
    """Fit the given rows of a block on their claimed points in one stack.

    A row claims its distinct inlier draws. Each row's plane equals
    :func:`fit_plane` on its claimed points up to rounding: the masked mean
    of the claims, and the normal of the centred scatter from one stacked
    eigen decomposition.
    """
    claims = np.sort(np.where(block.inlier_mask[rows], block.draws[rows], -1), axis=1)
    keep = claims >= 0
    keep[:, 1:] &= claims[:, 1:] != claims[:, :-1]
    counts = keep.sum(axis=1)
    weight = keep[..., None]
    xyz = np.take(points, claims, axis=0)  # padding gathers the last point, masked out below
    centroids = np.where(weight, xyz, 0.0).sum(axis=1) / np.maximum(counts, 1)[:, None]
    centred = np.where(weight, xyz - centroids[:, None], 0.0)
    normals, tie = scatter_normals(Moments(counts, centroids, centred.transpose(0, 2, 1) @ centred))
    return BlockFit(claims, keep, centroids, normals, (counts >= 3) & ~tie)


def fspf_detect(kd: KdTree, params: FspfParams, rng: np.random.Generator) -> list[PlaneModel]:
    """Run the local sampling loop over ``kd.points`` and return the accepted planes.

    Per iteration: draw an anchor uniformly, two distinct companions from its
    r1 sphere (skipping the iteration when the sphere is too thin or the
    triple collinear), then ``local_samples - 3`` draws with replacement from
    the r2 sphere. Draws within ``dist_threshold`` of the hypothesis plane
    are inliers; the plane is accepted when their count exceeds
    ``min_inlier_fraction * local_samples``. Accepted planes record the
    distinct inlier draws and are refit on them. The loop stops after
    ``max_iterations`` or once the accumulated inlier-draw count reaches
    ``max_inlier_points``.

    Iterations are drawn ``BLOCK_ANCHORS`` at a time: the block's anchors,
    then one array of position fractions (see :func:`score_block`). Draws of
    the iterations after the stopping one are discarded.

    Raises:
        CloudTooSmall: the cloud holds fewer than ``local_samples`` points.
    """
    n = len(kd)
    if n < params.local_samples:
        raise CloudTooSmall(f"cloud of {n} points is smaller than local_samples={params.local_samples}")
    n_max = params.max_inlier_points if params.max_inlier_points is not None else n // 2
    accept_above = params.min_inlier_fraction * params.local_samples

    planes: list[PlaneModel] = []
    total_inliers = 0
    it = 0
    while total_inliers < n_max and it < params.max_iterations:
        m = min(BLOCK_ANCHORS, params.max_iterations - it)
        it += m
        anchors = rng.integers(0, n, size=m)
        block = score_block(kd, params, anchors, rng.random((m, params.local_samples - 1)))
        passed = np.flatnonzero((block.companions[:, 0] >= 0) & ~block.collinear & (block.inliers > accept_above))
        fit = fit_block(kd.points, block, passed)
        for i in np.flatnonzero(fit.usable).tolist():
            planes.append(PlaneModel(centroid=fit.centroids[i], normal=fit.normals[i],
                                     inliers=fit.claims[i][fit.keep[i]]))
            total_inliers += int(block.inliers[passed[i]])
            if total_inliers >= n_max:
                break
    return planes
