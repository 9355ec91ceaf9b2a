"""Plane detection by one-point RANSAC over sparsely sampled oriented points.

A single point with a normal already determines a plane, so one oriented
sample per hypothesis is enough; the inlier ratio then drives an adaptive
iteration budget. Detection reads only the samples: it runs per orientation
group (horizontal / vertical / other), and each winner retires the samples
on its plane before the next draw. The cloud is claimed once, afterwards,
by :func:`assign_to_planes`, which serves both detectors. The oriented
samples themselves come from :func:`planeops.pipeline.run_detect`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DegenerateInput,
    Orientation,
    PlaneModel,
    as_float,
    as_integer,
    classify_orientations,
    fit_plane,
    plane_distances,
)
from .normals import SampleSet

__all__ = [
    "NoPlaneFound",
    "OpsParams",
    "RansacResult",
    "adaptive_iterations",
    "assign_to_planes",
    "detect_grouped",
    "extract_full_inliers",
    "one_point_ransac",
]

GROUP_ORDER = (Orientation.HORIZONTAL, Orientation.VERTICAL, Orientation.OTHER)
# The RANSAC budget never exceeds this many draws per live sample.
ITERATION_CAP_FACTOR = 10
# Sample distances one block of RANSAC picks computes at most (one pick per
# block when the pool is larger).
BLOCK_DISTANCES = 2**16


class NoPlaneFound(RuntimeError):
    """No hypothesis reached the inlier threshold within the budget."""


@dataclass
class OpsParams:
    """Tuning knobs for the oriented-point detector.

    The default 3% sampling and 30 neighbors are the preset that the
    README's "Benchmarking on real data" reports on indoor RGB-D clouds; the
    distance threshold is the evaluation constant used throughout the
    package, and ``min_inliers`` counts samples, not cloud points. The seed,
    the up axis and the orientation tolerance that grouping uses belong to
    the run, in :class:`planeops.pipeline.RunConfig`.
    """

    sampling_rate: float = 0.03
    k: int = 30
    probability: float = 0.99
    dist_threshold: float = 0.05
    min_inliers: int = 20

    def __post_init__(self):
        self.sampling_rate = as_float(self.sampling_rate, "sampling_rate", 0.0, 1.0, closed_high=True)
        self.k = as_integer(self.k, "k", minimum=3)
        self.probability = as_float(self.probability, "probability", 0.0, 1.0)
        self.dist_threshold = as_float(self.dist_threshold, "dist_threshold", 0.0)
        self.min_inliers = as_integer(self.min_inliers, "min_inliers", minimum=3)


@dataclass
class RansacResult:
    """Winning hypothesis of one RANSAC run.

    ``sample_inliers`` are positions into the SampleSet arrays, not cloud
    indices; ``model.inliers`` holds the corresponding cloud indices.
    """

    model: PlaneModel
    sample_inliers: np.ndarray
    iterations: int


def adaptive_iterations(p: float, e: float, cap: int | None = None) -> int:
    """RANSAC iteration budget for a one-point minimal sample.

    ceil(log(1-p) / log(e)) where p is the required success probability and e
    the outlier fraction; with a single-point sample the probability of a good
    draw is exactly 1-e. Clamped to [1, cap].
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not 0.0 <= e < 1.0:
        raise ValueError(f"e must be in [0, 1), got {e}")
    if e == 0.0:
        n = 1
    else:
        n = max(1, math.ceil(math.log(1.0 - p) / math.log(e)))
    if cap is not None:
        n = min(n, max(1, cap))
    return n


def one_point_ransac(
    samples: SampleSet,
    params: OpsParams,
    rng: np.random.Generator,
    alive: np.ndarray,
) -> RansacResult:
    """Find the sample-supported plane with the most inliers.

    Each iteration promotes one oriented sample to a plane hypothesis and
    counts samples within ``dist_threshold`` of it. The budget starts at the
    cloud size (capped at ``ITERATION_CAP_FACTOR`` times the pool size) and
    shrinks as better hypotheses tighten the pool's outlier ratio. The
    winner is refit by least squares on its sample inliers.

    Picks are drawn in blocks of about ``BLOCK_DISTANCES`` sample distances
    and walked in draw order. A pick's distances are ``|x·n - p·n|`` from
    the block's one matrix product, and a sample counts when its distance
    is below ``dist_threshold``. The generator's state is read once on
    entry; every way out (a winner, :class:`NoPlaneFound`, a degenerate
    refit) restores it and draws the run's ``iterations`` picks in one call,
    so the final state is that of one draw per iteration.

    With no winner after m picks, every pool sample is scored once, below
    ``dist_threshold + 1e-9`` to over-count any rounding. If none exceeds
    ``min_inliers``, the run ends as if it had drawn the rest of its budget.

    Args:
        alive: boolean mask over the samples giving the working pool;
            retired samples are neither drawn nor counted.

    Raises:
        NoPlaneFound: the pool holds at most ``min_inliers`` samples (before
            any draw), or no hypothesis collected more within the budget.
    """
    pool = np.flatnonzero(alive)
    m = pool.size
    if m <= params.min_inliers:
        raise NoPlaneFound(f"{m} live samples cannot exceed min_inliers={params.min_inliers}")
    positions = np.take(samples.positions, pool, axis=0)
    normals = np.take(samples.normals, pool, axis=0)
    cap = ITERATION_CAP_FACTOR * m
    budget = min(samples.cloud_size, cap)
    block = max(1, BLOCK_DISTANCES // m)

    state = rng.bit_generator.state
    best_count = 0
    best_mask = None
    it = 0
    while it < budget:
        picks = rng.integers(0, m, size=min(block, budget - it))
        inside = _near(positions, normals, picks, params.dist_threshold)
        used = 0
        for count in np.count_nonzero(inside, axis=1).tolist():
            if count > params.min_inliers and count > best_count:
                best_count = count
                best_mask = inside[used]
                budget = adaptive_iterations(params.probability, max(1.0 - count / m, 0.0), cap=cap)
            used += 1
            if it + used >= budget:
                break
        it += used
        if best_mask is None and it - used < m <= it < budget:
            most = max(np.count_nonzero(_near(positions, normals, slice(s, s + block), params.dist_threshold + 1e-9),
                                        axis=1).max() for s in range(0, m, block))
            if most <= params.min_inliers:
                it = budget  # none of the picks left can win
    rng.bit_generator.state = state
    rng.integers(0, m, size=it)

    if best_mask is None:
        raise NoPlaneFound(f"no hypothesis exceeded {params.min_inliers} inliers in {it} iterations")
    winners = pool[best_mask]
    try:
        model = fit_plane(samples.positions[winners], inliers=samples.indices[winners])
    except DegenerateInput as exc:
        raise NoPlaneFound(f"winning inlier set is degenerate: {exc}") from exc
    return RansacResult(model=model, sample_inliers=winners, iterations=it)


def _near(positions: np.ndarray, normals: np.ndarray, picks, threshold: float) -> np.ndarray:
    """(picks, m): which samples lie within ``threshold`` of each picked sample's plane, by one matrix product."""
    dists = normals[picks] @ positions.T
    dists -= np.einsum("ij,ij->i", positions[picks], normals[picks])[:, None]
    return np.abs(dists, out=dists) < threshold


def extract_full_inliers(
    points: np.ndarray,
    model: PlaneModel,
    dist_threshold: float,
    live: np.ndarray,
) -> tuple[PlaneModel, np.ndarray]:
    """Let one plane claim the unclaimed points near it; :func:`assign_to_planes`' step.

    ``live`` holds the ascending indices of the points still unclaimed, and
    only those are measured. Claims every live point within
    ``dist_threshold`` of the plane and refits on them; ``rest`` holds the
    live points the plane leaves, ascending. With fewer than three claimed
    points the hypothesis geometry is kept and only the inlier list changes.
    Returns ``(plane, rest)``.
    """
    offsets = np.take(points, live, axis=0)
    for axis in range(3):  # in place, a column at a time: the bits of plane_distances, no length-3 inner loop
        offsets[:, axis] -= model.centroid[axis]
    near = np.abs(offsets @ model.normal) < dist_threshold
    idx, rest = live[near], live[~near]
    if idx.size >= 3:
        try:
            return fit_plane(np.take(points, idx, axis=0), inliers=idx), rest
        except DegenerateInput:
            pass
    return PlaneModel(centroid=model.centroid, normal=model.normal, inliers=idx), rest


def assign_to_planes(points: np.ndarray, planes: list[PlaneModel], dist_threshold: float) -> list[PlaneModel]:
    """Let each plane, in list order, claim the unclaimed points within the threshold.

    Each plane takes the points not yet claimed at a distance below
    ``dist_threshold`` and is refit on them (:func:`extract_full_inliers`);
    one that claims fewer than 3 points is dropped and leaves them unclaimed.
    """
    live = np.arange(points.shape[0], dtype=np.int64)  # unclaimed points, ascending
    out = []
    for plane in planes:
        full, rest = extract_full_inliers(points, plane, dist_threshold, live)
        if full.inlier_count >= 3:
            live = rest
            out.append(full)
    return out


def detect_grouped(samples: SampleSet, params: OpsParams, rng: np.random.Generator, up,
                   tol_degrees: float) -> list[PlaneModel]:
    """Extract every plane the oriented samples support, in detection order.

    The samples are partitioned into horizontal / vertical / other by their
    estimated normals (:func:`planeops.geometry.classify_orientations` with
    ``up`` and ``tol_degrees``), and detection runs per group in that fixed
    order over one sample pool, reading no cloud point. Each RANSAC winner
    retires its sample inliers and every sample within ``dist_threshold`` of
    its model, and the model is returned: its inliers are the cloud indices
    of its more than ``min_inliers`` samples, disjoint from the others'. A
    group ends on its first :class:`NoPlaneFound`.
    """
    codes = classify_orientations(samples.normals, up, tol_degrees)
    alive = np.ones(len(samples), dtype=bool)
    planes = []
    for member in [codes == int(orient) for orient in GROUP_ORDER]:
        while True:
            try:
                result = one_point_ransac(samples, params, rng, alive & member)
            except NoPlaneFound:
                break
            plane = result.model
            alive[result.sample_inliers] = False
            alive &= ~(plane_distances(samples.positions, plane.centroid, plane.normal) < params.dist_threshold)
            planes.append(plane)
    return planes
