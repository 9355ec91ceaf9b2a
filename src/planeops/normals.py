"""Surface normal estimation from weighted neighborhood scatter.

For a reference point p with neighbors q_j, the scatter matrix is

    M = sum_j exp(-|q_j - p|^2 / (2 sigma^2)) * u_j u_j^T,   u_j = (q_j - p) / |q_j - p|

and the normal is the eigenvector of M with the smallest eigenvalue. The
Gaussian weight damps neighbors far from the reference point; normalizing the
connecting vectors keeps the estimate scale-free.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import EIGEN_TIE_RTOL
from .kdtree import KdTree

__all__ = [
    "AllDegenerate",
    "DegenerateNeighborhood",
    "SampleSet",
    "build_sample_set",
    "estimate_normal",
    "estimate_normals",
    "normals_from_neighbors",
    "sample_indices",
]


class DegenerateNeighborhood(ValueError):
    """Neighborhood does not determine a normal (collinear or collapsed)."""


class AllDegenerate(ValueError):
    """No sampled point produced a usable normal."""


@dataclass
class SampleSet:
    """Sparse subset of a cloud with estimated normals, as parallel arrays.

    ``indices[i]``, ``positions[i]`` and ``normals[i]`` describe one oriented
    point. ``n_degenerate`` counts sampled points dropped because their
    neighborhood was degenerate.
    """

    indices: np.ndarray
    positions: np.ndarray
    normals: np.ndarray
    sampling_rate: float
    k: int
    cloud_size: int
    n_degenerate: int = 0

    def __len__(self) -> int:
        return int(self.indices.size)


def sample_indices(n_points: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Draw round(rate * n_points) distinct indices uniformly, at least one.

    Partial Fisher-Yates over an index array: O(sample size) swaps and
    reproducible for a given generator state.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if n_points < 1:
        raise ValueError("cannot sample from an empty cloud")
    m = min(n_points, max(1, round(rate * n_points)))
    pool = np.arange(n_points, dtype=np.int64)
    for i in range(m):
        j = int(rng.integers(i, n_points))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


def estimate_normals(points: np.ndarray, kd: KdTree, indices, k: int, sigma: float | None = None):
    """Estimate normals (and curvature) for many reference points at once.

    Args:
        points: the full (N, 3) cloud backing ``kd``.
        kd: index over ``points``.
        indices: reference point indices to process.
        k: neighbor count, >= 3; the cloud must hold at least k+1 points.
        sigma: Gaussian falloff in meters; None adapts it per point to the
            mean neighbor distance.

    Returns:
        (normals, curvatures, valid): (m, 3) unit normals with NaN rows where
        the neighborhood was degenerate, the ratio of smallest eigenvalue to
        scatter trace, and a boolean validity mask.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    m = idx.size
    if points.shape[0] < 2:
        return (
            np.full((m, 3), np.nan),
            np.full(m, np.inf),
            np.zeros(m, dtype=bool),
        )
    nbr_dist, nbr_idx = kd.knn(points[idx], k, exclude_index=idx)
    return normals_from_neighbors(points, idx, nbr_dist, nbr_idx, sigma)


def normals_from_neighbors(points: np.ndarray, idx: np.ndarray, nbr_dist: np.ndarray, nbr_idx: np.ndarray,
                           sigma: float | None = None):
    """Normals (and curvature) from precomputed neighborhoods.

    ``nbr_dist`` and ``nbr_idx`` are the (m, k) result of ``KdTree.knn`` for
    the reference points ``idx``; returns what :func:`estimate_normals` does.
    """
    m = idx.size
    diff = points[nbr_idx] - points[idx][:, None, :]
    usable = nbr_dist > 0.0
    safe = np.where(usable, nbr_dist, 1.0)
    u = diff / safe[:, :, None]
    if sigma is None:
        sig = nbr_dist.mean(axis=1)
    else:
        sig = np.full(m, float(sigma))
    sig_ok = sig > 0.0
    sig = np.where(sig_ok, sig, 1.0)
    w = np.exp(-(nbr_dist**2) / (2.0 * sig[:, None] ** 2)) * usable

    scatter = np.einsum("nk,nki,nkj->nij", w, u, u)
    eigvals, eigvecs = np.linalg.eigh(scatter)
    normals = eigvecs[:, :, 0]
    dominant = np.argmax(np.abs(normals), axis=1)
    flip = normals[np.arange(m), dominant] < 0.0
    normals[flip] *= -1.0

    trace = eigvals.sum(axis=1)
    curvature = np.where(trace > 0.0, eigvals[:, 0] / np.maximum(trace, 1e-300), np.inf)
    valid = (
        sig_ok
        & (usable.sum(axis=1) >= 3)
        & (eigvals[:, 1] - eigvals[:, 0] > EIGEN_TIE_RTOL * np.maximum(eigvals[:, 2], 0.0))
    )
    normals[~valid] = np.nan
    return normals, curvature, valid


def estimate_normal(points: np.ndarray, index: int, kd: KdTree, k: int, sigma: float | None = None) -> np.ndarray:
    """Normal at one reference point; raises instead of returning NaN."""
    normals, _, valid = estimate_normals(points, kd, [index], k, sigma)
    if not valid[0]:
        raise DegenerateNeighborhood(f"point {index} has a degenerate {k}-neighborhood")
    return normals[0]


def build_sample_set(
    points: np.ndarray,
    kd: KdTree,
    rate: float,
    k: int,
    rng: np.random.Generator,
    sigma: float | None = None,
) -> SampleSet:
    """Sample a fraction of the cloud and orient every usable sample.

    Degenerate neighborhoods are dropped and counted; raises AllDegenerate if
    nothing survives.
    """
    idx = sample_indices(points.shape[0], rate, rng)
    normals, _, valid = estimate_normals(points, kd, idx, k, sigma)
    kept = idx[valid]
    if kept.size == 0:
        raise AllDegenerate("every sampled point had a degenerate neighborhood")
    return SampleSet(
        indices=kept,
        positions=points[kept],
        normals=normals[valid],
        sampling_rate=rate,
        k=k,
        cloud_size=int(points.shape[0]),
        n_degenerate=int(idx.size - kept.size),
    )
