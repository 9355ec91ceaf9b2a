"""Surface normal estimation from weighted neighborhood scatter.

For a reference point p with neighbors q_j, the scatter matrix is

    M = sum_j exp(-|q_j - p|^2 / (2 sigma^2)) * u_j u_j^T,   u_j = (q_j - p) / |q_j - p|

and the normal is the eigenvector of M with the smallest eigenvalue. The
Gaussian weight damps neighbors far from the reference point; its falloff
sigma is each point's mean neighbor distance, which with the normalized
connecting vectors keeps the estimate scale-free.

The offsets q_j - p are gathered once and scaled in place by sqrt(w_j) /
|q_j - p|, so one batched product ``u^T u`` gives every M. The stack goes
to :func:`planeops.geometry.symmetric_eigen3`, which solves each 3x3 matrix
in closed form (trigonometric eigenvalues, eigenvector from cross products
of rows). A matrix whose two smallest eigenvalues are closer than 1e-6
times the largest (``EIGEN_FALLBACK_GAP``) goes to ``np.linalg.eigh``: near
such a tie the closed form's arccos turns rounding errors of eps into
errors of about sqrt(eps), and a neighborhood on a line has exactly such a
tie. Those rows keep LAPACK's output as it is.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import EIGEN_TIE_RTOL, canonical_sign, symmetric_eigen3
from .kdtree import KdTree, row_blocks

__all__ = [
    "SampleSet",
    "estimate_normals",
    "normals_from_neighbors",
    "sample_indices",
]


@dataclass
class SampleSet:
    """Sparse subset of a cloud with estimated normals, as parallel arrays.

    ``indices[i]``, ``positions[i]`` and ``normals[i]`` describe one oriented
    point; ``cloud_size`` is the size of the cloud they were drawn from.
    """

    indices: np.ndarray
    positions: np.ndarray
    normals: np.ndarray
    cloud_size: int

    def __len__(self) -> int:
        return int(self.indices.size)


def sample_indices(n_points: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Draw round(rate * n_points) distinct indices uniformly, at least one.

    Partial Fisher-Yates: step i swaps position i with a uniform position j
    in [i, n_points). All swap targets come from one draw, which yields the
    same values and generator state as one ``rng.integers(i, n_points)`` per
    step. The swaps touch only the positions in ``moved``, so the cost is
    O(sample size), not O(n_points).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if n_points < 1:
        raise ValueError("cannot sample from an empty cloud")
    m = min(n_points, max(1, round(rate * n_points)))
    moved: dict[int, int] = {}  # position -> index now there, where not the identity
    picked = []
    for i, j in enumerate(rng.integers(np.arange(m), n_points).tolist()):
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked, dtype=np.int64)


def estimate_normals(kd: KdTree, indices, k: int):
    """Estimate normals (and curvature) for many reference points at once.

    Args:
        kd: index over the cloud, whose ``points`` the normals read.
        indices: reference point indices to process.
        k: neighbor count, >= 3; each point gets min(k, N - 1) neighbors.

    Returns:
        (normals, curvatures, valid): (m, 3) unit normals with NaN rows where
        the neighborhood was degenerate, the ratio of smallest eigenvalue to
        scatter trace, and a boolean validity mask.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    m = idx.size
    if len(kd) < 2:
        return np.full((m, 3), np.nan), np.full(m, np.inf), np.zeros(m, dtype=bool)
    return normals_from_neighbors(kd.points, idx, *kd.knn(idx, k))


def normals_from_neighbors(points: np.ndarray, idx: np.ndarray, nbr_dist: np.ndarray, nbr_idx: np.ndarray):
    """Normals (and curvature) from precomputed neighborhoods.

    ``nbr_dist`` and ``nbr_idx`` are the (m, k) result of ``KdTree.knn`` for
    the reference points ``idx``: cKDTree's neighbours, so equidistant ones
    come in cKDTree's order. The weighted scatter sums over them in that
    order. Returns what :func:`estimate_normals` does. Rows are walked in
    :func:`~planeops.kdtree.row_blocks`, and each row gets the same bits in
    any block.
    """
    m = idx.size
    normals, curvature, valid = np.empty((m, 3)), np.empty(m), np.empty(m, dtype=bool)
    for rows in row_blocks(m, nbr_idx.shape[1]):
        normals[rows], curvature[rows], valid[rows] = _block_normals(points, idx[rows], nbr_dist[rows], nbr_idx[rows])
    return normals, curvature, valid


def _block_normals(points, idx, nbr_dist, nbr_idx):
    """:func:`normals_from_neighbors` on one block of rows."""
    u = np.take(points, nbr_idx, axis=0)
    u -= np.take(points, idx, axis=0)[:, None, :]
    usable = nbr_dist > 0.0
    sig = nbr_dist.mean(axis=1)
    sig_ok = sig > 0.0
    sig = np.where(sig_ok, sig, 1.0)
    # sqrt(w) / d per neighbour, applied in place: u^T u is then sum w * u_hat u_hat^T
    root_w = np.exp(-(nbr_dist**2) / (4.0 * sig[:, None] ** 2)) * usable
    u *= (root_w / np.where(usable, nbr_dist, 1.0))[:, :, None]

    eigvals, smallest = symmetric_eigen3(u.transpose(0, 2, 1) @ u)
    normals = canonical_sign(smallest)

    trace = eigvals.sum(axis=1)
    curvature = np.where(trace > 0.0, eigvals[:, 0] / np.maximum(trace, 1e-300), np.inf)
    valid = (
        sig_ok
        & (usable.sum(axis=1) >= 3)
        & (eigvals[:, 1] - eigvals[:, 0] > EIGEN_TIE_RTOL * np.maximum(eigvals[:, 2], 0.0))
    )
    normals[~valid] = np.nan
    return normals, curvature, valid
