"""Scoring of predicted labelings against reference labelings.

Classification accuracy compares orientation classes pointwise. Segmentation
accuracy matches predicted segments one-to-one to reference segments by
maximum overlap (optimal assignment) and counts the matched points; points
unsegmented on both sides also count as matched.
"""

import numpy as np

from .truth import SegmentLabeling

__all__ = [
    "SizeMismatch",
    "classification_accuracy",
    "hungarian_match",
    "overlap_matrix",
    "segmentation_accuracy",
]


class SizeMismatch(ValueError):
    """Labelings refer to clouds of different sizes."""


def _check_sizes(predicted: SegmentLabeling, truth: SegmentLabeling) -> int:
    if len(predicted) != len(truth):
        raise SizeMismatch(f"labeling sizes differ: {len(predicted)} vs {len(truth)}")
    return len(predicted)


def classification_accuracy(predicted: SegmentLabeling, truth: SegmentLabeling) -> float:
    """Fraction of points whose orientation class matches the reference."""
    n = _check_sizes(predicted, truth)
    if n == 0:
        return 1.0
    return float(np.mean(predicted.orientations == truth.orientations))


def hungarian_match(overlap: np.ndarray):
    """Optimal one-to-one assignment maximizing total overlap.

    Args:
        overlap: finite, nonnegative (n_pred, n_truth) count matrix.

    Returns:
        (rows, cols, total): matched int64 index arrays of length
        min(n_pred, n_truth), rows ascending, and their summed overlap.
    """
    m = np.asarray(overlap)
    if m.ndim != 2:
        raise ValueError("overlap must be a 2-D matrix")
    if m.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    if not (np.isfinite(m).all() and (m >= 0).all()):
        raise ValueError("overlap counts must be finite and nonnegative")
    # csgraph (which gt also uses) rather than scipy.optimize saves a fresh
    # eval process 16 MB and 0.2-0.3 s of imports. Minimizing max + 1 - m
    # maximizes the total, and with every weight explicit and at least 1 a
    # matching of size min(n_pred, n_truth) exists.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    rows, cols = min_weight_full_bipartite_matching(csr_matrix(m.max() + 1 - m))
    return rows.astype(np.int64), cols.astype(np.int64), int(m[rows, cols].sum())


def overlap_matrix(predicted: SegmentLabeling, truth: SegmentLabeling):
    """Point-count overlaps between predicted and reference segments.

    Returns (matrix, predicted_ids, truth_ids); unsegmented points are not
    part of the matrix.
    """
    _check_sizes(predicted, truth)
    pred_ids = predicted.segment_ids()
    truth_ids = truth.segment_ids()
    both = (predicted.plane_ids >= 0) & (truth.plane_ids >= 0)
    pcode = np.searchsorted(pred_ids, predicted.plane_ids[both])
    tcode = np.searchsorted(truth_ids, truth.plane_ids[both])
    counts = np.bincount(
        pcode * truth_ids.size + tcode, minlength=pred_ids.size * truth_ids.size
    )
    return counts.reshape(pred_ids.size, truth_ids.size), pred_ids, truth_ids


def segmentation_accuracy(predicted: SegmentLabeling, truth: SegmentLabeling) -> float:
    """Fraction of points assigned to the correct segment under the best
    one-to-one matching of predicted to reference segments.

    Points unsegmented in both labelings are paired through the implicit
    "other" pseudo-segment, so the result is a fraction of all points.
    """
    n = _check_sizes(predicted, truth)
    if n == 0:
        return 1.0
    overlap, _, _ = overlap_matrix(predicted, truth)
    _, _, matched = hungarian_match(overlap)
    both_other = int(np.sum((predicted.plane_ids < 0) & (truth.plane_ids < 0)))
    return (matched + both_other) / n
