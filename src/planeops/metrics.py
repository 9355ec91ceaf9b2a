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
    """The labelings' common size; SizeMismatch if they differ, and the
    ValueError of :attr:`SegmentLabeling.table` on a class code outside H/V/O."""
    if len(predicted) != len(truth):
        raise SizeMismatch(f"labeling sizes differ: {len(predicted)} vs {len(truth)}")
    for labeling in (predicted, truth):
        labeling.table  # built once and kept, and both scorers read it: raises before either scores
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


def _segment_index(labeling: SegmentLabeling):
    """The labeling's segment ids, ascending, and each point's index among
    them; a point off every segment takes the index one past the last."""
    ids, rows, classes = labeling.table
    segment = classes.any(axis=1) & (ids >= 0)  # the table's rows that are segments
    index = np.where(segment, np.cumsum(segment) - 1, np.count_nonzero(segment))  # of each id row
    return ids[segment], index[rows]


def _overlaps(predicted: SegmentLabeling, truth: SegmentLabeling):
    """:func:`overlap_matrix` with one more row and column, which count the
    points off every predicted and every reference segment."""
    _check_sizes(predicted, truth)
    pred_ids, keys = _segment_index(predicted)
    truth_ids, truth_index = _segment_index(truth)
    width = truth_ids.size + 1
    keys *= width
    keys += truth_index  # each point's (predicted, reference) cell
    counts = np.bincount(keys, minlength=(pred_ids.size + 1) * width).reshape(-1, width)
    return counts, pred_ids, truth_ids


def overlap_matrix(predicted: SegmentLabeling, truth: SegmentLabeling):
    """Point-count overlaps between predicted and reference segments.

    Returns (matrix, predicted_ids, truth_ids); unsegmented points are not
    part of the matrix.
    """
    counts, pred_ids, truth_ids = _overlaps(predicted, truth)
    return counts[:-1, :-1], pred_ids, truth_ids


def segmentation_accuracy(predicted: SegmentLabeling, truth: SegmentLabeling) -> float:
    """Fraction of points assigned to the correct segment under the best
    one-to-one matching of predicted to reference segments.

    Points unsegmented in both labelings are paired through the implicit
    "other" pseudo-segment, so the result is a fraction of all points.
    """
    n = _check_sizes(predicted, truth)
    if n == 0:
        return 1.0
    counts, _, _ = _overlaps(predicted, truth)
    _, _, matched = hungarian_match(counts[:-1, :-1])
    return (matched + int(counts[-1, -1])) / n
