"""Accuracy metric tests, with the exhaustive assignment oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_assignment_max, id_layout_labelings, reference_overlap_matrix
from planeops import (
    Orientation,
    SegmentLabeling,
    SizeMismatch,
    classification_accuracy,
    hungarian_match,
    segmentation_accuracy,
)
from planeops.metrics import overlap_matrix

H, V, O = int(Orientation.HORIZONTAL), int(Orientation.VERTICAL), int(Orientation.OTHER)


def _labeling(ids, orients):
    return SegmentLabeling(plane_ids=ids, orientations=orients)


class TestClassificationAccuracy:
    def test_identical(self):
        lab = _labeling([0, 0, 1, -1], [H, H, V, O])
        assert classification_accuracy(lab, lab) == 1.0

    def test_three_of_four(self):
        pred = _labeling([0, 0, 1, -1], [H, H, V, O])
        truth = _labeling([0, 0, 1, -1], [H, H, V, V])
        assert classification_accuracy(pred, truth) == 0.75

    def test_all_other_baseline(self):
        truth_orients = [O] * 60 + [H] * 40
        truth = _labeling([-1] * 60 + [0] * 40, truth_orients)
        pred = SegmentLabeling.all_other(100)
        assert classification_accuracy(pred, truth) == 0.60

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            classification_accuracy(SegmentLabeling.all_other(3), SegmentLabeling.all_other(4))


class TestHungarianMatch:
    def test_two_by_two(self):
        rows, cols, total = hungarian_match(np.array([[5, 1], [2, 6]]))
        assert total == 11
        assert dict(zip(rows.tolist(), cols.tolist())) == {0: 0, 1: 1}

    def test_identity_diagonal(self):
        m = np.diag([3, 7, 2, 9])
        rows, cols, total = hungarian_match(m)
        np.testing.assert_array_equal(rows, cols)
        assert total == 21

    def test_matches_exhaustive_oracle(self, rng):
        # tall, wide, 1xN, Mx1 and square, then random shapes; each with
        # random, all-zero and tied (two distinct values) entries
        shapes = [(6, 3), (3, 6), (1, 5), (5, 1), (4, 4)] + [tuple(rng.integers(1, 7, size=2)) for _ in range(60)]
        for shape in shapes:
            for m in (rng.integers(0, 30, size=shape), np.zeros(shape, dtype=np.int64),
                      rng.integers(0, 2, size=shape) * 4):
                rows, cols, total = hungarian_match(m)
                assert rows.dtype == cols.dtype == np.int64
                assert len(rows) == len(cols) == min(shape)
                assert np.all(np.diff(rows) > 0) and len(set(cols.tolist())) == len(cols)
                assert total == int(m[rows, cols].sum()) == exhaustive_assignment_max(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hungarian_match(np.array([[1, -1], [0, 2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        # scipy's own check would name the sparse matrix, not the overlaps
        with pytest.raises(ValueError, match="overlap counts must be finite"):
            hungarian_match(np.array([[1.0, bad], [0.0, 2.0]]))

    def test_empty(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            rows, cols, total = hungarian_match(np.empty(shape))
            assert total == 0 and rows.shape == cols.shape == (0,)


class TestSegmentationAccuracy:
    def test_identical(self):
        lab = _labeling([0, 0, 1, 1, -1], [H, H, V, V, O])
        assert segmentation_accuracy(lab, lab) == 1.0

    def test_merged_planes_lose_smaller(self):
        # truth: three planes of 50/30/20 points; prediction fuses the first two
        truth = _labeling([0] * 50 + [1] * 30 + [2] * 20, [H] * 50 + [V] * 30 + [H] * 20)
        pred = _labeling([0] * 80 + [1] * 20, [H] * 80 + [H] * 20)
        assert segmentation_accuracy(pred, truth) == pytest.approx(0.70)

    def test_other_pseudo_segment(self):
        truth = _labeling([0] * 4 + [-1] * 6, [H] * 4 + [O] * 6)
        pred = _labeling([3] * 4 + [-1] * 6, [V] * 4 + [O] * 6)
        assert segmentation_accuracy(pred, truth) == 1.0

    def test_id_renaming_invariance(self, rng):
        n = 200
        pred_ids = rng.integers(-1, 4, size=n).astype(np.int32)
        truth_ids = rng.integers(-1, 4, size=n).astype(np.int32)
        pred = _labeling(pred_ids, np.where(pred_ids < 0, O, H))
        truth = _labeling(truth_ids, np.where(truth_ids < 0, O, V))
        base = segmentation_accuracy(pred, truth)
        remap = {0: 7, 1: 3, 2: 11, 3: 5, -1: -1}
        renamed = _labeling(np.vectorize(remap.get)(pred_ids), pred.orientations)
        assert segmentation_accuracy(renamed, truth) == base

    def test_classification_invariant_under_orientation_preserving_split(self):
        truth = _labeling([0] * 10, [H] * 10)
        pred_joined = _labeling([0] * 10, [H] * 10)
        pred_split = _labeling([0] * 5 + [1] * 5, [H] * 10)
        assert classification_accuracy(pred_split, truth) == classification_accuracy(pred_joined, truth)

    def test_bounds(self, rng):
        for _ in range(20):
            n = 50
            pred_ids = rng.integers(-1, 3, size=n).astype(np.int32)
            truth_ids = rng.integers(-1, 3, size=n).astype(np.int32)
            pred = _labeling(pred_ids, np.where(pred_ids < 0, O, H))
            truth = _labeling(truth_ids, np.where(truth_ids < 0, O, H))
            sa = segmentation_accuracy(pred, truth)
            ca = classification_accuracy(pred, truth)
            assert 0.0 <= sa <= 1.0
            assert 0.0 <= ca <= 1.0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            segmentation_accuracy(SegmentLabeling.all_other(3), SegmentLabeling.all_other(4))


@pytest.mark.parametrize("scorer", [classification_accuracy, segmentation_accuracy])
@pytest.mark.parametrize("bad_side", ["predicted", "truth", "both"])
def test_scorers_reject_class_codes_outside_hvo(scorer, bad_side):
    # Both scorers raise the labeling table's error, whichever side holds the
    # code; a labeling scored against itself is no exception.
    bad, good = _labeling([0, 0], [5, 5]), _labeling([0, 0], [H, H])
    pred, truth = {"predicted": (bad, good), "truth": (good, bad), "both": (bad, bad)}[bad_side]
    with pytest.raises(ValueError, match="^5 is not a valid Orientation$"):
        scorer(pred, truth)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_overlap_matrix_matches_unique_oracle(data):
    """The same counts and ids as np.unique segment ids with searchsorted
    codes, on every pairing of id layouts, and the score that follows."""
    pred = data.draw(id_layout_labelings(), label="pred")
    truth = data.draw(id_layout_labelings(size=len(pred)), label="truth")
    got, expected = overlap_matrix(pred, truth), reference_overlap_matrix(pred, truth)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if len(pred):
        both_other = np.count_nonzero((pred.plane_ids < 0) & (truth.plane_ids < 0))
        matched = hungarian_match(expected[0])[2]
        assert segmentation_accuracy(pred, truth) == (matched + both_other) / len(pred)
