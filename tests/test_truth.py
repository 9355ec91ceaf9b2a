"""Region-growing ground truth tests."""

import numpy as np
import pytest

from planeops import GtParams, KdTree, Orientation, SegmentLabeling, gen_synthetic, generate_ground_truth


class TestSegmentLabeling:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SegmentLabeling(plane_ids=[0, 1], orientations=[0])

    def test_validate_catches_unlabeled_other(self):
        lab = SegmentLabeling(plane_ids=[-1], orientations=[int(Orientation.HORIZONTAL)])
        with pytest.raises(ValueError):
            lab.validate()

    def test_validate_catches_mixed_segment(self):
        lab = SegmentLabeling(plane_ids=[0, 0], orientations=[0, 1])
        with pytest.raises(ValueError):
            lab.validate()

    def test_all_other(self):
        lab = SegmentLabeling.all_other(5)
        lab.validate()
        assert lab.segment_ids().size == 0


class TestGenerateGroundTruth:
    def test_box_room_segments(self, clean_room):
        points, truth = clean_room
        labeling = generate_ground_truth(points, GtParams())
        labeling.validate()
        ids = labeling.segment_ids()
        assert ids.size == 6
        orient_count = {Orientation.HORIZONTAL: 0, Orientation.VERTICAL: 0, Orientation.OTHER: 0}
        for pid in ids:
            members = labeling.plane_ids == pid
            orient = Orientation(int(labeling.orientations[members][0]))
            orient_count[orient] += 1
            overlap = truth.plane_ids[members]
            vals, counts = np.unique(overlap, return_counts=True)
            assert counts.max() / members.sum() >= 0.99
        assert orient_count[Orientation.HORIZONTAL] == 2
        assert orient_count[Orientation.VERTICAL] == 4

    def test_pure_noise_mostly_other(self):
        rng = np.random.default_rng(42)
        points = rng.uniform(0, 2, size=(1500, 3))
        labeling = generate_ground_truth(points, GtParams())
        assert np.mean(labeling.plane_ids < 0) >= 0.90

    def test_size_gate(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 1, size=(49, 2))
        points = np.column_stack([xy, np.zeros(49)])
        labeling = generate_ground_truth(points, GtParams(min_plane_size=50))
        assert (labeling.plane_ids == -1).all()
        assert (labeling.orientations == int(Orientation.OTHER)).all()

    def test_two_separated_planes(self):
        scene = {
            "rects": [
                {"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 800},
                {"corner": [0, 0, 1.5], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 800},
            ]
        }
        points, _ = gen_synthetic(scene, noise_sigma=0.004, seed=7)
        labeling = generate_ground_truth(points, GtParams())
        assert labeling.segment_ids().size == 2
        assert (labeling.orientations[labeling.plane_ids >= 0] == int(Orientation.HORIZONTAL)).all()

    def test_one_knn_query(self, clean_room, monkeypatch):
        """Normals and the region-growing adjacency share one batched k-NN query."""
        calls = []
        original = KdTree.knn

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KdTree, "knn", counting)
        generate_ground_truth(clean_room[0], GtParams())
        assert len(calls) == 1
