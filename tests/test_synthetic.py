"""Synthetic scene generator tests."""

import numpy as np
import pytest

from planeops import InvalidSpec, Orientation, gen_synthetic, make_box_room, random_scene


class TestGenSynthetic:
    def test_box_room_counts(self):
        points, truth = make_box_room(size=2.0, points_per_face=500, clutter=100, seed=1)
        assert points.shape == (3100, 3)
        assert truth.segment_ids().size == 6
        for pid in range(6):
            assert (truth.plane_ids == pid).sum() == 500
        assert (truth.plane_ids == -1).sum() == 100
        truth.validate()

    def test_orientations(self):
        _, truth = make_box_room(size=2.0, points_per_face=100, clutter=0, seed=1)
        orients = [int(truth.orientations[truth.plane_ids == pid][0]) for pid in range(6)]
        assert orients.count(int(Orientation.HORIZONTAL)) == 2
        assert orients.count(int(Orientation.VERTICAL)) == 4

    def test_zero_noise_exact_plane(self):
        scene = {"rects": [{"corner": [0, 0, 1], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "count": 200}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.0, seed=3)
        assert np.abs(points[:, 2] - 1.0).max() == 0.0

    def test_clutter_only(self):
        scene = {"clutter": 150, "clutter_bounds": [[0, 0, 0], [1, 1, 1]]}
        points, truth = gen_synthetic(scene, seed=2)
        assert points.shape == (150, 3)
        assert (truth.plane_ids == -1).all()
        assert (truth.orientations == int(Orientation.OTHER)).all()

    def test_deterministic(self):
        a, _ = make_box_room(seed=9)
        b, _ = make_box_room(seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            gen_synthetic({})
        with pytest.raises(InvalidSpec):
            gen_synthetic({"clutter": 10})  # no bounds derivable
        with pytest.raises(InvalidSpec):
            gen_synthetic({"rects": [{"corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [2, 0, 0], "count": 5}]})
        with pytest.raises(InvalidSpec):
            gen_synthetic({"rects": [{"corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "count": 0}]})
        with pytest.raises(InvalidSpec):
            gen_synthetic({"rects": [{"corner": [0, 0, 0]}]})

    def test_counts_must_be_integral(self):
        rect = {"corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "count": 5}
        box = [[0, 0, 0], [1, 1, 1]]
        points, _ = gen_synthetic({"rects": [{**rect, "count": 5.0}], "clutter": np.int64(3), "clutter_bounds": box})
        assert points.shape == (8, 3)  # integral floats and numpy integers are counts
        for bad in (2.7, True, "5", float("inf"), float("nan"), None):
            with pytest.raises(InvalidSpec):
                gen_synthetic({"rects": [{**rect, "count": bad}]})
            with pytest.raises(InvalidSpec):
                gen_synthetic({"rects": [rect], "clutter": bad, "clutter_bounds": box})


class TestRandomScene:
    def test_structure(self, rng):
        scene = random_scene(5, rng)
        assert len(scene["rects"]) == 5
        points, truth = gen_synthetic(scene, noise_sigma=0.004, seed=4)
        assert truth.segment_ids().size == 5
        assert points.shape[0] == sum(r["count"] for r in scene["rects"]) + scene["clutter"]

    def test_invalid_count(self, rng):
        with pytest.raises(InvalidSpec):
            random_scene(0, rng)
