"""End-to-end run and benchmark harness tests."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeops import (
    FspfParams,
    OpsParams,
    Orientation,
    PlaneModel,
    RunConfig,
    SegmentLabeling,
    classification_accuracy,
    gen_synthetic,
    save_labeled,
    save_labeling,
    segmentation_accuracy,
)
from helpers import reference_assign_to_planes
from planeops import pipeline
from planeops.pipeline import assign_to_planes, bench_table, labeling_from_inliers, run_bench, run_detect


def _small_scene(seed=0):
    scene = {
        "rects": [
            {"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 900},
            {"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 0, 2], "count": 900},
        ],
        "clutter": 100,
    }
    return gen_synthetic(scene, noise_sigma=0.004, seed=seed)


def _ops_config(seed=0):
    return RunConfig(detector="ops", ops=OpsParams(sampling_rate=0.08, k=10), seed=seed)


def _fspf_config(seed=0):
    return RunConfig(detector="fspf", fspf=FspfParams(r1=0.07, r2=0.14), seed=seed)


class TestRunDetect:
    def test_ops_report_contents(self):
        points, truth = _small_scene()
        report = run_detect(points, _ops_config())
        assert report.detector == "ops"
        assert report.n_points == points.shape[0]
        assert report.post_merge_count <= report.pre_merge_count
        assert len(report.labeling) == points.shape[0]
        assert all(v >= 0.0 for v in report.timings_ms.values())
        assert report.post_merge_count == 2
        assert classification_accuracy(report.labeling, truth) > 0.9
        d = report.to_dict()
        json.dumps(d)  # schema must be serializable
        assert {"detector", "n_points", "pre_merge_count", "post_merge_count",
                "planes", "timings_ms", "params"} <= set(d)
        assert {"id", "centroid", "normal", "inlier_count", "orientation"} <= set(d["planes"][0])

    def test_fspf_labels_whole_cloud(self):
        points, truth = _small_scene()
        report = run_detect(points, _fspf_config())
        # recorded inliers are sparse draws, but labeling covers the planes
        coverage = np.mean(report.labeling.plane_ids >= 0)
        assert coverage > 0.8
        assert segmentation_accuracy(report.labeling, truth) > 0.8

    @pytest.mark.parametrize("config", [_ops_config(), _fspf_config()], ids=["ops", "fspf"])
    def test_stage_timings_add_up(self, config):
        points, _ = _small_scene()
        timings = run_detect(points, config).timings_ms
        stages = ("index", "sampling", "normals", "detection", "merging", "labeling")
        assert set(timings) == {*stages, "total"}
        assert all(timings[k] >= 0.0 for k in timings)
        # The stages are disjoint parts of the call; the slack covers the
        # rounding of the millisecond conversion.
        assert sum(timings[k] for k in stages) <= timings["total"] * (1.0 + 1e-9)
        assert timings["index"] > 0.0 and timings["labeling"] > 0.0
        if config.detector == "fspf":
            assert timings["sampling"] == 0.0 and timings["normals"] == 0.0

    def test_deterministic_modulo_timings(self):
        points, _ = _small_scene()
        for config in (_ops_config(seed=5), _fspf_config(seed=5)):
            a = run_detect(points, config).to_dict()
            b = run_detect(points, config).to_dict()
            a.pop("timings_ms")
            b.pop("timings_ms")
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_collinear_cloud_finds_nothing(self):
        # every sample's neighbourhood is a line, so no sample gets a normal
        points = np.column_stack([np.linspace(0.0, 2.0, 200), np.zeros(200), np.zeros(200)])
        report = run_detect(points, _ops_config())
        assert report.pre_merge_count == report.post_merge_count == 0
        assert report.planes == []
        assert (report.labeling.plane_ids == -1).all()
        assert (report.labeling.orientations == int(Orientation.OTHER)).all()

    def test_up_axis_drives_grouping_and_labels(self):
        # a 3000-point wall (y = 0) meeting a 1000-point floor (z = 0): the
        # group detected first, horizontal under the run's up axis, claims
        # the strip where the two planes meet
        scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 0, 2], "count": 3000},
                           {"corner": [0, 0.2, 0], "edge_u": [2, 0, 0], "edge_v": [0, 1, 0], "count": 1000}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=4)
        ops = OpsParams(sampling_rate=0.05, k=10)
        for up, first in (((0.0, 0.0, 1.0), 2), ((0.0, 1.0, 0.0), 1)):
            report = run_detect(points, RunConfig(ops=ops, up=up))
            by_axis = {int(np.argmax(np.abs(p.normal))): p for p in report.planes}
            assert sorted(by_axis) == [1, 2]
            assert by_axis[first].orientation == "horizontal"
            assert by_axis[3 - first].orientation == "vertical"
            assert by_axis[first].inlier_count >= {1: 3000, 2: 1001}[first]

    def test_labeling_matches_plane_summaries(self):
        points, _ = _small_scene()
        report = run_detect(points, _ops_config())
        for plane in report.planes:
            members = report.labeling.plane_ids == plane.id
            assert members.sum() == plane.inlier_count


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(detector="fspf", fspf=FspfParams(r1=0.1, r2=0.2), seed=3, name="x")
        again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again.detector == "fspf"
        assert again.fspf.r1 == 0.1
        assert again.seed == 3
        assert again.name == "x"

    def test_params_echo_only_read_fields(self):
        d = RunConfig(detector="ops").to_dict()
        assert set(d) == {"detector", "seed", "name", "up", "orientation_tol_degrees", "ops", "merge"}
        assert set(d["ops"]) == {"sampling_rate", "k", "probability", "dist_threshold", "min_inliers",
                                 "grouping", "sigma"}
        assert "seed" not in RunConfig(detector="fspf").to_dict()["fspf"]

    def test_bad_detector(self):
        with pytest.raises(ValueError):
            RunConfig(detector="voxels")


class TestAssignToPlanes:
    def test_nearest_plane_wins(self):
        points = np.array([[0, 0, 0.01], [0, 0, 0.96], [0, 0, 10.0]])
        planes = [
            PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1)),
            PlaneModel(centroid=(0, 0, 1), normal=(0, 0, 1)),
        ]
        labeling = assign_to_planes(points, planes, dist_threshold=0.1)
        assert labeling.plane_ids.tolist() == [0, 1, -1]

    def test_no_planes(self):
        labeling = assign_to_planes(np.zeros((4, 3)), [], 0.05)
        assert (labeling.plane_ids == -1).all()

    def test_blocks_match_loop_reference(self, rng):
        points = rng.uniform(-2, 2, size=(1000, 3))
        planes = [PlaneModel(centroid=rng.uniform(-1, 1, 3), normal=n / np.linalg.norm(n))
                  for n in rng.normal(size=(7, 3))]
        want = reference_assign_to_planes(points, planes, 0.3)
        for block in (1, 97, 1000, 8192):
            with mock.patch.object(pipeline, "ASSIGN_BLOCK", block):
                np.testing.assert_array_equal(assign_to_planes(points, planes, 0.3).plane_ids, want)


GRID = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(2)], dtype=float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    planes=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                              st.sampled_from([-1.0, 0.0, 2.5])), min_size=1, max_size=6),
    threshold=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
    block=st.sampled_from([4, 8192]),
)
def test_assign_matches_loop_reference_on_grid(planes, threshold, block):
    """Grid points and axis planes at half-integer heights: equal distances
    and distances exactly at the threshold are common. The strict threshold
    and the earlier plane winning a tie must hold as in the per-plane loop."""
    models = [PlaneModel(centroid=np.eye(3)[axis] * height + np.eye(3)[(axis + 1) % 3] * slide,
                         normal=np.eye(3)[axis]) for axis, height, slide in planes]
    with mock.patch.object(pipeline, "ASSIGN_BLOCK", block):
        labeling = assign_to_planes(GRID, models, threshold)
    want = reference_assign_to_planes(GRID, models, threshold)
    np.testing.assert_array_equal(labeling.plane_ids, want)
    labeling.validate()


def test_labeling_from_inliers_orientations():
    # horizontal, vertical and tilted planes; points 0 and 6 belong to none
    planes = [
        PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1), inliers=[4, 5]),
        PlaneModel(centroid=(0, 0, 0), normal=(1, 0, 0), inliers=[1, 2]),
        PlaneModel(centroid=(0, 0, 0), normal=(0, 0.6, 0.8), inliers=[3]),
    ]
    labeling = labeling_from_inliers(7, planes)
    assert labeling.plane_ids.tolist() == [-1, 1, 1, 2, 0, 0, -1]
    H, V, O = (int(o) for o in Orientation)
    assert labeling.orientations.tolist() == [O, V, V, O, H, H, O]
    assert labeling_from_inliers(3, []).orientations.tolist() == [O, O, O]


class TestRunBench:
    @pytest.fixture
    def dataset(self, tmp_path):
        paths = []
        for seed in (1, 2):
            points, truth = _small_scene(seed=seed)
            cloud = tmp_path / f"scene{seed}.ply"
            save_labeled(points, SegmentLabeling.all_other(points.shape[0]), cloud, sidecar=False)
            save_labeling(truth, tmp_path / f"scene{seed}.labels.txt")
            paths.append(cloud)
        return tmp_path

    def test_single_config_rows(self, dataset):
        rows = run_bench(dataset, [_ops_config()])
        assert len(rows) == 1
        assert rows[0].n_clouds == 2
        assert 0.0 <= rows[0].mean_segmentation <= 1.0
        assert bench_table(rows)

    def test_aggregates_are_arithmetic_means(self, dataset):
        from planeops import load_cloud, load_labeling

        config = _ops_config()
        rows = run_bench(dataset, [config])
        accs = []
        for seed in (1, 2):
            points = load_cloud(dataset / f"scene{seed}.ply")
            truth = load_labeling(dataset / f"scene{seed}.labels.txt")
            report = run_detect(points, config)
            accs.append(segmentation_accuracy(report.labeling, truth))
        assert rows[0].mean_segmentation == pytest.approx(np.mean(accs), abs=1e-12)

    def test_unreadable_cloud_skipped(self, dataset):
        (dataset / "junk.ply").write_bytes(b"ply\nformat ascii 1.0\nelement vertex 10\nproperty float x\n")
        rows = run_bench(dataset, [_ops_config()])
        assert rows[0].n_clouds == 2
        assert rows[0].n_skipped == 1

    def test_programming_error_propagates(self, dataset, monkeypatch):
        """Only load, parse and size errors count as unreadable clouds."""
        def broken(points, config):
            raise IndexError("bug")

        monkeypatch.setattr("planeops.pipeline.run_detect", broken)
        with pytest.raises(IndexError):
            run_bench(dataset, [_ops_config()])

    def test_empty_directory_fails(self, tmp_path):
        with pytest.raises(ValueError):
            run_bench(tmp_path, [_ops_config()])

    def test_generate_gt_on_the_fly(self, tmp_path):
        points, _ = _small_scene(seed=3)
        cloud = tmp_path / "scene.ply"
        save_labeled(points, SegmentLabeling.all_other(points.shape[0]), cloud, sidecar=False)
        rows = run_bench(tmp_path, [_ops_config()], generate_gt=True)
        assert rows[0].n_clouds == 1
        assert rows[0].mean_segmentation > 0.5
