"""End-to-end run and benchmark harness tests."""

import json

import numpy as np
import pytest

from planeops import (
    FspfParams,
    OpsParams,
    PlaneModel,
    RunConfig,
    SegmentLabeling,
    classification_accuracy,
    gen_synthetic,
    save_labeled,
    save_labeling,
    segmentation_accuracy,
)
from planeops.pipeline import assign_to_planes, bench_table, run_bench, run_detect


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

    def test_deterministic_modulo_timings(self):
        points, _ = _small_scene()
        for config in (_ops_config(seed=5), _fspf_config(seed=5)):
            a = run_detect(points, config).to_dict()
            b = run_detect(points, config).to_dict()
            a.pop("timings_ms")
            b.pop("timings_ms")
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

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
