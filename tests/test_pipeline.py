"""End-to-end run and benchmark harness tests."""

import dataclasses
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeops import (
    FspfParams,
    GtParams,
    OpsParams,
    Orientation,
    PlaneModel,
    RunConfig,
    SegmentLabeling,
    classification_accuracy,
    detect_grouped,
    gen_synthetic,
    make_box_room,
    save_labeled,
    save_labeling,
    segmentation_accuracy,
)
from helpers import reference_claim_planes
from planeops import pipeline
from planeops.geometry import classify_orientations, fit_plane
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
        assert set(timings) == {*stages, "other", "total"}
        assert all(timings[k] >= 0.0 for k in timings)
        # The stages and the untimed rest are disjoint parts of the call and
        # cover it; the tolerance covers the rounding of the millisecond
        # conversion.
        assert sum(timings[k] for k in (*stages, "other")) == pytest.approx(timings["total"], rel=1e-9, abs=0.0)
        assert timings["other"] > 0.0
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
        # group detected first is horizontal under the run's up axis, and the
        # larger plane claims first under either, so the wall keeps the strip
        # of its points that lies in the floor's band
        scene = {"rects": [{"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 0, 2], "count": 3000},
                           {"corner": [0, 0.2, 0], "edge_u": [2, 0, 0], "edge_v": [0, 1, 0], "count": 1000}]}
        points, _ = gen_synthetic(scene, noise_sigma=0.003, seed=4)
        ops = OpsParams(sampling_rate=0.05, k=10)
        for up, first in (((0.0, 0.0, 1.0), 2), ((0.0, 1.0, 0.0), 1)):
            detected = []

            def spy(*args):
                detected.append(detect_grouped(*args))
                return detected[-1]

            with mock.patch.object(pipeline, "detect_grouped", spy):
                report = run_detect(points, RunConfig(ops=ops, up=up))
            assert int(np.argmax(np.abs(detected[0][0].normal))) == first
            by_axis = {int(np.argmax(np.abs(p.normal))): p for p in report.planes}
            assert sorted(by_axis) == [1, 2]
            assert by_axis[first].orientation == "horizontal"
            assert by_axis[3 - first].orientation == "vertical"
            assert (by_axis[1].inlier_count, by_axis[2].inlier_count) == (3000, 1000)

    @pytest.mark.parametrize("detector", ["ops", "fspf"])
    def test_labels_and_summaries_share_one_class_table(self, detector):
        # A rotated rule gives classes no plane gets by chance: the labels and
        # the summaries must both show exactly the one table it returned.
        points, _ = _small_scene()
        config = _ops_config() if detector == "ops" else _fspf_config()  # built unpatched: it validates through the rule
        tables = []

        def rotated(normals, up, tol_degrees):
            tables.append((classify_orientations(normals, up, tol_degrees) + 1) % 3)
            return tables[-1]

        assert pipeline.classify_orientations is classify_orientations
        with mock.patch.object(pipeline, "classify_orientations", rotated):
            report = run_detect(points, config)
        assert len(tables) == 1 and tables[0].size == report.post_merge_count > 0
        table = np.append(tables[0], np.int8(Orientation.OTHER))
        np.testing.assert_array_equal(report.labeling.orientations, table[report.labeling.plane_ids])
        assert [p.orientation for p in report.planes] == [Orientation(c).name.lower() for c in tables[0].tolist()]

    def test_labeling_matches_plane_summaries(self):
        # one meaning of inlier_count for both detectors: the points labeled
        # with the plane's id
        points, _ = _small_scene()
        for config in (_ops_config(), _fspf_config()):
            report = run_detect(points, config)
            ids = report.labeling.plane_ids
            assert [p.id for p in report.planes] == list(range(report.post_merge_count))
            assert np.bincount(ids[ids >= 0], minlength=report.post_merge_count).tolist() == [
                p.inlier_count for p in report.planes]


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
        assert set(d["ops"]) == {"sampling_rate", "k", "probability", "dist_threshold", "min_inliers"}
        assert "seed" not in RunConfig(detector="fspf").to_dict()["fspf"]

    def test_bad_detector(self):
        with pytest.raises(ValueError):
            RunConfig(detector="voxels")

    def test_readme_table_names_every_settable_field(self):
        """README's "Parameters and defaults" table has one row per settable
        field, by (stage, name): the run's own fields, each params section's,
        and gt's; 23 in all, and no field that does not exist."""
        fields = {("gt", f.name) for f in dataclasses.fields(GtParams)}
        config = RunConfig()
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                fields |= {(f.name, sub.name) for sub in dataclasses.fields(value)}
            else:
                fields.add(("run", f.name))
        assert len(fields) == 23

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n## Parameters and defaults\n", 1)[1].split("\n## ", 1)[0]
        named = set()
        for row in re.findall(r"^\| (\w+) \| (.+?) \|", table, flags=re.MULTILINE):
            named |= {(row[0], name) for name in re.findall(r"`(\w+)`", row[1])}
        assert named == fields


def _assert_same_planes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.inliers, b.inliers)
        np.testing.assert_array_equal(a.centroid, b.centroid)
        np.testing.assert_array_equal(a.normal, b.normal)


class TestAssignToPlanes:
    # a floor (z = 0) and a wall (x = 0), three points each; point 6 is 0.02
    # from the floor and 0.01 from the wall, point 7 within reach of neither
    POINTS = np.array([[1, 1, 0], [2, 1, 0], [1, 2, 0], [0, 1, 1], [0, 2, 1], [0, 1, 2],
                       [0.01, 3, 0.02], [5, 5, 5]], dtype=float)
    FLOOR = PlaneModel(centroid=(1, 1, 0), normal=(0, 0, 1), inliers=[0])
    WALL = PlaneModel(centroid=(0, 1, 1), normal=(1, 0, 0), inliers=[3])

    def test_earlier_plane_claims_shared_point(self):
        for planes, want in (([self.FLOOR, self.WALL], [[0, 1, 2, 6], [3, 4, 5]]),
                             ([self.WALL, self.FLOOR], [[3, 4, 5, 6], [0, 1, 2]])):
            claimed = assign_to_planes(self.POINTS, planes, 0.1)
            assert [p.inliers.tolist() for p in claimed] == want
            for plane in claimed:  # refit on the claimed points
                fit = fit_plane(self.POINTS[plane.inliers])
                np.testing.assert_array_equal(plane.centroid, fit.centroid)
                np.testing.assert_array_equal(plane.normal, fit.normal)
            _assert_same_planes(claimed, reference_claim_planes(self.POINTS, planes, 0.1))
        assert labeling_from_inliers(8, claimed).tolist() == [1, 1, 1, 0, 0, 0, 0, -1]

    def test_plane_claiming_nothing_is_dropped(self):
        # a copy of the floor finds its points taken; the ceiling reaches none
        copy = PlaneModel(centroid=(1, 1, 0.01), normal=(0, 0, 1))
        ceiling = PlaneModel(centroid=(1, 1, 3), normal=(0, 0, 1))
        planes = [self.FLOOR, copy, ceiling, self.WALL]
        claimed = assign_to_planes(self.POINTS, planes, 0.1)
        assert [p.inliers.tolist() for p in claimed] == [[0, 1, 2, 6], [3, 4, 5]]
        _assert_same_planes(claimed, reference_claim_planes(self.POINTS, planes, 0.1))

    def test_no_planes(self):
        assert assign_to_planes(np.zeros((4, 3)), [], 0.05) == []
        ids = labeling_from_inliers(4, [])
        assert ids.dtype == np.int32 and (ids == -1).all()

    def test_matches_loop_reference(self, rng):
        points = rng.uniform(-2, 2, size=(1000, 3))
        planes = [PlaneModel(centroid=rng.uniform(-1, 1, 3), normal=n / np.linalg.norm(n))
                  for n in rng.normal(size=(7, 3))]
        claimed = assign_to_planes(points, planes, 0.3)
        assert len(claimed) > 1
        _assert_same_planes(claimed, reference_claim_planes(points, planes, 0.3))



def test_fspf_planes_hold_at_least_three_points():
    """FSPF with the benchmark preset on a 22,750-point room: every reported
    plane claims at least 3 points, the fewest that fit a plane, and is the
    least-squares plane of the points labeled with its id."""
    points, _ = make_box_room(points_per_face=3500, clutter=1750, seed=1)
    config = RunConfig.from_dict({"detector": "fspf", "seed": 1, "fspf": {"max_inlier_points": points.shape[0]},
                                  "merge": {"angle_degrees": 10, "offset": 0.075}})
    report = run_detect(points, config)
    assert len(report.planes) > 6
    for plane in report.planes:
        members = np.flatnonzero(report.labeling.plane_ids == plane.id)
        assert plane.inlier_count == members.size >= 3
        fit = fit_plane(points[members])
        np.testing.assert_array_equal(plane.centroid, fit.centroid)
        np.testing.assert_array_equal(plane.normal, fit.normal)


GRID = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(2)], dtype=float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    planes=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                              st.sampled_from([-1.0, 0.0, 2.5])), min_size=1, max_size=6),
    threshold=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
)
def test_assign_matches_loop_reference_on_grid(planes, threshold):
    """Grid points and axis planes at half-integer heights: distances exactly
    at the threshold are common, later planes often find their points taken,
    claims of fewer than three points drop the plane and collinear claims
    keep the plane's geometry. The strict threshold, the claim order, the
    refits and the dropped planes must match the per-plane loop."""
    models = [PlaneModel(centroid=np.eye(3)[axis] * height + np.eye(3)[(axis + 1) % 3] * slide,
                         normal=np.eye(3)[axis]) for axis, height, slide in planes]
    claimed = assign_to_planes(GRID, models, threshold)
    _assert_same_planes(claimed, reference_claim_planes(GRID, models, threshold))
    ids = labeling_from_inliers(GRID.shape[0], claimed)
    SegmentLabeling.from_planes(ids, classify_orientations([m.normal for m in claimed])).validate()


def test_labeling_from_inliers_orientations():
    # horizontal, vertical and tilted planes; points 0 and 6 belong to none
    planes = [
        PlaneModel(centroid=(0, 0, 0), normal=(0, 0, 1), inliers=[4, 5]),
        PlaneModel(centroid=(0, 0, 0), normal=(1, 0, 0), inliers=[1, 2]),
        PlaneModel(centroid=(0, 0, 0), normal=(0, 0.6, 0.8), inliers=[3]),
    ]
    ids = labeling_from_inliers(7, planes)
    assert ids.tolist() == [-1, 1, 1, 2, 0, 0, -1]
    labeling = SegmentLabeling.from_planes(ids, classify_orientations([p.normal for p in planes]))
    H, V, O = (int(o) for o in Orientation)
    assert labeling.orientations.tolist() == [O, V, V, O, H, H, O]
    assert SegmentLabeling.from_planes(labeling_from_inliers(3, []), []).orientations.tolist() == [O, O, O]


class TestRunBench:
    @pytest.fixture
    def dataset(self, tmp_path):
        paths = []
        for seed in (1, 2):
            points, truth = _small_scene(seed=seed)
            cloud = tmp_path / f"scene{seed}.ply"
            save_labeled(points, SegmentLabeling.all_other(points.shape[0]), cloud)
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
        save_labeled(points, SegmentLabeling.all_other(points.shape[0]), cloud)
        rows = run_bench(tmp_path, [_ops_config()], generate_gt=True)
        assert rows[0].n_clouds == 1
        assert rows[0].mean_segmentation > 0.5
