"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <id>: PASS/FAIL` line (visible with
`pytest -s` or in the captured output). Tolerances are stated inline and not
adjusted at run time.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from helpers import brute_force_knn, brute_force_radius, coplanar_pairs, exhaustive_assignment_max, random_plane_soup
from planeops import (
    FspfParams,
    GtParams,
    KdTree,
    MergeParams,
    OpsParams,
    Orientation,
    RunConfig,
    adaptive_iterations,
    classification_accuracy,
    estimate_normals,
    gen_synthetic,
    generate_ground_truth,
    hungarian_match,
    make_box_room,
    merge_all,
    random_scene,
    save_labeled,
    save_labeling,
    segmentation_accuracy,
)
from planeops.metrics import overlap_matrix
from planeops.pipeline import run_detect

ROOM_SIZE = 3.5
ROOM_FACE_NORMALS = np.array([
    [0, 0, 1], [0, 0, 1],  # floor, ceiling
    [1, 0, 0], [1, 0, 0],  # x walls
    [0, 1, 0], [0, 1, 0],  # y walls
], dtype=float)

# One preset per detector plus one shared merge setting, used for every
# end-to-end criterion. The merge gate is looser than the package default:
# the local detector's refits carry a couple of degrees of normal noise at
# desk-scene densities, and both methods must be merged identically for the
# comparisons to mean anything.
OPS_PRESET = OpsParams(sampling_rate=0.05, k=10, dist_threshold=0.05, probability=0.99, min_inliers=20)
MERGE_PRESET = MergeParams(angle_degrees=10.0, offset=0.075)


def fspf_preset(n_points: int) -> FspfParams:
    # full inlier-point budget so local acceptances cover every surface
    return FspfParams(r1=0.07, r2=0.14, local_samples=80, min_inlier_fraction=0.8,
                      dist_threshold=0.05, max_inlier_points=n_points)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_01_spatial_index_oracle():
    with criterion("01 spatial-index-vs-brute-force"):
        rng = np.random.default_rng(101)
        pts = rng.uniform(0, 1, size=(1000, 3))
        own = rng.choice(1000, size=100, replace=False)
        centres = rng.uniform(0, 1, size=(100, 3))
        start = time.perf_counter()
        tree = KdTree(pts)
        for k in (1, 10, 30):
            d, i = tree.knn(own, k)
            for row, index in enumerate(own):
                bd, bi = brute_force_knn(pts, index, k)
                assert np.array_equal(i[row], bi) and np.array_equal(d[row], bd)
        for r in (0.05, 0.1, 0.3):
            for row, centre in zip(tree.radius_search(centres, r), centres):
                ball = brute_force_radius(pts, centre, r)
                assert np.array_equal(row[:ball.size], ball) and (row[ball.size:] == -1).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"oracle comparison took {elapsed:.2f}s"


def test_02_hungarian_oracle():
    with criterion("02 assignment-vs-exhaustive-permutations"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            shape = tuple(rng.integers(1, 8, size=2))
            m = rng.integers(0, 50, size=shape)
            _, _, total = hungarian_match(m)
            assert total == exhaustive_assignment_max(m)


def test_03_normal_estimation_accuracy():
    with criterion("03 normal-estimation"):
        rng = np.random.default_rng(303)
        # noise-free analytic plane, every normal within 1e-6 rad
        xy = rng.uniform(-2, 2, size=(10000, 2))
        plane = np.column_stack([xy, 0.4 * xy[:, 0] + 0.1 * xy[:, 1] - 0.7])
        kd = KdTree(plane)
        normals, _, valid = estimate_normals(plane, kd, np.arange(10000), k=10)
        assert valid.all()
        truth = np.array([0.4, 0.1, -1.0])
        truth /= np.linalg.norm(truth)
        angles = np.arccos(np.clip(np.abs(normals @ truth), 0, 1))
        assert angles.max() < 1e-6, f"max angular error {angles.max():.2e} rad"

        # unit sphere, median radial error under 5 degrees
        v = rng.normal(size=(2000, 3))
        sphere = v / np.linalg.norm(v, axis=1, keepdims=True)
        kd = KdTree(sphere)
        normals, _, valid = estimate_normals(sphere, kd, np.arange(2000), k=10)
        assert valid.all()
        radial = np.degrees(np.arccos(np.clip(np.abs(np.sum(normals * sphere, axis=1)), 0, 1)))
        assert np.median(radial) < 5.0, f"median sphere error {np.median(radial):.2f} deg"


def test_04_adaptive_iteration_formula():
    with criterion("04 adaptive-iterations"):
        assert adaptive_iterations(0.99, 0.5) == 7
        assert adaptive_iterations(0.99, 0.0) == 1
        grid = [round(0.1 * i, 1) for i in range(10)]
        values = [adaptive_iterations(0.99, e) for e in grid]
        assert values == sorted(values), "not monotone in outlier fraction"
        for e, v in zip(grid, values):
            expected = 1 if e == 0.0 else math.ceil(math.log(1 - 0.99) / math.log(e))
            assert v == expected, f"e={e}: {v} != closed form {expected}"


def _room_ops_run(seed: int):
    points, truth = make_box_room(size=ROOM_SIZE, points_per_face=1000, clutter=600,
                                  noise_sigma=0.005, seed=seed)
    config = RunConfig(detector="ops", ops=OPS_PRESET, merge=MERGE_PRESET, seed=seed)
    report = run_detect(points, config)
    return points, truth, report


def _matched_face_angles(report, truth):
    """Angle (degrees) between each matched plane normal and its truth face."""
    overlap, pred_ids, truth_ids = overlap_matrix(report.labeling, truth)
    rows, cols, _ = hungarian_match(overlap)
    angles = {}
    for r, c in zip(rows.tolist(), cols.tolist()):
        normal = np.asarray(report.planes[int(pred_ids[r])].normal)
        face = ROOM_FACE_NORMALS[int(truth_ids[c])]
        angles[int(pred_ids[r])] = float(np.degrees(np.arccos(np.clip(abs(normal @ face), 0, 1))))
    return angles


def test_05_synthetic_room_ops_end_to_end():
    with criterion("05 room-ops-end-to-end (10 seeds, >=9 pass)"):
        passes = 0
        failures = []
        for seed in range(10):
            points, truth, report = _room_ops_run(seed)
            checks = {
                "six planes": report.post_merge_count == 6,
                "runtime": report.timings_ms["total"] < 500.0,
                "segmentation": segmentation_accuracy(report.labeling, truth) >= 0.95,
                "classification": classification_accuracy(report.labeling, truth) >= 0.97,
            }
            if report.post_merge_count == 6:
                angles = _matched_face_angles(report, truth)
                checks["normals within 2 deg"] = len(angles) == 6 and max(angles.values()) <= 2.0
            else:
                checks["normals within 2 deg"] = False
            if all(checks.values()):
                passes += 1
            else:
                failures.append((seed, [k for k, ok in checks.items() if not ok]))
        assert passes >= 9, f"only {passes}/10 seeds passed; failures: {failures}"


def test_06_synthetic_room_fspf():
    with criterion("06 room-fspf (seg >= 0.85, pre-merge count > ops)"):
        points, truth = make_box_room(size=ROOM_SIZE, points_per_face=1000, clutter=600,
                                      noise_sigma=0.005, seed=0)
        fspf_config = RunConfig(detector="fspf", fspf=fspf_preset(points.shape[0]),
                                merge=MERGE_PRESET, seed=0)
        fspf_report = run_detect(points, fspf_config)
        ops_report = run_detect(points, RunConfig(detector="ops", ops=OPS_PRESET,
                                                  merge=MERGE_PRESET, seed=0))
        seg = segmentation_accuracy(fspf_report.labeling, truth)
        assert seg >= 0.85, f"fspf segmentation accuracy {seg:.3f}"
        assert fspf_report.pre_merge_count > ops_report.pre_merge_count, (
            f"fspf pre-merge {fspf_report.pre_merge_count} not above ops {ops_report.pre_merge_count}"
        )


def _ordering_scores(run_seed_offset: int):
    """OPS and FSPF seg on each of test 07's 20 scenes, with run seed i + offset for scene i."""
    ops_scores = []
    fspf_scores = []
    for i in range(20):
        rng = np.random.default_rng(700 + i)
        scene = random_scene(int(rng.integers(3, 9)), rng)
        points, truth = gen_synthetic(scene, noise_sigma=0.004, seed=700 + i)
        seed = i + run_seed_offset
        ops_report = run_detect(points, RunConfig(detector="ops", ops=OPS_PRESET, merge=MERGE_PRESET, seed=seed))
        fspf_report = run_detect(points, RunConfig(detector="fspf", fspf=fspf_preset(points.shape[0]),
                                                   merge=MERGE_PRESET, seed=seed))
        ops_scores.append(segmentation_accuracy(ops_report.labeling, truth))
        fspf_scores.append(segmentation_accuracy(fspf_report.labeling, truth))
    return np.array(ops_scores), np.array(fspf_scores)


def test_07_method_ordering_at_desk_scale():
    with criterion("07 ops-vs-fspf ordering over 20 scenes"):
        ops_scores, fspf_scores = _ordering_scores(0)
        mean_ops = float(np.mean(ops_scores))
        mean_fspf = float(np.mean(fspf_scores))
        assert mean_ops >= mean_fspf, f"ops {mean_ops:.3f} < fspf {mean_fspf:.3f}"


def test_16_method_ordering_over_run_seeds():
    with criterion("16 ops-vs-fspf ordering over 20 scenes x 4 run-seed offsets (mean, >= 40 of 80 wins)"):
        # The paper's ordering must not hinge on one set of run seeds.
        offsets = (0, 1000, 2000, 3000)
        ops_scores, fspf_scores = map(np.concatenate, zip(*(_ordering_scores(offset) for offset in offsets)))
        wins = int(np.count_nonzero(ops_scores > fspf_scores))
        per_offset = [f"+{offset}: ops {o.mean():.4f} fspf {f.mean():.4f}"
                      for offset, o, f in zip(offsets, np.split(ops_scores, 4), np.split(fspf_scores, 4))]
        detail = f"ops wins {wins} of 80; " + "; ".join(per_offset)
        assert float(ops_scores.mean()) >= float(fspf_scores.mean()), detail
        assert wins >= 40, detail


def test_08_determinism(tmp_path):
    with criterion("08 determinism (same config+seed => identical bytes)"):
        points, _ = make_box_room(size=ROOM_SIZE, points_per_face=600, clutter=200,
                                  noise_sigma=0.005, seed=0)
        for config in (
            RunConfig(detector="ops", ops=OPS_PRESET, merge=MERGE_PRESET, seed=42),
            RunConfig(detector="fspf", fspf=fspf_preset(points.shape[0]), merge=MERGE_PRESET, seed=42),
        ):
            dicts = []
            files = []
            for run in (0, 1):
                report = run_detect(points, config)
                d = report.to_dict()
                d.pop("timings_ms")
                dicts.append(json.dumps(d, sort_keys=True))
                ply = tmp_path / f"{config.detector}_{run}.ply"
                save_labeled(points, report.labeling, ply, mode="segment")
                sidecar = tmp_path / f"{config.detector}_{run}.labels.txt"
                save_labeling(report.labeling, sidecar)
                files.append((ply.read_bytes(), sidecar.read_bytes()))
            assert dicts[0] == dicts[1]
            assert files[0] == files[1]


def test_09_merge_properties():
    with criterion("09 merge idempotence/fixpoint/conservation (100 sets)"):
        params = MergeParams()
        for trial in range(100):
            rng = np.random.default_rng(900 + trial)
            points, planes = random_plane_soup(rng, n_base=int(rng.integers(2, 6)))
            before = len(np.unique(np.concatenate([p.inliers for p in planes])))
            merged = merge_all(planes, points, params)
            # fixpoint
            assert coplanar_pairs(merged, params).size == 0
            # conservation after deduplication
            assert sum(p.inlier_count for p in merged) == before
            assert len(merged) <= len(planes)
            # idempotence
            again = merge_all(merged, points, params)
            assert len(again) == len(merged)
            for x, y in zip(again, merged):
                assert np.array_equal(x.inliers, y.inliers)


def test_10_ground_truth_generator_sanity(clean_room):
    with criterion("10 smoothness-graph ground truth on the room"):
        points, truth = clean_room
        labeling = generate_ground_truth(points, GtParams())
        ids = labeling.segment_ids()
        assert ids.size == 6, f"expected 6 segments, got {ids.size}"
        orient_counts = {Orientation.HORIZONTAL: 0, Orientation.VERTICAL: 0}
        for pid in ids:
            members = labeling.plane_ids == pid
            vals, counts = np.unique(truth.plane_ids[members], return_counts=True)
            purity = counts.max() / members.sum()
            assert purity >= 0.99, f"segment {pid} purity {purity:.4f}"
            orient = Orientation(int(labeling.orientations[members][0]))
            orient_counts[orient] = orient_counts.get(orient, 0) + 1
        assert orient_counts[Orientation.HORIZONTAL] == 2
        assert orient_counts[Orientation.VERTICAL] == 4


def test_13_fspf_segmentation_at_paper_scale():
    with criterion("13 fspf seg at 6.5k / 65k / 325k points (>= 0.85 / 0.9 / 0.9)"):
        # default parameters, with an inlier budget of the whole cloud
        failures = []
        for points_per_face, seeds, bound in ((1000, range(3), 0.85), (10000, range(3), 0.9),
                                              (50000, range(2), 0.9)):
            for seed in seeds:
                points, truth = make_box_room(size=ROOM_SIZE, points_per_face=points_per_face,
                                              clutter=points_per_face // 2, noise_sigma=0.005, seed=seed)
                config = RunConfig(detector="fspf", fspf=FspfParams(max_inlier_points=points.shape[0]))
                seg = segmentation_accuracy(run_detect(points, config).labeling, truth)
                if seg < bound:
                    failures.append((points.shape[0], seed, round(seg, 3)))
        assert failures == [], f"(points, seed, seg) below the bound: {failures}"
