"""CLI subcommand tests through main(); checks outputs and exit codes."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

import planeops
from helpers import run_python
from planeops import load_cloud, load_labeling
from planeops.cli import EXIT_EMPTY, EXIT_OK, EXIT_PARSE, _detect_config, build_parser, main
from planeops.pipeline import STAGES, RunConfig


@pytest.fixture
def room_files(tmp_path):
    out = tmp_path / "room.ply"
    code = main([
        "synth", "--room-size", "2.5", "--points-per-face", "400",
        "--clutter", "80", "--noise", "0.004", "--seed", "3", "--out", str(out),
    ])
    assert code == EXIT_OK
    return out, out.with_suffix(".labels.txt")


def test_synth_writes_cloud_and_truth(room_files):
    cloud_path, truth_path = room_files
    points = load_cloud(cloud_path)
    truth = load_labeling(truth_path)
    assert points.shape == (2480, 3)
    assert len(truth) == 2480
    assert truth.segment_ids().size == 6


def test_synth_from_scene_file(tmp_path):
    scene = {
        "rects": [{"corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "count": 50}],
        "noise_sigma": 0.0,
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    out = tmp_path / "cloud.ply"
    assert main(["synth", "--scene", str(scene_path), "--out", str(out)]) == EXIT_OK
    assert load_cloud(out).shape == (50, 3)


RECT = {"corner": [0, 0, 0], "edge_u": [1, 0, 0], "edge_v": [0, 1, 0], "count": 50}


def test_synth_noise_flag_wins_over_scene(tmp_path):
    # The rect lies in z = 0: only noise moves a point off it.
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps({"rects": [RECT], "noise_sigma": 0.0}))

    def z_spread(*flags):
        out = tmp_path / "cloud.ply"
        assert main(["synth", "--scene", str(scene_path), "--out", str(out), *flags]) == EXIT_OK
        return np.abs(load_cloud(out)[:, 2]).max()

    assert z_spread() == 0.0 and z_spread("--noise", "0.2") > 0.05


@pytest.mark.parametrize("scene, flags", [(scene, []) for scene in [
    [RECT],
    {"rects": 5},
    {"rects": [5]},
    {"rects": [RECT], "clutter": 10, "clutter_bounds": [[0, 0], [1, 1]]},
    {"rects": [RECT], "clutter": "many"},
    {"rects": [RECT], "clutter": -3},
    {"rects": [RECT], "noise_sigma": "x"},
    {"rects": [RECT], "noise_sigma": 1e308},
    {"rects": [RECT], "up": [0, 0, 2]},
    {"rects": [RECT], "up": "z"},
    {"rects": [RECT], "orientation_tol_degrees": 50},
    {"rects": [{**RECT, "count": 2.7}]},
    {"rects": [{**RECT, "count": True}]},
    {"rects": [{**RECT, "count": "50"}]},
    {"rects": [RECT], "clutter": 3.9, "clutter_bounds": [[0, 0, 0], [1, 1, 1]]},
    {"rects": [RECT], "clutter": True},
    {"rects": [RECT], "noise_sigma": True},
    {"rects": [RECT], "orientation_tol_degrees": True},
    {"rects": [{**RECT, "edge_u": [1e200, 0, 0], "edge_v": [0, 1e200, 0]}]},
    {"rects": [RECT], "clutter": 10, "clutter_bounds": [[0, 0, 0], [float("inf"), 1, 1]]},
]] + [({"rects": [RECT]}, ["--seed", "-1"])],
    ids=["list", "rects-number", "rect-number", "clutter-bounds-2d", "clutter-word", "clutter-negative",
         "noise-word", "noise-overflows", "up-not-unit", "up-word", "orientation-tol", "count-fraction",
         "count-bool", "count-string", "clutter-fraction", "clutter-bool", "noise-bool", "orientation-tol-bool",
         "normal-overflows", "clutter-bounds-infinite", "seed-negative"])
def test_synth_malformed_scene_exit_code(tmp_path, capsys, scene, flags):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    out = tmp_path / "o" / "cloud.ply"
    assert main(["synth", "--scene", str(scene_path), "--out", str(out), *flags]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("size", ["inf", "1e200"])
def test_synth_nonfinite_room_size_exit_code(tmp_path, capsys, size):
    out = tmp_path / "o" / "room.ply"
    assert main(["synth", "--room-size", size, "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.parent.exists()


def test_import_and_synth_do_not_load_scipy_spatial(tmp_path):
    # Only commands that build a spatial index load cKDTree's extension, and
    # only gt and scoring (eval, bench) load scipy.sparse.csgraph.
    script = (
        "import sys\n"
        "import planeops, planeops.metrics\n"
        "from planeops.cli import main\n"
        "def loaded():\n"
        "    return [name in sys.modules\n"
        "            for name in ('scipy.spatial', 'scipy.spatial._ckdtree', 'scipy.sparse.csgraph')]\n"
        "before = loaded()\n"
        "assert main(['synth', '--points-per-face', '100', '--clutter', '20', '--out', sys.argv[1]]) == 0\n"
        "print(before + loaded())\n"
    )
    assert run_python(script, tmp_path / "room.ply") == str([False] * 6)


def test_eval_loads_neither_scipy_optimize_nor_scipy_spatial(tmp_path):
    # Scoring solves its assignment on scipy.sparse.csgraph alone.
    script = (
        "import sys\n"
        "from planeops.cli import main\n"
        "assert main(['synth', '--points-per-face', '100', '--clutter', '20', '--out', sys.argv[1]]) == 0\n"
        "truth = sys.argv[1][:-len('.ply')] + '.labels.txt'\n"
        "assert main(['eval', '--pred', truth, '--truth', truth]) == 0\n"
        "print([name in sys.modules for name in ('scipy.optimize', 'scipy.spatial', 'scipy.sparse.csgraph')])\n"
    )
    assert run_python(script, tmp_path / "room.ply") == str([False, False, True])


def test_detect_loads_scipy_spatial_before_reading_its_input(tmp_path):
    # The report's clock starts at the load, so the index stage times the
    # tree build and not the import of cKDTree's extension.
    script = (
        "import sys\n"
        "from planeops import cli\n"
        "load_cloud, seen = cli.load_cloud, []\n"
        "def loading(path):\n"
        "    seen.append('scipy.spatial._ckdtree' in sys.modules)\n"
        "    return load_cloud(path)\n"
        "cli.load_cloud = loading\n"
        "assert cli.main(['synth', '--points-per-face', '400', '--clutter', '80', '--out', sys.argv[1]]) == 0\n"
        "assert cli.main(['detect', '--input', sys.argv[1], '--out', sys.argv[2],\n"
        "                 '--sampling-rate', '0.08', '--knn', '10']) == 0\n"
        "print(seen)\n"
    )
    assert run_python(script, tmp_path / "room.ply", tmp_path / "det") == str([True])


@pytest.fixture
def bench_files(tmp_path):
    """Two small rooms with their reference sidecars, and a one-config list."""
    dataset = tmp_path / "data"
    for seed in (1, 2):
        assert main(["synth", "--points-per-face", "300", "--clutter", "60", "--seed", str(seed),
                     "--out", str(dataset / f"room{seed}.ply")]) == EXIT_OK
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([{"detector": "ops", "ops": {"sampling_rate": 0.2}}]))
    return dataset, configs


def test_bench_loads_ckdtree_before_its_first_cloud(bench_files):
    # Like detect's: no cloud's index stage times the import of cKDTree's
    # extension, the first one included. The references are sidecars, so
    # nothing else builds an index before the first detection.
    dataset, configs = bench_files
    script = (
        "import sys\n"
        "from planeops import cli, pipeline\n"
        "run_detect, seen = pipeline.run_detect, []\n"
        "def detecting(points, config):\n"
        "    seen.append('scipy.spatial._ckdtree' in sys.modules)\n"
        "    return run_detect(points, config)\n"
        "pipeline.run_detect = detecting\n"
        "assert cli.main(['bench', '--dataset', sys.argv[1], '--configs', sys.argv[2]]) == 0\n"
        "print(seen)\n"
    )
    assert run_python(script, dataset, configs) == str([True, True])


@pytest.mark.parametrize("command", ["detect", "gt", "bench"])
def test_index_commands_load_ckdtree_without_scipy_spatial(bench_files, tmp_path, command):
    # A fresh process loads cKDTree's extension by its file, and with it
    # neither scipy.spatial's package init nor scipy.special.
    dataset, configs = bench_files
    cloud = str(dataset / "room1.ply")
    argv = {"detect": ["detect", "--input", cloud, "--out", str(tmp_path / "det"), "--sampling-rate", "0.2"],
            "gt": ["gt", "--input", cloud, "--out", str(tmp_path / "gt.labels.txt")],
            "bench": ["bench", "--dataset", str(dataset), "--configs", str(configs)]}[command]
    script = (
        "import json, sys\n"
        "from planeops.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print([name in sys.modules for name in ('scipy.spatial._ckdtree', 'scipy.spatial', 'scipy.special')])\n"
    )
    assert run_python(script, json.dumps(argv)) == str([True, False, False])


def test_detect_eval_round_trip(room_files, tmp_path):
    cloud_path, truth_path = room_files
    outdir = tmp_path / "det"
    code = main([
        "detect", "--input", str(cloud_path), "--out", str(outdir),
        "--detector", "ops", "--sampling-rate", "0.08", "--knn", "10", "--seed", "1",
    ])
    assert code == EXIT_OK
    report = json.loads((outdir / "room.report.json").read_text())
    assert report["detector"] == "ops"
    assert report["post_merge_count"] >= 6 - 1
    labeled = outdir / "room.labeled.ply"
    sidecar = outdir / "room.labels.txt"
    assert labeled.exists() and sidecar.exists()

    scores = tmp_path / "scores.json"
    code = main(["eval", "--pred", str(sidecar), "--truth", str(truth_path), "--json", str(scores)])
    assert code == EXIT_OK
    data = json.loads(scores.read_text())
    assert 0.0 <= data["segmentation_accuracy"] <= 1.0
    assert 0.0 <= data["classification_accuracy"] <= 1.0


def test_detect_fspf(room_files, tmp_path):
    cloud_path, _ = room_files
    outdir = tmp_path / "det_fspf"
    code = main([
        "detect", "--input", str(cloud_path), "--out", str(outdir),
        "--detector", "fspf", "--r1", "0.07", "--r2", "0.14", "--seed", "1",
    ])
    assert code == EXIT_OK
    report = json.loads((outdir / "room.report.json").read_text())
    assert report["pre_merge_count"] >= report["post_merge_count"]


@pytest.mark.parametrize("detector, flags", [
    ("ops", ["--sampling-rate", "0.08", "--knn", "10"]),
    ("fspf", ["--r1", "0.07", "--r2", "0.14"]),
], ids=["ops", "fspf"])
def test_detect_report_times_load_and_write(room_files, tmp_path, detector, flags):
    """The report adds the cloud's load and the PLY and sidecar writes to the
    run's stages; the stages and ``other`` still sum to ``total``."""
    cloud_path, _ = room_files
    outdir = tmp_path / detector
    assert main(["detect", "--input", str(cloud_path), "--out", str(outdir), "--detector", detector,
                 "--seed", "1", *flags]) == EXIT_OK
    timings = json.loads((outdir / "room.report.json").read_text())["timings_ms"]
    stages = (*STAGES, "load", "write")
    assert set(timings) == {*stages, "other", "total"}
    assert timings["load"] > 0.0 and timings["write"] > 0.0 and timings["other"] > 0.0
    assert sum(timings[k] for k in (*stages, "other")) == pytest.approx(timings["total"], rel=1e-9, abs=0.0)


def test_detect_config_file_with_flag_override(room_files, tmp_path):
    cloud_path, _ = room_files
    config = {"detector": "ops", "ops": {"sampling_rate": 0.02, "k": 10}, "seed": 9}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outdir = tmp_path / "det_cfg"
    code = main([
        "detect", "--input", str(cloud_path), "--out", str(outdir),
        "--config", str(config_path), "--sampling-rate", "0.08",
    ])
    assert code == EXIT_OK
    report = json.loads((outdir / "room.report.json").read_text())
    assert report["params"]["ops"]["sampling_rate"] == 0.08  # flag wins
    assert report["params"]["seed"] == 9  # config survives


def test_flags_of_one_call_do_not_reach_the_next(room_files, tmp_path):
    # Every main call parses with the same parser.
    cloud_path, _ = room_files
    seeds = []
    for i, flags in enumerate([["--seed", "5"], []]):
        outdir = tmp_path / f"det{i}"
        assert main(["detect", "--input", str(cloud_path), "--out", str(outdir),
                     "--sampling-rate", "0.08", "--knn", "10", *flags]) == EXIT_OK
        seeds.append(json.loads((outdir / "room.report.json").read_text())["params"]["seed"])
    assert seeds == [5, 0]
    assert build_parser() is build_parser()


def test_detect_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nend_header\n1\n")
    code = main(["detect", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    empty = tmp_path / "empty.xyz"
    empty.write_text("")
    code = main(["detect", "--input", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE


@pytest.mark.parametrize("command, flags, config", [
    ("detect", ["--merge-angle", "-1"], None),
    ("detect", ["--dist-threshold", "-1"], None),
    ("detect", ["--knn", "2"], None),
    ("detect", ["--sampling-rate", "2"], None),
    ("detect", ["--up", "0,0,2"], None),
    ("detect", ["--up", "0,x,1"], None),
    ("detect", ["--detector", "fspf", "--r1", "-1"], None),
    ("detect", [], {"ops": {"no_such_param": 1}}),
    ("detect", [], {"sampling_rate": 0.1}),
    ("detect", [], {"merge": {"angle_degrees": 0}}),
    ("detect", [], [1, 2]),
    ("gt", ["--gt-knn", "2"], None),
    ("detect", ["--detector", "fspf", "--n-loc", "500"], None),
    ("detect", ["--orientation-tol", "50"], None),
    ("detect", [], {"ops": {"seed": 3}}),
    ("detect", [], {"fspf": {"seed": 3}}),
    ("detect", [], {"ops": {"up": [0, 0, 1]}}),
    ("detect", [], {"gt": {"k": 5}}),
    ("detect", ["--detector", "fspf", "--merge-angle", "nan"], None),
    ("detect", ["--merge-angle", "200"], None),
    ("detect", ["--merge-angle", "90"], None),
    ("detect", ["--merge-offset", "inf"], None),
    ("detect", [], {"merge": {"offset": float("nan")}}),
    ("detect", ["--dist-threshold", "nan"], None),
    ("detect", [], {"ops": {"dist_threshold": float("inf")}}),
    ("detect", ["--detector", "fspf", "--dist-threshold", "nan"], None),
    ("detect", ["--detector", "fspf", "--r1", "nan"], None),
    ("detect", ["--detector", "fspf", "--r2", "inf"], None),
    ("gt", ["--gt-dist", "nan"], None),
    ("gt", ["--gt-angle", "nan"], None),
    ("gt", ["--gt-angle", "200"], None),
    ("detect", ["--up", "nan,0,1"], None),
    ("detect", [], {"ops": {"k": 10.5}}),
    ("detect", [], {"detector": "fspf", "fspf": {"local_samples": 80.5}}),
    ("detect", [], {"fspf": {"max_iterations": 100.5}}),
    ("detect", [], {"seed": 2.5}),
    ("detect", [], {"seed": True}),
    ("detect", [], {"ops": {"sigma": 0.1}}),
    ("detect", [], {"detector": "fspf", "fspf": {"claim_full_sphere": True}}),
    ("detect", ["--seed", "-1"], None),
    ("detect", [], {"seed": -1}),
    ("detect", [], {"ops": {"dist_threshold": True}}),
    ("detect", [], {"detector": "fspf", "fspf": {"r1": True}}),
    ("detect", [], {"merge": {"offset": True}}),
    ("detect", [], {"orientation_tol_degrees": True}),
    ("detect", [], {"ops": {"grouping": "group_first"}}),
    ("detect", ["--detector", "fspf", "--n-max", "0"], None),
    ("detect", ["--detector", "fspf", "--n-max", "-5"], None),
    ("detect", [], {"detector": "fspf", "fspf": {"max_inlier_points": -5}}),
    ("detect", ["--knn", "12"], {"ops": [1]}),
    ("detect", ["--knn", "12"], [1, 2]),
    ("detect", [], {"ops": {"dist_threshold": 10**400}}),
    ("detect", [], {"name": ["x"]}),
], ids=["merge-angle", "dist-threshold", "knn", "sampling-rate", "up-not-unit", "up-not-number", "fspf-r1",
        "unknown-key", "unknown-top-key", "config-merge-angle", "config-not-object", "gt-knn",
        "fspf-cloud-below-n-loc", "orientation-tol", "ops-seed", "fspf-seed", "ops-up", "gt-block",
        "merge-angle-nan", "merge-angle-over-90", "merge-angle-90", "merge-offset-inf", "config-merge-offset-nan",
        "dist-threshold-nan", "config-ops-dist-inf", "fspf-dist-nan", "fspf-r1-nan", "fspf-r2-inf",
        "gt-dist-nan", "gt-angle-nan", "gt-angle-over-90", "up-nan", "ops-k-fraction",
        "fspf-local-samples-fraction", "fspf-max-iterations-fraction", "seed-fraction", "seed-bool",
        "config-ops-sigma", "config-fspf-claim-full-sphere", "seed-negative", "config-seed-negative",
        "config-ops-dist-bool", "config-fspf-r1-bool", "config-merge-offset-bool", "config-orientation-tol-bool",
        "config-ops-grouping", "fspf-n-max-zero", "fspf-n-max-negative", "config-fspf-n-max-negative",
        "config-ops-list-with-flag", "config-not-object-with-flag", "config-ops-dist-int-overflow", "config-name-list"])
def test_invalid_config_exit_code(tmp_path, capsys, command, flags, config):
    rng = np.random.default_rng(0)
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("\n".join(f"{x} {y} {z}" for x, y, z in rng.uniform(0, 1, size=(200, 3))) + "\n")
    argv = [command, "--input", str(cloud), "--out", str(tmp_path / "o"), *flags]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [{"ops": {"k": 2}}, {"ops": None}], ids=["invalid-file-value", "null-section"])
def test_flag_replaces_config_file_value(room_files, tmp_path, config):
    """A flag replaces the file's value before it is checked: an invalid k
    that --knn overrides is never read, and a null section takes the flag."""
    cloud_path, _ = room_files
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outdir = tmp_path / "det"
    assert main(["detect", "--input", str(cloud_path), "--out", str(outdir), "--config", str(config_path),
                 "--knn", "12", "--sampling-rate", "0.08"]) == EXIT_OK
    report = json.loads((outdir / "room.report.json").read_text())
    assert report["params"]["ops"] == {**dataclasses.asdict(RunConfig().ops), "k": 12, "sampling_rate": 0.08}


@pytest.mark.parametrize("argv", [
    ["detect", "--input", "{dir}", "--out", "{tmp}/o"],
    ["detect", "--input", "{cloud}", "--out", "{file}"],
    ["detect", "--input", "{cloud}", "--out", "{tmp}/o", "--config", "{cloud}"],
    ["detect", "--input", "{cloud}", "--out", "{tmp}/o", "--config", "{deep}"],
    ["synth", "--scene", "{cloud}", "--out", "{tmp}/o/scene.ply"],
    ["eval", "--pred", "{truth}", "--truth", "{dir}"],
    ["bench", "--dataset", "{tmp}", "--configs", "{cloud}"],
], ids=["detect-input-directory", "detect-out-file", "detect-config-binary-ply", "detect-config-nested-too-deep",
        "synth-scene-binary", "eval-truth-directory", "bench-configs-binary"])
def test_bad_path_exit_code(room_files, tmp_path, capsys, argv):
    """A directory or a file where the other belongs, or a binary file or
    JSON nested past the parser's depth where JSON belongs, exits 2 with one
    error line, not a traceback."""
    cloud_path, truth_path = room_files
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file", "deep": tmp_path / "deep.json", "cloud": cloud_path,
             "truth": truth_path, "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["detect", "--input", "{cloud}", "--out", "{file}"],
    ["gt", "--input", "{cloud}", "--out", "{dir}"],
    ["gt", "--input", "{cloud}", "--out", "{tmp}/o.labels.txt", "--ply", "{dir}"],
    ["bench", "--dataset", "{tmp}", "--configs", "{configs}", "--gen-gt", "--out", "{dir}"],
    ["eval", "--pred", "{labels}", "--truth", "{labels}", "--json", "{dir}"],
    ["synth", "--out", "{dir}"],
    ["synth", "--out", "{tmp}/s.ply"],
    ["detect", "--input", "{cloud}", "--out", "{file}/sub"],
    ["gt", "--input", "{cloud}", "--out", "{file}/x.labels.txt"],
    ["gt", "--input", "{cloud}", "--out", "{tmp}/o.labels.txt", "--ply", "{file}/a/b.ply"],
    ["bench", "--dataset", "{tmp}", "--configs", "{configs}", "--gen-gt", "--out", "{file}/rows.json"],
    ["eval", "--pred", "{labels}", "--truth", "{labels}", "--json", "{file}/scores.json"],
    ["synth", "--out", "{file}/s.ply"],
], ids=["detect-out-file", "gt-out-directory", "gt-ply-directory", "bench-out-directory", "eval-json-directory",
        "synth-out-directory", "synth-sidecar-directory", "detect-out-under-file", "gt-out-under-file",
        "gt-ply-under-file", "bench-out-under-file", "eval-json-under-file", "synth-out-under-file"])
def test_bad_out_path_fails_before_the_work(room_files, tmp_path, capsys, monkeypatch, argv):
    """An output path that exists as the wrong kind, or lies under a file,
    exits 2 before the input is read or the work starts, and nothing is
    created."""
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("load_cloud", "run_detect", "generate_ground_truth", "run_bench", "load_labeling", "gen_synthetic"):
        monkeypatch.setattr(planeops.cli, name, no_work)
    cloud_path, labels_path = room_files
    (tmp_path / "dir").mkdir()
    (tmp_path / "s.labels.txt").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "configs.json").write_text('[{"detector": "ops"}]')
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file", "cloud": cloud_path, "labels": labels_path,
             "configs": tmp_path / "configs.json", "tmp": tmp_path}
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
def test_negative_vertex_count_exit_code(tmp_path, capsys, binary):
    fmt, body = ("binary_little_endian", np.zeros(3).tobytes()) if binary else ("ascii", b"0 0 0\n")
    cloud = tmp_path / "cloud.ply"
    cloud.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex -1\nproperty double x\nproperty double y\n"
                      "property double z\nend_header\n".encode() + body)
    assert main(["detect", "--input", str(cloud), "--out", str(tmp_path / "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3: negative vertex count" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
@pytest.mark.parametrize("bad", ["format", "element", "property", "property float"],
                         ids=["format", "element", "property", "property-without-name"])
def test_header_line_lacking_a_field_exit_code(tmp_path, capsys, binary, bad):
    fmt, body = ("binary_little_endian", np.zeros(3).tobytes()) if binary else ("ascii", b"0 0 0\n")
    cloud = tmp_path / "cloud.ply"
    cloud.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex 1\nproperty double x\nproperty double y\n"
                      f"property double z\n{bad}\nend_header\n".encode() + body)
    assert main(["detect", "--input", str(cloud), "--out", str(tmp_path / "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 7: " in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
def test_bare_property_of_another_element_exit_code(tmp_path, capsys, binary):
    fmt, body = ("binary_little_endian", np.zeros(3).tobytes()) if binary else ("ascii", b"0 0 0\n")
    cloud = tmp_path / "cloud.ply"
    cloud.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex 1\nproperty double x\nproperty double y\n"
                      "property double z\nelement face 1\nproperty\nend_header\n".encode() + body)
    assert main(["detect", "--input", str(cloud), "--out", str(tmp_path / "o")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 8: property line lacks a field" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--sigma", "0.1"], ["--detector", "fspf", "--claim-full-sphere"],
                                   ["--grouping", "detect_first"]],
                         ids=["sigma", "claim-full-sphere", "grouping"])
def test_removed_flag_exit_code(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--input", str(tmp_path / "cloud.xyz"), "--out", str(tmp_path / "o"), *flags])
    assert exit_info.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


# Each detect flag that sets a RunConfig field: a non-default value, and the
# value every field it sets must then hold, by (params, field) path.
DETECT_FLAG_FIELDS = [
    ("--detector", "fspf", {("detector",): "fspf"}),
    ("--seed", "7", {("seed",): 7}),
    ("--orientation-tol", "10", {("orientation_tol_degrees",): 10.0}),
    ("--up", "0,1,0", {("up",): (0.0, 1.0, 0.0)}),
    ("--sampling-rate", "0.5", {("ops", "sampling_rate"): 0.5}),
    ("--knn", "12", {("ops", "k"): 12}),
    ("--dist-threshold", "0.03", {("ops", "dist_threshold"): 0.03, ("fspf", "dist_threshold"): 0.03}),
    ("--min-inliers", "25", {("ops", "min_inliers"): 25}),
    ("--probability", "0.9", {("ops", "probability"): 0.9}),
    ("--r1", "0.05", {("fspf", "r1"): 0.05}),
    ("--r2", "0.2", {("fspf", "r2"): 0.2}),
    ("--n-loc", "60", {("fspf", "local_samples"): 60}),
    ("--alpha-min", "0.7", {("fspf", "min_inlier_fraction"): 0.7}),
    ("--k-max", "500", {("fspf", "max_iterations"): 500}),
    ("--n-max", "900", {("fspf", "max_inlier_points"): 900}),
    ("--merge-angle", "5", {("merge", "angle_degrees"): 5.0}),
    ("--merge-offset", "0.1", {("merge", "offset"): 0.1}),
]
# Detect flags that choose files or output colours, not RunConfig fields.
DETECT_IO_FLAGS = {"--help", "--input", "--out", "--config", "--color-mode"}


def _field(config, path):
    for name in path:
        config = getattr(config, name)
    return config


def _config_field_paths(config) -> set:
    """Every leaf field of a RunConfig, as (field,) or (params, field)."""
    paths = set()
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            paths.update((f.name, sub.name) for sub in dataclasses.fields(value))
        else:
            paths.add((f.name,))
    return paths


def test_every_detect_flag_reaches_its_field():
    parser = build_parser()
    detect = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["detect"]
    flags = {s for action in detect._actions for s in action.option_strings if s.startswith("--")}
    assert flags == DETECT_IO_FLAGS | {flag for flag, _, _ in DETECT_FLAG_FIELDS}

    argv = ["detect", "--input", "cloud.ply", "--out", "o"]
    for flag, text, _ in DETECT_FLAG_FIELDS:
        argv += [flag, text]
    config, default = _detect_config(parser.parse_args(argv)), RunConfig()
    reached = {}
    for _, _, fields in DETECT_FLAG_FIELDS:
        reached.update(fields)
    for path, value in reached.items():
        assert _field(config, path) == value != _field(default, path), path
    assert set(reached) == _config_field_paths(default) - {("name",)}


@pytest.mark.parametrize("pred", [b"99999999999 H\n", b"-7 H\n", b"-1 H\n", b"0 V\n0 H\n", b"0 \xc3\x89\n"],
                         ids=["id-beyond-int32", "id-below-minus-1", "unsegmented-horizontal", "mixed-segment",
                              "non-ascii"])
def test_eval_bad_sidecar_exit_code(tmp_path, capsys, pred):
    pred_path, truth_path = tmp_path / "pred.labels.txt", tmp_path / "truth.labels.txt"
    pred_path.write_bytes(pred)
    truth_path.write_bytes(b"-1 O\n" * pred.count(b"\n"))
    assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_detect_empty_result_exit_code(tmp_path):
    rng = np.random.default_rng(0)
    noise = tmp_path / "noise.xyz"
    lines = "\n".join(f"{x} {y} {z}" for x, y, z in rng.uniform(0, 1, size=(400, 3)))
    noise.write_text(lines + "\n")
    code = main([
        "detect", "--input", str(noise), "--out", str(tmp_path / "o"),
        "--detector", "ops", "--sampling-rate", "0.2", "--knn", "10", "--min-inliers", "30",
    ])
    assert code == EXIT_EMPTY


def test_gt_command(room_files, tmp_path):
    cloud_path, _ = room_files
    out = tmp_path / "gt.labels.txt"
    code = main(["gt", "--input", str(cloud_path), "--out", str(out), "--min-plane-size", "50"])
    assert code == EXIT_OK
    labeling = load_labeling(out)
    assert labeling.segment_ids().size >= 5


def test_gt_cloud_without_points_exit_code(tmp_path, capsys):
    """A cloud without points exits 2, as for detect; a cloud smaller than
    min_plane_size is all unsegmented."""
    empty, pair = tmp_path / "empty.xyz", tmp_path / "pair.xyz"
    empty.write_text("")
    pair.write_text("0 0 0\n1 0 0\n")
    assert main(["gt", "--input", str(empty), "--out", str(tmp_path / "empty.labels.txt")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "empty.labels.txt").exists()
    assert main(["gt", "--input", str(pair), "--out", str(tmp_path / "pair.labels.txt")]) == EXIT_OK
    assert (tmp_path / "pair.labels.txt").read_text() == "-1 O\n-1 O\n"


COMMANDS_ON_A_CLOUD = {"ops": ["detect", "--detector", "ops"], "fspf": ["detect", "--detector", "fspf"], "gt": ["gt"]}


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e307])
@pytest.mark.parametrize("command", sorted(COMMANDS_ON_A_CLOUD))
def test_too_wide_cloud_exit_code(tmp_path, capsys, command, scale):
    """A cloud whose squared bounding-box diagonal overflows float64 exits 2
    with one error line, before any output is written."""
    cloud, out = tmp_path / "wide.xyz", tmp_path / "out"
    np.savetxt(cloud, planeops.make_box_room(3.5, 300, 150)[0] * scale, fmt="%.17g")
    assert main([*COMMANDS_ON_A_CLOUD[command], "--input", str(cloud), "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
    assert not out.exists()


def test_gt_cloud_whose_scatter_overflows_exit_code(tmp_path, capsys):
    """The same room scaled by 1e153 keeps its squared diagonal within
    float64, but the sum of its squared offsets from its mean, and so a
    plane fit's scatter, overflows: one error line, no output."""
    cloud, out = tmp_path / "wide.xyz", tmp_path / "wide.labels.txt"
    np.savetxt(cloud, planeops.make_box_room(3.5, 300, 150)[0] * 1e153, fmt="%.17g")
    assert main(["gt", "--input", str(cloud), "--out", str(out), "--gt-dist", repr(0.05e153)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
    assert not out.exists()


def test_gt_wide_cloud_within_float64(tmp_path):
    """Scaled by 1e152, with the distance threshold scaled alike, the room
    gets the labels of the unscaled room."""
    points = planeops.make_box_room(3.5, 300, 150)[0]
    labels = []
    for scale in (1.0, 1e152):
        cloud, out = tmp_path / f"room{scale:g}.xyz", tmp_path / f"room{scale:g}.labels.txt"
        np.savetxt(cloud, points * scale, fmt="%.17g")
        assert main(["gt", "--input", str(cloud), "--out", str(out), "--gt-dist", repr(0.05 * scale)]) == EXIT_OK
        labels.append(out.read_text())
    assert labels[0] == labels[1]


def test_bench_command(room_files, tmp_path):
    cloud_path, truth_path = room_files
    configs = [
        {"name": "ops-fast", "detector": "ops", "ops": {"sampling_rate": 0.08, "k": 10}},
        {"name": "fspf", "detector": "fspf", "fspf": {"r1": 0.07, "r2": 0.14}},
    ]
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps(configs))
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--dataset", str(cloud_path.parent), "--configs", str(configs_path),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert rows[0]["n_clouds"] == 1


def test_bench_empty_dataset(tmp_path):
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps([{"detector": "ops"}]))
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["bench", "--dataset", str(empty), "--configs", str(configs_path)])
    assert code == EXIT_EMPTY


def test_bench_config_name_not_a_string_exit_code(room_files, tmp_path, capsys):
    cloud_path, _ = room_files
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps([{"name": "ops"}, {"name": ["x"]}]))
    out = tmp_path / "rows.json"
    assert main(["bench", "--dataset", str(cloud_path.parent), "--configs", str(configs_path),
                 "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name" in err and "Traceback" not in err
    assert not out.exists()
