"""Self-test of the benchmark on tiny clouds.

    python3 perfbench/selftest.py

Runs every workload once in smoke mode, untraced and traced, each in its own
process, and checks that:
- ``run.py``'s metric tables match ``BENCHMARK.json`` (names, units,
  directions) and every run prints each of its metrics with that unit;
- no operation failed (``failed`` is 0, ``ok_frac`` is 1);
- every untraced operation and synth call sampled a plausible host speed;
- the spans of each traced run nest, and children plus self time add up to
  every parent; each workload's layers show up as spans;
- the benchmark refuses to run, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's own files.
Exits 1 if any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import check_spans  # noqa: E402

TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Spans each workload must produce: its layers, reached through the wrappers.
EXPECTED_SPANS = {
    "room_ops_325k": {"cli.main", "cli.load_cloud", "cli.run_detect", "pipeline.KdTree",
                      "pipeline.sample_indices", "pipeline.estimate_normals", "pipeline.detect_grouped",
                      "ops.one_point_ransac", "ops.extract_full_inliers", "ops.fit_plane",
                      "pipeline.merge_all", "merge.dedupe_inliers", "pipeline.labeling_from_inliers",
                      "cli.save_labeled", "cli.save_labeling"},
    "room_fspf_23k": {"cli.main", "cli.load_cloud", "cli.run_detect", "pipeline.KdTree",
                      "pipeline.fspf_detect", "fspf.fit_plane", "pipeline.merge_all", "merge.dedupe_inliers",
                      "merge.fit_plane", "pipeline.assign_to_planes", "cli.save_labeled", "cli.save_labeling"},
    "room_gt_13k": {"cli.main", "cli.load_cloud", "cli.generate_ground_truth", "truth.KdTree",
                    "truth.estimate_normals", "truth.fit_plane", "cli.save_labeling", "cli.load_labeling",
                    "cli.segmentation_accuracy", "cli.classification_accuracy"},
}
EXPECTED_QUERIES = {"room_ops_325k": "kdtree.knn", "room_fspf_23k": "kdtree.radius_search@",
                    "room_gt_13k": "kdtree.knn"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run([*config["command"], *args], cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def check_config(errors: list) -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in config[key]]
        if listed != list(table):
            errors.append(f"BENCHMARK.json {key} differs from run.py: {set(listed) ^ set(table)}")
    if sorted(w["name"] for w in config["workloads"]) != sorted(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")


def check_run(workload: str, trace: int, errors: list) -> None:
    where = f"{workload} trace={trace}"
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or details["failed_frac"] != 0:
        errors.append(f"{where}: failures {details['failures']}")
    table = run.PER_LAYER if trace else run.END_TO_END
    if set(result["metrics"]) != {name for name, _, _ in table}:
        errors.append(f"{where}: metric names {sorted(result['metrics'])}")
    for name, unit, _ in table:
        metric = result["metrics"].get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {metric}")
    if not trace:
        if result["metrics"]["ok_frac"]["value"] != 1.0:
            errors.append(f"{where}: ok_frac {result['metrics']['ok_frac']}")
        speeds = [speed for _, _, speed in details["cloud_s_each"]] + [v for _, v in details["setup_s_each"]]
        if not all(0.05 < v < 20.0 for v in speeds):
            errors.append(f"{where}: host speeds out of range: {speeds}")
        return
    spans = [json.loads(line) for line in (ROOT / details["spans"]).read_text().splitlines()]
    errors.extend(f"{where}: {p}" for p in check_spans(spans))
    missing = EXPECTED_SPANS[workload] - {s["name"] for s in spans}
    if missing:
        errors.append(f"{where}: no spans named {sorted(missing)}")
    if not any(key.startswith(EXPECTED_QUERIES[workload]) for s in spans for key in s["hot"]):
        errors.append(f"{where}: no {EXPECTED_QUERIES[workload]} queries counted")


def check_bare_directory(errors: list) -> None:
    """Without the package sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in config["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "--workload", "room_gt_13k", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main() -> int:
    errors: list[str] = []
    check_config(errors)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, errors)
            print(f"{workload} trace={trace}: done", flush=True)
    check_bare_directory(errors)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
