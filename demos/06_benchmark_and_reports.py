"""Batch benchmarking over a cloud directory, plus report files.

Builds a tiny dataset of labeled synthetic scenes on disk, runs both
detectors over it, and prints the aggregate table. Also shows the JSON
report and the colored PLY a single run produces.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from planeops import (
    FspfParams,
    MergeParams,
    OpsParams,
    RunConfig,
    gen_synthetic,
    load_cloud,
    random_scene,
    save_labeled,
    save_labeling,
)
from planeops.pipeline import bench_table, run_bench, run_detect

workdir = Path(tempfile.mkdtemp(prefix="planeops_demo_"))
print("dataset directory:", workdir)

for i in range(4):
    rng = np.random.default_rng(60 + i)
    scene = random_scene(int(rng.integers(3, 7)), rng)
    points, truth = gen_synthetic(scene, noise_sigma=0.004, seed=60 + i)
    save_labeled(points, truth, workdir / f"scene{i}.ply", mode="segment")
    save_labeling(truth, workdir / f"scene{i}.labels.txt")
    print(f"  scene{i}: {points.shape[0]} points, {truth.segment_ids().size} planes")

merge = MergeParams(angle_degrees=10.0, offset=0.075)
configs = [
    RunConfig(name="ops 5%/10NN", detector="ops",
              ops=OpsParams(sampling_rate=0.05, k=10), merge=merge),
    RunConfig(name="fspf 0.07/0.14", detector="fspf",
              fspf=FspfParams(r1=0.07, r2=0.14, max_inlier_points=6000), merge=merge),
]
rows = run_bench(workdir, configs)
print()
print(bench_table(rows))

# a single run's artifacts
points = load_cloud(workdir / "scene0.ply")
report = run_detect(points, configs[0])
out = workdir / "scene0.report.json"
out.write_text(report.to_json())
save_labeled(points, report.labeling, workdir / "scene0.labeled.ply", mode="segment")
print(f"\nwrote {out.name} and scene0.labeled.ply; report fields:")
print(json.dumps({k: v for k, v in report.to_dict().items() if k != "planes"},
                 indent=2, sort_keys=True)[:400], "...")
