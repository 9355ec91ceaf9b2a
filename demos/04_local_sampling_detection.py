"""Plane detection by local three-point sampling, and why merging matters.

This detector seeds planes from point triples drawn inside small spheres and
verifies them locally, so it returns many small fragments; the coplanarity
merge consolidates them. Compare the before/after counts with the
oriented-point detector on the same scene.
"""

import numpy as np

from planeops import FspfParams, KdTree, MergeParams, OpsParams, RunConfig, fspf_detect, make_box_room, merge_all
from planeops.pipeline import run_detect

points, truth = make_box_room(size=3.5, points_per_face=1000, clutter=600,
                              noise_sigma=0.005, seed=7)

params = FspfParams(r1=0.07, r2=0.14, local_samples=80, min_inlier_fraction=0.8,
                    max_inlier_points=points.shape[0])
fragments = fspf_detect(KdTree(points), params, np.random.default_rng(7))
sizes = sorted((p.inlier_count for p in fragments), reverse=True)
print(f"local sampling found {len(fragments)} fragments "
      f"(recorded inliers per fragment: median {int(np.median(sizes))})")

merge_params = MergeParams(angle_degrees=10.0, offset=0.075)
merged = merge_all(fragments, points, merge_params)
print(f"after coplanarity merging: {len(merged)} planes, largest holds "
      f"{merged[0].inlier_count} recorded points")

ops_report = run_detect(points, RunConfig(detector="ops", ops=OpsParams(sampling_rate=0.05, k=10), seed=7))
print(f"\nfor comparison, the oriented-point detector returns "
      f"{ops_report.pre_merge_count} planes before any merging")
print("fragment counts, local sampling vs oriented points:",
      len(fragments), "vs", ops_report.pre_merge_count)
