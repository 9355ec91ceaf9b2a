"""Plane detection with one-point RANSAC over oriented samples.

The detector orients a small fraction of the cloud (here 5%), then uses each
oriented point as a complete plane hypothesis. The adaptive iteration budget
collapses as soon as a dominant plane is found, which is why so few
iterations are needed compared to classic three-point RANSAC. Detection reads
only the samples; the planes then claim the cloud, largest first, as a run's
merged planes do.
"""

import numpy as np

from planeops import (
    KdTree,
    OpsParams,
    Orientation,
    SampleSet,
    adaptive_iterations,
    classify_orientations,
    detect_grouped,
    estimate_normals,
    make_box_room,
    one_point_ransac,
    sample_indices,
)
from planeops.ops import assign_to_planes

print("adaptive budget for p=0.99 as the outlier fraction grows:")
for e in (0.0, 0.3, 0.5, 0.7, 0.9):
    print(f"  e={e:.1f} -> {adaptive_iterations(0.99, e):4d} iterations")

points, truth = make_box_room(size=3.5, points_per_face=1000, clutter=600,
                              noise_sigma=0.005, seed=7)
print(f"\nsynthetic room: {points.shape[0]} points, 6 faces + clutter")

# The sampling stage of a run: draw 5% of the points, orient them, drop
# the samples whose neighbourhood gives no normal.
params = OpsParams(sampling_rate=0.05, k=10)
up, tol = (0.0, 0.0, 1.0), 7.0
rng = np.random.default_rng(0)
idx = sample_indices(points.shape[0], params.sampling_rate, rng)
normals, _, valid = estimate_normals(KdTree(points), idx, params.k)
samples = SampleSet(indices=idx[valid], positions=points[idx[valid]], normals=normals[valid],
                    cloud_size=points.shape[0])
print(f"oriented samples: {len(samples)} ({int((~valid).sum())} degenerate dropped)")

# One RANSAC over every sample, on a generator of its own, so that the full
# detection below continues the stream exactly as a run with seed 0 does.
result = one_point_ransac(samples, params, np.random.default_rng(1), np.ones(len(samples), dtype=bool))
print(f"largest plane: {len(result.sample_inliers)} sample inliers "
      f"after {result.iterations} iterations, normal {np.round(result.model.normal, 3)}")

planes = detect_grouped(samples, params, rng, up, tol)
print("\ngrouped detection on the samples (horizontal first, then vertical, then other):")
for plane, code in zip(planes, classify_orientations([p.normal for p in planes], up, tol)):
    print(f"  {Orientation(code).name.lower():>10}: {plane.inlier_count:4d} sample inliers, "
          f"normal {np.round(plane.normal, 3)}")

claimed = assign_to_planes(points, sorted(planes, key=lambda p: -p.inlier_count), params.dist_threshold)
print("\nthe same planes claiming the cloud, largest first:")
for plane, code in zip(claimed, classify_orientations([p.normal for p in claimed], up, tol)):
    print(f"  {Orientation(code).name.lower():>10}: {plane.inlier_count:5d} points, "
          f"normal {np.round(plane.normal, 3)}")
