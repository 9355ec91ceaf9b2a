"""Smoothness-constraint ground truth and the two accuracy metrics.

Reference labelings come from components of the k-NN graph over estimated
normals: classification accuracy scores the per-point orientation class,
segmentation accuracy scores plane identity under an optimal one-to-one
matching of predicted to reference segments.
"""

import numpy as np

from planeops import (
    FspfParams,
    GtParams,
    MergeParams,
    OpsParams,
    RunConfig,
    classification_accuracy,
    generate_ground_truth,
    make_box_room,
    segmentation_accuracy,
)
from planeops.pipeline import run_detect

points, generator_truth = make_box_room(size=3.5, points_per_face=1000, clutter=0,
                                        noise_sigma=0.005, seed=5)

reference = generate_ground_truth(points, GtParams(dist_threshold=0.05,
                                                   normal_angle_degrees=7.0,
                                                   min_plane_size=50))
ids = reference.segment_ids()
unsegmented = int((reference.plane_ids < 0).sum())
print(f"ground truth found {ids.size} segments; {unsegmented} points "
      "stay unsegmented (blended normals along the box edges fail the angle gate)")
print("agreement with the generator's exact membership:",
      f"{segmentation_accuracy(reference, generator_truth):.3f}")
print("the gap is those edge points: detectors that claim them will disagree"
      " with this reference there, which caps the scores below\n")

merge = MergeParams(angle_degrees=10.0, offset=0.075)
for name, config in [
    ("oriented points", RunConfig(detector="ops", ops=OpsParams(sampling_rate=0.05, k=10),
                                  merge=merge, seed=1)),
    ("local sampling", RunConfig(detector="fspf",
                                 fspf=FspfParams(r1=0.07, r2=0.14, max_inlier_points=points.shape[0]),
                                 merge=merge, seed=1)),
]:
    report = run_detect(points, config)
    ca = classification_accuracy(report.labeling, reference)
    sa = segmentation_accuracy(report.labeling, reference)
    print(f"{name:>16}: {report.post_merge_count} planes, "
          f"classification {ca:.3f}, segmentation {sa:.3f} (vs reference)")
