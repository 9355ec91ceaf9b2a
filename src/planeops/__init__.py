"""Plane detection in unorganized 3D point clouds.

Two detectors over a shared toolkit: one-point RANSAC on sparsely sampled
oriented points, and local three-point sampling in spheres. Detected planes
are merged by a pairwise coplanarity test, labeled by orientation, and scored
against smoothness-constraint reference labelings.
"""

from .fspf import CloudTooSmall, FspfParams, fspf_detect, three_point_normal
from .geometry import (
    DegenerateInput,
    Orientation,
    PlaneModel,
    classify_orientations,
    fit_plane,
    plane_distances,
)
from .io import ParseError, UnsupportedFormat, load_cloud, load_labeling, save_labeled, save_labeling
from .kdtree import CloudTooWide, EmptyCloud, KdTree
from .merge import MergeParams, coplanar, merge_all
from .metrics import (
    SizeMismatch,
    classification_accuracy,
    hungarian_match,
    segmentation_accuracy,
)
from .normals import SampleSet, estimate_normals, sample_indices
from .ops import (
    NoPlaneFound,
    OpsParams,
    RansacResult,
    adaptive_iterations,
    detect_grouped,
    extract_full_inliers,
    one_point_ransac,
)
from .pipeline import DetectionReport, RunConfig, run_bench, run_detect
from .synthetic import InvalidSpec, box_room_scene, gen_synthetic, make_box_room, random_scene
from .truth import GtParams, SegmentLabeling, generate_ground_truth

__version__ = "0.1.0"

__all__ = [
    "CloudTooSmall",
    "CloudTooWide",
    "DegenerateInput",
    "DetectionReport",
    "EmptyCloud",
    "FspfParams",
    "GtParams",
    "InvalidSpec",
    "KdTree",
    "MergeParams",
    "NoPlaneFound",
    "OpsParams",
    "Orientation",
    "ParseError",
    "PlaneModel",
    "RansacResult",
    "RunConfig",
    "SampleSet",
    "SegmentLabeling",
    "SizeMismatch",
    "UnsupportedFormat",
    "adaptive_iterations",
    "box_room_scene",
    "classification_accuracy",
    "classify_orientations",
    "coplanar",
    "detect_grouped",
    "estimate_normals",
    "extract_full_inliers",
    "fit_plane",
    "fspf_detect",
    "gen_synthetic",
    "generate_ground_truth",
    "hungarian_match",
    "load_cloud",
    "load_labeling",
    "make_box_room",
    "merge_all",
    "one_point_ransac",
    "plane_distances",
    "random_scene",
    "run_bench",
    "run_detect",
    "sample_indices",
    "save_labeled",
    "save_labeling",
    "segmentation_accuracy",
    "three_point_normal",
]
