"""End-to-end detection runs: detect, merge, label, time, report.

Detection and merging read a uniform draw of at most ``WORKING_POINTS``
points of the cloud. Both detectors then label every point by one claim
rule, :func:`assign_to_planes`: after merging, each plane, largest first,
claims the unclaimed points near it, and a point carries the id of the
plane that claimed it.
A run is fully determined by (config, seed, input); reports are identical
across repeats except for the timing fields. The JSON report schema produced
by :meth:`DetectionReport.to_dict` is the stability contract; the text
rendering is presentation only.
"""

import dataclasses
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fspf import FspfParams, fspf_detect
from .geometry import ORIENTATION_TOL_DEGREES, UP, Orientation, PlaneModel, as_float, as_integer, classify_orientations
from .io import load_cloud, load_labeling
from .kdtree import KdTree, check_cloud, load_ckdtree
from .merge import MergeParams, merge_all
from .metrics import classification_accuracy, segmentation_accuracy
from .normals import SampleSet, estimate_normals, sample_indices
from .ops import OpsParams, assign_to_planes, detect_grouped
from .truth import GtParams, SegmentLabeling, generate_ground_truth

__all__ = [
    "BenchRow",
    "ConfigError",
    "DetectionReport",
    "RunConfig",
    "assign_to_planes",
    "labeling_from_inliers",
    "run_bench",
    "run_detect",
]

logger = logging.getLogger(__name__)

STAGES = ("index", "sampling", "normals", "detection", "merging", "labeling")
WORKING_POINTS = 100_000  # detection reads a uniform draw of at most this many points; every point is labeled


class ConfigError(ValueError):
    """A run configuration, from a config file or from flags, is invalid."""


@dataclass
class RunConfig:
    """One detector run: which detector plus every stage's parameters.

    The run's settings live here and nowhere else: ``seed`` starts the one
    random stream that sampling and detection share, and ``up`` with
    ``orientation_tol_degrees`` drive both the oriented-point detector's
    grouping and the orientation labels of the merged planes.
    """

    detector: str = "ops"
    ops: OpsParams = field(default_factory=OpsParams)
    fspf: FspfParams = field(default_factory=FspfParams)
    merge: MergeParams = field(default_factory=MergeParams)
    up: tuple = UP
    orientation_tol_degrees: float = ORIENTATION_TOL_DEGREES
    seed: int = 0
    name: str | None = None

    def __post_init__(self):
        if self.detector not in ("ops", "fspf"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {type(self.name).__name__}")
        self.seed = as_integer(self.seed, "seed", minimum=0)  # numpy's generators take no negative seed
        self.orientation_tol_degrees = as_float(self.orientation_tol_degrees, "orientation_tol_degrees")
        self.up = tuple(self.up)
        classify_orientations(np.empty((0, 3)), self.up, self.orientation_tol_degrees)  # checks both

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "seed": self.seed,
            "name": self.name,
            "up": list(self.up),
            "orientation_tol_degrees": self.orientation_tol_degrees,
            self.detector: dataclasses.asdict(getattr(self, self.detector)),
            "merge": dataclasses.asdict(self.merge),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build from a :meth:`to_dict`-style dict; raises ConfigError on an
        unknown parameter name or an invalid value."""
        if not isinstance(d, dict):
            raise ConfigError(f"a run config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        sections = {"ops": OpsParams, "fspf": FspfParams, "merge": MergeParams}  # null means the defaults
        try:
            return cls(**{key: sections[key](**value) if key in sections else value
                          for key, value in d.items() if value is not None or key not in sections})
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
            raise ConfigError(f"invalid config: {exc}") from exc


@dataclass
class PlaneSummary:
    id: int
    centroid: list
    normal: list
    inlier_count: int
    orientation: str


@dataclass
class DetectionReport:
    """Everything a run produced: plane summaries, labeling, timings."""

    detector: str
    n_points: int
    pre_merge_count: int
    post_merge_count: int
    planes: list
    labeling: SegmentLabeling
    timings_ms: dict
    params: dict

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "n_points": self.n_points,
            "pre_merge_count": self.pre_merge_count,
            "post_merge_count": self.post_merge_count,
            "planes": [dataclasses.asdict(p) for p in self.planes],
            "timings_ms": self.timings_ms,
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def labeling_from_inliers(n: int, planes: list[PlaneModel]) -> np.ndarray:
    """The plane id of each of n points by the planes' disjoint inlier sets; -1 if unclaimed."""
    ids = np.full(n, -1, dtype=np.int32)
    for pid, plane in enumerate(planes):
        ids[plane.inliers] = pid
    return ids


@contextmanager
def _stage(timings: dict, name: str):
    """Add the wall time of the enclosed block to stage ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] += time.perf_counter() - t0


def run_detect(points, config: RunConfig) -> DetectionReport:
    """Detect planes in a cloud with the configured detector, then merge,
    label each point, and assemble the report.

    Detection reads a working cloud of at most ``WORKING_POINTS`` points.
    A larger cloud of N points is first checked whole, then the run's
    generator, before any other draw, picks ``WORKING_POINTS`` distinct
    points uniformly, kept in cloud order; a smaller cloud is its own
    working cloud and nothing is drawn. The index, OPS's sampling and
    normals, both detectors and merging read only the working cloud, and an
    explicit FSPF ``max_inlier_points`` is scaled to it (times W / N,
    floored, at least 1); the default of half the cloud reads W.

    The merged planes, largest first, then claim the unclaimed points of the
    whole cloud within the detector's ``dist_threshold`` by
    :func:`assign_to_planes` and keep at least 3 each: only a plane's
    centroid and normal cross over from the working cloud, it is refit on
    its claimed points, and its ``inlier_count`` counts the points labeled
    with its id. OPS detection reads only its samples, and an OPS
    ``pre_merge_count`` counts RANSAC winners.

    ``timings_ms`` holds every stage of ``STAGES`` for both detectors, 0 for
    a stage the run skips; ``other``, the untimed rest of the call (the
    generator, the report); and ``total``, the wall time of the whole call,
    which the stages and ``other`` sum to. The whole cloud is checked once,
    under ``index``, which also times the index build; the working draw is
    timed under ``sampling``.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    timings = dict.fromkeys(STAGES, 0.0)

    with _stage(timings, "index"):
        cloud = check_cloud(points)
    points, n_cloud = cloud, cloud.shape[0]
    if n_cloud > WORKING_POINTS:
        with _stage(timings, "sampling"):
            points = np.take(cloud, np.sort(rng.choice(n_cloud, WORKING_POINTS, replace=False)), axis=0)
    n = points.shape[0]
    with _stage(timings, "index"):
        kd = KdTree(points, checked=True)
    if config.detector == "ops":
        p = config.ops
        with _stage(timings, "sampling"):
            idx = sample_indices(n, p.sampling_rate, rng)
        with _stage(timings, "normals"):
            normals, _, valid = estimate_normals(kd, idx, p.k)
            del kd  # the last query: its ordered copy and tree go before detection
            kept = idx[valid]
            samples = SampleSet(indices=kept, positions=points[kept], normals=normals[valid], cloud_size=n)
        with _stage(timings, "detection"):
            raw_planes = detect_grouped(samples, p, rng, config.up, config.orientation_tol_degrees)
    else:
        p = config.fspf
        if p.max_inlier_points is not None and n < n_cloud:
            p = dataclasses.replace(p, max_inlier_points=max(1, p.max_inlier_points * n // n_cloud))
        with _stage(timings, "detection"):
            raw_planes = fspf_detect(kd, p, rng)
            del kd

    with _stage(timings, "merging"):
        merged = merge_all(raw_planes, points, config.merge)

    with _stage(timings, "labeling"):
        merged = assign_to_planes(cloud, merged, p.dist_threshold)
        ids = labeling_from_inliers(n_cloud, merged)
        classes = classify_orientations([plane.normal for plane in merged], config.up,
                                        config.orientation_tol_degrees)
        labeling = SegmentLabeling.from_planes(ids, classes)

    summaries = [
        PlaneSummary(
            id=pid,
            centroid=[float(v) for v in plane.centroid],
            normal=[float(v) for v in plane.normal],
            inlier_count=plane.inlier_count,
            orientation=Orientation(code).name.lower(),
        )
        for pid, (plane, code) in enumerate(zip(merged, classes.tolist()))
    ]
    total = time.perf_counter() - start
    timings["other"] = total - sum(timings.values())
    timings["total"] = total
    timings_ms = {k: 1000.0 * v for k, v in timings.items()}
    return DetectionReport(
        detector=config.detector,
        n_points=n_cloud,
        pre_merge_count=len(raw_planes),
        post_merge_count=len(merged),
        planes=summaries,
        labeling=labeling,
        timings_ms=timings_ms,
        params=config.to_dict(),
    )


@dataclass
class BenchRow:
    """Aggregate of one config over a dataset: plain arithmetic means, and
    each stage time's median and 95th percentile (linear interpolation)
    over the clouds."""

    config_name: str
    n_clouds: int
    n_skipped: int
    mean_classification: float
    mean_segmentation: float
    mean_timings_ms: dict
    mean_pre_merge: float
    mean_post_merge: float
    median_timings_ms: dict
    p95_timings_ms: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_bench(dataset_dir, configs: list[RunConfig], gt_dir=None, generate_gt: bool = False) -> list[BenchRow]:
    """Score each config over every readable cloud in a directory.

    Reference labelings come from ``<stem>.labels.txt`` sidecars in
    ``gt_dir`` (or next to the clouds), or are generated on the fly with the
    default :class:`GtParams` when ``generate_gt=True``. Unreadable clouds
    are skipped and counted; the run fails only when no cloud could be
    processed. cKDTree is loaded before the first cloud, so no cloud's
    ``index`` stage times its import.
    """
    dataset_dir = Path(dataset_dir)
    paths = sorted(p for p in dataset_dir.iterdir() if p.suffix.lower() in (".ply", ".xyz"))
    load_ckdtree()
    per_config: list[list] = [[] for _ in configs]
    skipped = 0
    for path in paths:
        try:
            points = load_cloud(path)
            truth = _truth_for(path, points, gt_dir, generate_gt)
            cloud_results = []
            for config in configs:
                report = run_detect(points, config)
                cloud_results.append(
                    (
                        classification_accuracy(report.labeling, truth),
                        segmentation_accuracy(report.labeling, truth),
                        report.timings_ms,
                        report.pre_merge_count,
                        report.post_merge_count,
                    )
                )
        except (OSError, ValueError) as exc:  # unreadable, unparsable or mis-sized input
            skipped += 1
            logger.warning("skipping %s: %s", path, exc)
            continue
        for ci, result in enumerate(cloud_results):
            per_config[ci].append(result)
    n_done = len(per_config[0]) if configs else 0
    if n_done == 0:
        raise ValueError(f"no cloud in {dataset_dir} could be processed ({skipped} skipped)")

    rows = []
    for config, results in zip(configs, per_config):
        name = config.name or f"{config.detector}"
        timings = {k: [r[2][k] for r in results] for k in results[0][2]}
        rows.append(
            BenchRow(
                config_name=name,
                n_clouds=len(results),
                n_skipped=skipped,
                mean_classification=float(np.mean([r[0] for r in results])),
                mean_segmentation=float(np.mean([r[1] for r in results])),
                mean_timings_ms={k: float(np.mean(v)) for k, v in timings.items()},
                mean_pre_merge=float(np.mean([r[3] for r in results])),
                mean_post_merge=float(np.mean([r[4] for r in results])),
                median_timings_ms={k: float(np.median(v)) for k, v in timings.items()},
                p95_timings_ms={k: float(np.percentile(v, 95)) for k, v in timings.items()},
            )
        )
    return rows


def _truth_for(path: Path, points, gt_dir, generate_gt) -> SegmentLabeling:
    candidates = []
    if gt_dir is not None:
        candidates.append(Path(gt_dir) / (path.stem + ".labels.txt"))
    candidates.append(path.with_suffix(".labels.txt"))
    for cand in candidates:
        if cand.exists():
            truth = load_labeling(cand)
            if len(truth) != points.shape[0]:
                raise ValueError(f"labeling {cand} has {len(truth)} entries for {points.shape[0]} points")
            return truth
    if generate_gt:
        return generate_ground_truth(points, GtParams())
    raise FileNotFoundError(f"no ground-truth labeling for {path}")


def bench_table(rows: list[BenchRow]) -> str:
    """Aligned text rendering of bench results: mean stage times, then the
    median and 95th percentile of the total."""
    header = (f"{'config':<18} {'clouds':>6} {'class%':>8} {'segm%':>8} {'detect ms':>10} {'merge ms':>9} "
              f"{'total ms':>9} {'p50 ms':>8} {'p95 ms':>8} {'pre':>7} {'post':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.config_name:<18} {r.n_clouds:>6} {100 * r.mean_classification:>8.2f} "
            f"{100 * r.mean_segmentation:>8.2f} {r.mean_timings_ms.get('detection', 0.0):>10.1f} "
            f"{r.mean_timings_ms.get('merging', 0.0):>9.1f} {r.mean_timings_ms.get('total', 0.0):>9.1f} "
            f"{r.median_timings_ms.get('total', 0.0):>8.1f} {r.p95_timings_ms.get('total', 0.0):>8.1f} "
            f"{r.mean_pre_merge:>7.1f} {r.mean_post_merge:>7.1f}"
        )
    return "\n".join(lines)
