"""Command-line interface: synth, detect, gt, eval, bench.

Every parameter is a flag; a JSON config file can pre-fill them and explicit
flags win. Exit codes: 0 success, 2 bad input (an unparsable file, an
invalid config or flag value, a cloud without points or too small for the
local sampler), 3 empty result where a nonempty one was required.
"""

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

from .fspf import CloudTooSmall
from .io import ParseError, load_cloud, load_labeling, save_labeled, save_labeling
from .kdtree import EmptyCloud
from .metrics import SizeMismatch, classification_accuracy, segmentation_accuracy
from .pipeline import ConfigError, RunConfig, bench_table, run_bench, run_detect
from .synthetic import InvalidSpec, box_room_scene, gen_synthetic
from .truth import GtParams, generate_ground_truth

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY = 3

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planeops", description="Plane detection in unorganized point clouds")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled cloud")
    p.add_argument("--scene", type=Path, help="scene description JSON")
    p.add_argument("--room-size", type=float, default=3.5, help="cubic room edge length (m)")
    p.add_argument("--points-per-face", type=int, default=1000)
    p.add_argument("--clutter", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.005, help="isotropic noise sigma (m)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output PLY path")

    p = sub.add_parser("detect", help="detect planes and write labeled outputs")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--config", type=Path, help="RunConfig JSON; flags override")
    p.add_argument("--detector", choices=("ops", "fspf"))
    p.add_argument("--seed", type=int, help="seed of the run's one random stream (default 0)")
    p.add_argument("--color-mode", choices=("segment", "orientation"), default="segment")
    p.add_argument("--sampling-rate", type=float, help="ops: fraction of points to orient")
    p.add_argument("--knn", type=int, help="ops: neighbors for normal estimation")
    p.add_argument("--dist-threshold", type=float, help="inlier distance (m), both detectors")
    p.add_argument("--min-inliers", type=int, help="ops: minimum sample support")
    p.add_argument("--probability", type=float, help="ops: RANSAC success probability")
    p.add_argument("--r1", type=float, help="fspf: hypothesis sphere radius (m)")
    p.add_argument("--r2", type=float, help="fspf: verification sphere radius (m)")
    p.add_argument("--n-loc", type=int, help="fspf: local samples per iteration")
    p.add_argument("--alpha-min", type=float, help="fspf: minimum inlier fraction")
    p.add_argument("--k-max", type=int, help="fspf: iteration cap")
    p.add_argument("--n-max", type=int, help="fspf: inlier-point budget")
    p.add_argument("--merge-angle", type=float, help="merge: normal angle threshold (deg)")
    p.add_argument("--merge-offset", type=float, help="merge: centroid offset threshold (m)")
    p.add_argument("--orientation-tol", type=float,
                   help="degrees for horizontal/vertical grouping and labels, in (0, 45)")
    p.add_argument("--up", type=str, help="up axis as 'x,y,z' (default 0,0,1)")

    p = sub.add_parser("gt", help="reference plane labeling for a cloud")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="labeling sidecar path")
    p.add_argument("--ply", type=Path, help="optional colored PLY output")
    p.add_argument("--gt-dist", type=float, default=0.05)
    p.add_argument("--gt-angle", type=float, default=7.0)
    p.add_argument("--min-plane-size", type=int, default=50)
    p.add_argument("--gt-knn", type=int, default=10)

    p = sub.add_parser("eval", help="score a predicted labeling against a reference")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--json", type=Path, help="also write the scores as JSON")

    p = sub.add_parser("bench", help="aggregate accuracy/time over a cloud directory")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--configs", type=Path, required=True, help="JSON list of RunConfig dicts")
    p.add_argument("--gt-dir", type=Path, help="directory of *.labels.txt references")
    p.add_argument("--gen-gt", action="store_true", help="generate references on the fly")
    p.add_argument("--out", type=Path, help="write rows as JSON")
    return parser


def _given(values: dict) -> dict:
    return {name: value for name, value in values.items() if value is not None}


def _detect_config(args) -> RunConfig:
    """The config file's RunConfig (or the default) with the flags applied.

    Every params object is rebuilt, so its validation sees the flag values;
    an invalid value raises ConfigError.
    """
    config = RunConfig.from_dict(json.loads(args.config.read_text())) if args.config else RunConfig()
    top = {"detector": args.detector, "seed": args.seed, "orientation_tol_degrees": args.orientation_tol}
    ops = {
        "sampling_rate": args.sampling_rate, "k": args.knn, "dist_threshold": args.dist_threshold,
        "min_inliers": args.min_inliers, "probability": args.probability,
    }
    fspf = {
        "r1": args.r1, "r2": args.r2, "local_samples": args.n_loc,
        "min_inlier_fraction": args.alpha_min, "max_iterations": args.k_max,
        "max_inlier_points": args.n_max, "dist_threshold": args.dist_threshold,
    }
    merge = {"angle_degrees": args.merge_angle, "offset": args.merge_offset}
    try:
        if args.up is not None:
            top["up"] = tuple(float(v) for v in args.up.split(","))
        return dataclasses.replace(
            config, **_given(top),
            ops=dataclasses.replace(config.ops, **_given(ops)),
            fspf=dataclasses.replace(config.fspf, **_given(fspf)),
            merge=dataclasses.replace(config.merge, **_given(merge)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid flag value: {exc}") from exc


def _cmd_synth(args) -> int:
    if args.scene:
        scene = json.loads(args.scene.read_text())
        noise = scene.get("noise_sigma", args.noise) if isinstance(scene, dict) else args.noise
    else:
        scene = box_room_scene(args.room_size, args.points_per_face, args.clutter)
        noise = args.noise
    points, truth = gen_synthetic(scene, noise_sigma=noise, seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_labeled(points, truth, args.out, mode="segment")
    print(f"wrote {points.shape[0]} points to {args.out} "
          f"({truth.segment_ids().size} segments, sidecar {args.out.with_suffix('.labels.txt')})")
    return EXIT_OK


def _cmd_detect(args) -> int:
    """Load, detect, write. The report's ``timings_ms`` gains ``load`` and
    ``write`` (the labeled PLY and the sidecar); ``total`` runs from the
    start of the load to the end of those writes, and ``other`` takes up the
    untimed rest. Writing the report itself comes after and is not timed."""
    config = _detect_config(args)
    start = time.perf_counter()
    points = load_cloud(args.input)
    loaded = time.perf_counter()
    report = run_detect(points, config)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.input.stem
    labeled_ply = args.out / f"{stem}.labeled.ply"
    sidecar = args.out / f"{stem}.labels.txt"
    report_path = args.out / f"{stem}.report.json"
    writing = time.perf_counter()
    save_labeled(points, report.labeling, labeled_ply, mode=args.color_mode, sidecar=False)
    save_labeling(report.labeling, sidecar)
    end = time.perf_counter()
    timings = report.timings_ms
    timings["load"], timings["write"] = 1000.0 * (loaded - start), 1000.0 * (end - writing)
    timings["total"] = 1000.0 * (end - start)
    timings["other"] = timings["total"] - sum(v for k, v in timings.items() if k not in ("other", "total"))
    report_path.write_text(report.to_json() + "\n")
    print(f"{report.detector}: {report.post_merge_count} planes "
          f"({report.pre_merge_count} before merging) on {report.n_points} points "
          f"in {report.timings_ms['total']:.1f} ms")
    for plane in report.planes:
        print(f"  plane {plane.id}: {plane.inlier_count} points, {plane.orientation}")
    print(f"wrote {labeled_ply}, {sidecar}, {report_path}")
    if report.post_merge_count == 0:
        return EXIT_EMPTY
    return EXIT_OK


def _cmd_gt(args) -> int:
    try:
        params = GtParams(
            dist_threshold=args.gt_dist, normal_angle_degrees=args.gt_angle,
            min_plane_size=args.min_plane_size, k=args.gt_knn,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid flag value: {exc}") from exc
    points = load_cloud(args.input)
    labeling = generate_ground_truth(points, params)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_labeling(labeling, args.out)
    if args.ply:
        save_labeled(points, labeling, args.ply, mode="segment", sidecar=False)
    print(f"{labeling.segment_ids().size} segments over {points.shape[0]} points -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    pred = load_labeling(args.pred)
    truth = load_labeling(args.truth)
    try:
        scores = {
            "classification_accuracy": classification_accuracy(pred, truth),
            "segmentation_accuracy": segmentation_accuracy(pred, truth),
        }
    except SizeMismatch as exc:
        raise ParseError(str(exc), path=args.pred) from exc
    print(f"classification accuracy: {scores['classification_accuracy']:.4f}")
    print(f"segmentation accuracy:   {scores['segmentation_accuracy']:.4f}")
    if args.json:
        args.json.write_text(json.dumps(scores, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    raw = json.loads(args.configs.read_text())
    if not isinstance(raw, list) or not raw:
        raise ParseError("configs file must hold a nonempty JSON list", path=args.configs)
    configs = [RunConfig.from_dict(d) for d in raw]
    try:
        rows = run_bench(args.dataset, configs, gt_dir=args.gt_dir, generate_gt=args.gen_gt)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    print(bench_table(rows))
    if args.out:
        args.out.write_text(json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True) + "\n")
    return EXIT_OK


COMMANDS = {
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "gt": _cmd_gt,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return COMMANDS[args.command](args)
    except (ParseError, ConfigError, EmptyCloud, CloudTooSmall, InvalidSpec, json.JSONDecodeError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
