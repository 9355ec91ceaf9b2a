"""Command-line interface: synth, detect, gt, eval, bench.

Every parameter is a flag; a JSON config file can pre-fill them and explicit
flags win. Exit codes: 0 success, 2 bad input (a missing, unreadable or
unparsable file, an invalid config or flag value, a cloud without points or
too small for the local sampler), 3 empty result where a nonempty one was
required.
"""

import argparse
import errno
import functools
import json
import logging
import sys
import time
from pathlib import Path

from .fspf import CloudTooSmall
from .io import ParseError, load_cloud, load_labeling, save_labeled, save_labeling
from .kdtree import CloudTooWide, EmptyCloud, load_ckdtree
from .metrics import SizeMismatch, classification_accuracy, segmentation_accuracy
from .pipeline import ConfigError, RunConfig, bench_table, run_bench, run_detect
from .synthetic import InvalidSpec, box_room_scene, gen_synthetic
from .truth import GtParams, generate_ground_truth

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY = 3

logger = logging.getLogger(__name__)


# The flags that set run parameters: each one's (section, field) pairs, where
# section None names a field of the config itself, and its argparse options.
DETECT_FLAGS = {
    "--detector": ([(None, "detector")], {"choices": ("ops", "fspf")}),
    "--seed": ([(None, "seed")], {"type": int, "help": "seed of the run's one random stream (default 0)"}),
    "--sampling-rate": ([("ops", "sampling_rate")], {"type": float, "help": "ops: fraction of points to orient"}),
    "--knn": ([("ops", "k")], {"type": int, "help": "ops: neighbors for normal estimation"}),
    "--dist-threshold": ([("ops", "dist_threshold"), ("fspf", "dist_threshold")],
                         {"type": float, "help": "inlier distance (m), both detectors"}),
    "--min-inliers": ([("ops", "min_inliers")], {"type": int, "help": "ops: minimum sample support"}),
    "--probability": ([("ops", "probability")], {"type": float, "help": "ops: RANSAC success probability"}),
    "--r1": ([("fspf", "r1")], {"type": float, "help": "fspf: hypothesis sphere radius (m)"}),
    "--r2": ([("fspf", "r2")], {"type": float, "help": "fspf: verification sphere radius (m)"}),
    "--n-loc": ([("fspf", "local_samples")], {"type": int, "help": "fspf: local samples per iteration"}),
    "--alpha-min": ([("fspf", "min_inlier_fraction")], {"type": float, "help": "fspf: minimum inlier fraction"}),
    "--k-max": ([("fspf", "max_iterations")], {"type": int, "help": "fspf: iteration cap"}),
    "--n-max": ([("fspf", "max_inlier_points")], {"type": int, "help": "fspf: inlier-point budget"}),
    "--merge-angle": ([("merge", "angle_degrees")], {"type": float, "help": "merge: normal angle threshold (deg)"}),
    "--merge-offset": ([("merge", "offset")], {"type": float, "help": "merge: centroid offset threshold (m)"}),
    "--orientation-tol": ([(None, "orientation_tol_degrees")],
                          {"type": float, "help": "degrees for horizontal/vertical grouping and labels, in (0, 45)"}),
    "--up": ([(None, "up")], {"type": str, "help": "up axis as 'x,y,z' (default 0,0,1)"}),
}
GT_FLAGS = {
    "--gt-dist": ([(None, "dist_threshold")], {"type": float}),
    "--gt-angle": ([(None, "normal_angle_degrees")], {"type": float}),
    "--min-plane-size": ([(None, "min_plane_size")], {"type": int}),
    "--gt-knn": ([(None, "k")], {"type": int}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process (1.5 ms); parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="planeops", description="Plane detection in unorganized point clouds")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled cloud")
    p.add_argument("--scene", type=Path, help="scene description JSON")
    p.add_argument("--room-size", type=float, default=3.5, help="cubic room edge length (m)")
    p.add_argument("--points-per-face", type=int, default=1000)
    p.add_argument("--clutter", type=int, default=600)
    p.add_argument("--noise", type=float, help="isotropic noise sigma (m); default the scene's noise_sigma, else 0.005")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output PLY path")

    p = sub.add_parser("detect", help="detect planes and write labeled outputs")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--config", type=Path, help="RunConfig JSON; flags override")
    p.add_argument("--color-mode", choices=("segment", "orientation"), default="segment")
    for flag, (_, options) in DETECT_FLAGS.items():
        p.add_argument(flag, **options)

    p = sub.add_parser("gt", help="reference plane labeling for a cloud")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="labeling sidecar path")
    p.add_argument("--ply", type=Path, help="optional colored PLY output")
    for flag, (_, options) in GT_FLAGS.items():
        p.add_argument(flag, **options)

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


def _read_json(path: Path):
    """The JSON value in ``path``; ParseError naming the file if it holds none."""
    try:
        return json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:  # undecodable bytes, malformed or too deeply nested JSON
        raise ParseError(f"not a JSON file: {exc}", path=path) from exc


def _write_flags(d: dict, args, table: dict) -> dict:
    """Write each flag of ``table`` that ``args`` gives over the fields it sets in ``d``."""
    for flag, (fields, _) in table.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag == "--up":
            value = [float(v) for v in value.split(",")]
        for section, name in fields:
            if section is None:
                d[name] = value
            else:  # a null section holds the defaults, as in from_dict
                d[section] = {**(d[section] if d.get(section) is not None else {}), name: value}
    return d


def _detect_config(args) -> RunConfig:
    """The config file's dict, or ``{}``, with the given flags written over
    it and checked once by ``RunConfig.from_dict``; an invalid value raises
    ConfigError. A value that a flag replaces is never checked."""
    d = _read_json(args.config) if args.config else {}
    if isinstance(d, dict):  # from_dict rejects anything else
        try:
            _write_flags(d, args, DETECT_FLAGS)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
    return RunConfig.from_dict(d)


def _check_out(*paths: Path | None, directory: bool = False) -> None:
    """Raise the OSError that writing a path would raise, if it or its
    nearest existing ancestor exists as the wrong kind, so that a bad output
    path fails before the work; nothing is created. None stands for an
    output not asked for."""
    for path in filter(None, paths):
        if directory and path.exists() and not path.is_dir():
            raise FileExistsError(errno.EEXIST, "exists and is not a directory", str(path))
        if not directory and path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))
        ancestor = next((parent for parent in path.parents if parent.exists()), None)
        if ancestor is not None and not ancestor.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, f"{ancestor} is not a directory", str(path))


def _cmd_synth(args) -> int:
    _check_out(args.out, args.out.with_suffix(".labels.txt"))
    if args.scene:
        scene = _read_json(args.scene)
    else:
        scene = box_room_scene(args.room_size, args.points_per_face, args.clutter)
    noise = args.noise
    if noise is None:  # the flag wins over the scene's noise_sigma
        noise = scene.get("noise_sigma", 0.005) if isinstance(scene, dict) else 0.005
    points, truth = gen_synthetic(scene, noise_sigma=noise, seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_labeled(points, truth, args.out, mode="segment")
    save_labeling(truth, args.out.with_suffix(".labels.txt"))
    print(f"wrote {points.shape[0]} points to {args.out} "
          f"({truth.segment_ids().size} segments, sidecar {args.out.with_suffix('.labels.txt')})")
    return EXIT_OK


def _cmd_detect(args) -> int:
    """Load, detect, write. The report's ``timings_ms`` gains ``load`` and
    ``write`` (the labeled PLY and the sidecar); ``total`` runs from the
    start of the load to the end of those writes, and ``other`` takes up the
    untimed rest. Writing the report itself comes after and is not timed.
    cKDTree is loaded before the clock starts, so ``index`` times the tree
    build alone."""
    config = _detect_config(args)
    _check_out(args.out, directory=True)
    load_ckdtree()
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
    save_labeled(points, report.labeling, labeled_ply, mode=args.color_mode)
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
        params = GtParams(**_write_flags({}, args, GT_FLAGS))
    except ValueError as exc:
        raise ConfigError(f"invalid flag value: {exc}") from exc
    _check_out(args.out, args.ply)
    points = load_cloud(args.input)
    labeling = generate_ground_truth(points, params)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_labeling(labeling, args.out)
    if args.ply:
        save_labeled(points, labeling, args.ply, mode="segment")
    print(f"{labeling.segment_ids().size} segments over {points.shape[0]} points -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_out(args.json)
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
    raw = _read_json(args.configs)
    if not isinstance(raw, list) or not raw:
        raise ParseError("configs file must hold a nonempty JSON list", path=args.configs)
    configs = [RunConfig.from_dict(d) for d in raw]
    _check_out(args.out)
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
    except (ParseError, ConfigError, EmptyCloud, CloudTooWide, CloudTooSmall, InvalidSpec, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
