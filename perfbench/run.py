"""planeops benchmark: closed-loop CLI workloads on synthetic box rooms.

    python3 perfbench/run.py --workload room_ops_325k --seed 3 --seconds 30 --trace 0

Run from the repository root. The workload seed goes to ``planeops synth
--seed``; the program under test sees only the files it generated. One
process drives ``planeops.cli.main`` in-process with one client in a closed
loop: a cloud starts only after the previous one finished and was checked.

Every operation is checked (exit code, expected files, sidecar read back and
validated, outputs equal to the first run of the same cloud except for the
report's ``timings_ms``). Untraced operations and synth calls sample the
host's speed while they run (see ``calibration.py``), and their times are
reported at nominal host speed. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same loop untraced and then traced, and prints the
per-layer metrics taken from spans (see ``spans.py``). The last stdout line
is the result JSON; the line before it holds provenance and details, which
also go to ``.perfbench/`` with the spans of a traced run.
"""

import os

# One BLAS thread: the targets are single-threaded, and a shared two-core
# machine is steadier without BLAS workers competing with the interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibration import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TRUE_PLANES = 6  # faces of the box room

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("cloud_nominal_s", "s", "lower"),
    ("points_per_nominal_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("seg_acc", "fraction", "higher"),
    ("class_acc", "fraction", "higher"),
    ("plane_count_factor", "ratio", "lower"),
    ("ok_frac", "fraction", "higher"),
]

PER_LAYER = [(name, unit, "higher" if name.endswith("accept_ratio") else "lower") for name, unit in [
    ("kdtree.build_s", "s"), ("kdtree.knn_calls", "count"), ("kdtree.knn_s", "s"),
    ("kdtree.radius_calls", "count"), ("kdtree.radius_s", "s"), ("kdtree.radius_hits", "count"),
    ("normals.sample_s", "s"), ("normals.self_s", "s"), ("normals.points", "count"),
    ("normals.degenerate", "count"),
    ("ops.ransac_calls", "count"), ("ops.ransac_iterations", "count"), ("ops.ransac_s", "s"),
    ("ops.no_plane", "count"), ("ops.verify_calls", "count"), ("ops.verify_s", "s"),
    ("ops.planes", "count"), ("ops.accept_ratio", "ratio"),
    ("fspf.iterations", "count"), ("fspf.hypotheses", "count"), ("fspf.planes", "count"),
    ("fspf.accept_ratio", "ratio"), ("fspf.self_s", "s"),
    ("merge.s", "s"), ("merge.dedupe_s", "s"), ("merge.planes_in", "count"),
    ("merge.planes_out", "count"), ("merge.refits", "count"),
    ("geometry.fit_plane_calls", "count"), ("geometry.fit_plane_s", "s"),
    ("pipeline.label_s", "s"), ("pipeline.self_s", "s"),
    ("truth.grow_self_s", "s"), ("truth.segments", "count"),
    ("metrics.segmentation_s", "s"), ("metrics.classification_s", "s"),
    ("io.load_cloud_s", "s"), ("io.save_labeled_s", "s"), ("io.save_labeling_s", "s"),
    ("io.load_labeling_s", "s"), ("io.bytes_written", "bytes"),
    ("cli.self_s", "s"), ("trace.cloud_p10_s", "s"), ("trace.overhead_s", "s"), ("trace.untimed_s", "s"),
]]


@dataclass(frozen=True)
class Workload:
    points_per_face: int
    clutter: int
    clouds: int  # distinct clouds the closed loop cycles through
    kind: str  # "detect" or "gt"
    detect_flags: tuple = ()

    @property
    def n_points(self) -> int:
        return 6 * self.points_per_face + self.clutter


def _fspf(points_per_face: int, clutter: int, clouds: int) -> Workload:
    """The acceptance-suite FSPF preset: inlier budget = cloud size, wide merge."""
    n = 6 * points_per_face + clutter
    flags = ("--detector", "fspf", "--n-max", str(n), "--merge-angle", "10", "--merge-offset", "0.075")
    return Workload(points_per_face, clutter, clouds, "detect", flags)


WORKLOADS = {
    "room_ops_325k": Workload(50000, 25000, 4, "detect"),
    "room_fspf_23k": _fspf(3500, 1750, 12),
    "room_gt_13k": Workload(2000, 1000, 8, "gt"),
}
SMOKE = {
    "room_ops_325k": Workload(1000, 500, 1, "detect"),
    "room_fspf_23k": _fspf(1000, 500, 1),
    "room_gt_13k": Workload(300, 150, 1, "gt"),
}


def fast(values) -> float:
    """The 10th percentile of ``values``, interpolated between samples.

    The host switches, every fraction of a second, between fast phases and
    phases up to 1.8 times slower, so times pile up in two modes. A median
    flips between the modes as their shares drift; a low percentile stays
    with the fast one.
    """
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def cloud_time(times: list[tuple[int, float]], stat=statistics.median) -> float:
    """Mean over the clouds of ``stat`` of each cloud's operation times, so
    that which clouds happen to be cheap does not decide the figure."""
    by_cloud: dict[int, list[float]] = {}
    for i, t in times:
        by_cloud.setdefault(i, []).append(t)
    return statistics.fmean(stat(ts) for ts in by_cloud.values())


class OperationFailed(Exception):
    """An operation broke one of the output checks."""


def _import_planeops():
    if not (SRC / "planeops" / "__init__.py").is_file():
        sys.exit(f"error: {SRC} holds no planeops package; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import planeops

    if Path(planeops.__file__).resolve().parent != SRC / "planeops":
        sys.exit(f"error: imported planeops from {planeops.__file__}, not {SRC}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One workload in one process: set-up, warm-up, closed loops, checks."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from planeops import cli

        self.cli = cli
        self.w, self.seed, self.work = workload, seed, work
        self.clouds = [work / f"cloud{i}.ply" for i in range(workload.clouds)]
        self.reference: dict[int, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[tuple[float, float]] = []  # wall time and host speed of each synth
        self.host = HostSpeed()

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def synth(self, i: int, out: Path) -> None:
        """Generate cloud ``i`` at ``out`` and record how long it took."""
        argv = ["synth", "--points-per-face", str(self.w.points_per_face), "--clutter",
                str(self.w.clutter), "--seed", str(self.seed * 1000 + i), "--out", str(out)]
        self.host.start()
        try:
            t0 = perf_counter()
            rc = self._main(argv)
            seconds = perf_counter() - t0
        finally:
            speed = self.host.stop()
        self.setup_s.append((seconds, speed))
        if rc != 0:
            raise OperationFailed(f"synth exited {rc}")

    def setup(self) -> None:
        for i, cloud in enumerate(self.clouds):
            self.synth(i, cloud)

    def resynth(self, i: int) -> None:
        """Set cloud ``i`` up again between operations; synth must reproduce it.

        This spreads the set-up samples over the whole run, so their median
        sees the same machine as the operations' median does.
        """
        copy = self.work / "resynth.ply"
        self.synth(i, copy)
        for made, original in ((copy, self.clouds[i]), (copy.with_suffix(".labels.txt"),
                                                         self.clouds[i].with_suffix(".labels.txt"))):
            if made.read_bytes() != original.read_bytes():
                raise OperationFailed(f"synth did not reproduce {original.name}")

    # -- one operation ---------------------------------------------------

    def _outputs(self, i: int) -> dict:
        out, stem = self.work / f"out{i}", self.clouds[i].stem
        if self.w.kind == "detect":
            return {"ply": out / f"{stem}.labeled.ply", "labels": out / f"{stem}.labels.txt",
                    "report": out / f"{stem}.report.json"}
        return {"labels": out / f"{stem}.gt.labels.txt", "scores": out / f"{stem}.eval.json"}

    def _argvs(self, i: int) -> list[list[str]]:
        cloud, files = str(self.clouds[i]), self._outputs(i)
        if self.w.kind == "detect":
            return [["detect", "--input", cloud, "--out", str(self.work / f"out{i}"), *self.w.detect_flags]]
        truth = str(self.clouds[i].with_suffix(".labels.txt"))
        return [["gt", "--input", cloud, "--out", str(files["labels"])],
                ["eval", "--pred", str(files["labels"]), "--truth", truth, "--json", str(files["scores"])]]

    def operation(self, i: int, tracer=None) -> tuple[float, float] | None:
        """Process cloud ``i`` once and check it; its wall time and the host's
        speed during it (1.0 when traced), or None on failure."""
        files = self._outputs(i)
        for path in files.values():
            path.unlink(missing_ok=True)
        self.attempted += 1
        try:
            seconds, speed = self._timed(self._argvs(i), tracer)
            self.check(i, files)
            if tracer is None:
                self.resynth(i)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failures.append(f"cloud {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        return seconds, speed

    def _timed(self, argvs: list[list[str]], tracer) -> tuple[float, float]:
        """Run one operation's commands; wall time and host speed.

        Untraced operations sample the host's speed while they run. Traced
        ones do not, so that the ticks do not show up in the spans.
        """
        if tracer is None:
            self.host.start()
        try:
            t0 = perf_counter()
            for argv in argvs:
                if tracer is None:
                    rc = self._main(argv)
                else:
                    span = tracer.open("cli.main")
                    try:
                        rc = self._main(argv)
                    finally:
                        tracer.close(span)
                if rc != 0:
                    raise OperationFailed(f"{argv[0]} exited {rc}")
            seconds = perf_counter() - t0
        finally:
            speed = self.host.stop() if tracer is None else 1.0
        return seconds, speed

    def check(self, i: int, files: dict) -> None:
        """Expected files exist and match the first run of this cloud.

        The first run of a cloud also reads its sidecar back (length N,
        ``SegmentLabeling.validate``) and scores it against the synth truth;
        later runs must reproduce its bytes, so they pass the same checks.
        """
        for path in files.values():
            if not path.is_file():
                raise OperationFailed(f"missing output {path.name}")
        digest = {k: _sha256(p) for k, p in files.items() if k != "report"}
        if "report" in files:
            report = json.loads(files["report"].read_text())
            report.pop("timings_ms")
            digest["report"] = report
        ref = self.reference.get(i)
        if ref is None:
            self.reference[i] = {"digest": digest, **self._score(i, files)}
        elif ref["digest"] != digest:
            changed = sorted(k for k in digest if digest[k] != ref["digest"][k])
            raise OperationFailed(f"outputs differ from the first run: {changed}")

    def _score(self, i: int, files: dict) -> dict:
        from planeops.io import load_labeling
        from planeops.metrics import classification_accuracy, segmentation_accuracy

        pred = load_labeling(files["labels"])
        if len(pred) != self.w.n_points:
            raise OperationFailed(f"sidecar has {len(pred)} labels for {self.w.n_points} points")
        pred.validate()
        truth = load_labeling(self.clouds[i].with_suffix(".labels.txt"))
        scores = {"seg_acc": segmentation_accuracy(pred, truth),
                  "class_acc": classification_accuracy(pred, truth),
                  "planes": int(pred.segment_ids().size)}
        if "scores" in files:
            reported = json.loads(files["scores"].read_text())
            if (reported["segmentation_accuracy"], reported["classification_accuracy"]) != (
                    scores["seg_acc"], scores["class_acc"]):
                raise OperationFailed(f"eval reported {reported}, expected {scores}")
        return scores

    # -- loops -----------------------------------------------------------

    def loop(self, seconds: float, tracer=None) -> list[tuple[int, float, float]]:
        """Closed loop over the cloud list for about ``seconds``; cloud index,
        wall time and host speed of each operation that passed its checks.

        Every cloud runs at least once. After that, an untraced loop starts
        no operation it expects to end past ``seconds``. A traced loop runs
        whole passes, so its per-operation counts average over the same
        clouds every run.
        """
        times = []
        start = perf_counter()
        n = len(self.clouds)
        done = 0
        last = 0.0
        while True:
            elapsed = perf_counter() - start
            if done >= n:
                if tracer is None and elapsed + last > seconds:
                    break
                if tracer is not None and done % n == 0 and elapsed >= seconds:
                    break
            if tracer is not None:
                tracer.op = self.attempted
            t0 = perf_counter()
            timed = self.operation(done % n, tracer)
            last = perf_counter() - t0
            if timed is not None:
                times.append((done % n, *timed))
            done += 1
            if done == n and not times:  # the whole first pass failed
                break
        return times


def _factor(planes: int) -> float:
    """How many times too many (or too few) planes: 1.0 when exact."""
    return max(planes, TRUE_PLANES) / max(min(planes, TRUE_PLANES), 1)


def end_to_end(bench: Bench, times: list[tuple[int, float, float]]) -> dict:
    refs = [bench.reference[i] for i in sorted(bench.reference)]
    cloud_s = cloud_time([(i, t * speed) for i, t, speed in times])
    return {
        "setup_s": statistics.median(t * speed for t, speed in bench.setup_s),
        "cloud_nominal_s": cloud_s,
        "points_per_nominal_s": bench.w.n_points / cloud_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "seg_acc": statistics.fmean(r["seg_acc"] for r in refs),
        "class_acc": statistics.fmean(r["class_acc"] for r in refs),
        "plane_count_factor": statistics.fmean(_factor(r["planes"]) for r in refs),
        "ok_frac": 1.0 - len(bench.failures) / bench.attempted,
    }


def layer_values(spans: list[dict]) -> dict:
    """Per-layer metrics of one operation from its spans."""
    from spans import self_time

    dur, self_s, calls, attrs = {}, {}, {}, {}
    hot: dict[str, list] = {}
    for s in spans:
        name = s["name"]
        dur[name] = dur.get(name, 0.0) + s["end"] - s["start"]
        self_s[name] = self_s.get(name, 0.0) + self_time(s)
        calls[name] = calls.get(name, 0) + 1
        for k, v in s["attrs"].items():
            if not isinstance(v, str):
                attrs.setdefault(name, {}).setdefault(k, []).append(v)
        for key, stat in s["hot"].items():
            acc = hot.setdefault(key, [0, 0.0, 0])
            for j in range(3):
                acc[j] += stat[j]

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def a(name, key):
        return sum(attrs.get(name, {}).get(key, []))

    fspf = [s for s in spans if s["name"] == "pipeline.fspf_detect"]
    radius = {k: v for k, v in hot.items() if k.startswith("kdtree.radius_search@")}
    r1_keys = {f"kdtree.radius_search@{s['attrs']['r1']!r}" for s in fspf}
    r2_keys = {f"kdtree.radius_search@{s['attrs']['r2']!r}" for s in fspf}
    fspf_iterations = sum(hot[k][0] for k in r1_keys if k in hot)
    fspf_hypotheses = sum(hot[k][0] for k in r2_keys if k in hot)
    fit = [n for n in calls if n.endswith(".fit_plane")]
    ransac_calls = calls.get("ops.one_point_ransac", 0)
    ops_planes = a("pipeline.detect_grouped", "planes")
    fspf_planes = a("pipeline.fspf_detect", "planes")
    knn = hot.get("kdtree.knn", [0, 0.0, 0])
    return {
        "kdtree.build_s": d("pipeline.KdTree", "truth.KdTree"),
        "kdtree.knn_calls": knn[0],
        "kdtree.knn_s": knn[1],
        "kdtree.radius_calls": sum(v[0] for v in radius.values()),
        "kdtree.radius_s": sum(v[1] for v in radius.values()),
        "kdtree.radius_hits": sum(v[2] for v in radius.values()),
        "normals.sample_s": d("pipeline.sample_indices"),
        "normals.self_s": sum(self_s.get(n, 0.0) for n in ("pipeline.estimate_normals", "truth.estimate_normals")),
        "normals.points": a("pipeline.estimate_normals", "points") + a("truth.estimate_normals", "points"),
        "normals.degenerate": (a("pipeline.estimate_normals", "degenerate")
                               + a("truth.estimate_normals", "degenerate")),
        "ops.ransac_calls": ransac_calls,
        "ops.ransac_iterations": a("ops.one_point_ransac", "iterations"),
        "ops.ransac_s": d("ops.one_point_ransac"),
        "ops.no_plane": sum(1 for s in spans if s["name"] == "ops.one_point_ransac"
                            and s["attrs"].get("error") == "NoPlaneFound"),
        "ops.verify_calls": calls.get("ops.extract_full_inliers", 0),
        "ops.verify_s": d("ops.extract_full_inliers"),
        "ops.planes": ops_planes,
        "ops.accept_ratio": ops_planes / ransac_calls if ransac_calls else 0.0,
        "fspf.iterations": fspf_iterations,
        "fspf.hypotheses": fspf_hypotheses,
        "fspf.planes": fspf_planes,
        "fspf.accept_ratio": fspf_planes / fspf_hypotheses if fspf_hypotheses else 0.0,
        "fspf.self_s": self_s.get("pipeline.fspf_detect", 0.0),
        "merge.s": d("pipeline.merge_all"),
        "merge.dedupe_s": d("merge.dedupe_inliers"),
        "merge.planes_in": a("pipeline.merge_all", "planes_in"),
        "merge.planes_out": a("pipeline.merge_all", "planes_out"),
        "merge.refits": calls.get("merge.fit_plane", 0),
        "geometry.fit_plane_calls": sum(calls[n] for n in fit),
        "geometry.fit_plane_s": d(*fit),
        "pipeline.label_s": d("pipeline.labeling_from_inliers", "pipeline.assign_to_planes"),
        "pipeline.self_s": self_s.get("cli.run_detect", 0.0),
        "truth.grow_self_s": self_s.get("cli.generate_ground_truth", 0.0),
        "truth.segments": a("cli.generate_ground_truth", "segments"),
        "metrics.segmentation_s": d("cli.segmentation_accuracy"),
        "metrics.classification_s": d("cli.classification_accuracy"),
        "io.load_cloud_s": d("cli.load_cloud"),
        "io.save_labeled_s": d("cli.save_labeled"),
        "io.save_labeling_s": d("cli.save_labeling"),
        "io.load_labeling_s": d("cli.load_labeling"),
        "io.bytes_written": a("cli.save_labeled", "bytes") + a("cli.save_labeling", "bytes"),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """Untraced loop, then the same loop traced; per-layer metrics and spans."""
    from spans import Tracer, check_spans, install, uninstall

    untraced = bench.loop(seconds / 2)
    tracer = Tracer()
    first_op = bench.attempted
    saved = install(tracer)
    try:
        traced = bench.loop(seconds / 2, tracer)
    finally:
        uninstall(saved)
    by_op: dict[int, list[dict]] = {}
    for s in tracer.spans:
        by_op.setdefault(s["op"], []).append(s)
    problems = check_spans(tracer.spans)
    if len(traced) != len(by_op) or set(by_op) != set(range(first_op, bench.attempted)):
        problems.append(f"{len(traced)} traced operations passed, spans cover {len(by_op)}")
        return {}, tracer.spans, problems
    per_op = [layer_values(spans) for spans in by_op.values()]
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (fast if units[name] == "s" else statistics.fmean)([v[name] for v in per_op])
               for name in per_op[0]}
    # Root spans are the cli.main calls; whatever the operation's wall time
    # holds beyond them was not traced.
    root_s = [sum(s["end"] - s["start"] for s in spans if s["parent"] is None) for spans in by_op.values()]
    wall = [(i, t) for i, t, _ in traced]
    metrics["trace.cloud_p10_s"] = cloud_time(wall, fast)
    metrics["trace.overhead_s"] = cloud_time(wall, fast) - cloud_time([(i, t) for i, t, _ in untraced], fast)
    metrics["trace.untimed_s"] = fast(w - r for (_, w), r in zip(wall, root_s))
    return metrics, tracer.spans, problems


# -- provenance --------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads():
    """Thread count of every loaded OpenBLAS, read through its own API."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": tree.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny clouds, one of each, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_planeops()
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, work)
        bench.setup()
        bench.operation(0)  # warm-up: untimed, but checked and counted
        details = {"workload": args.workload, "smoke": args.smoke, "clouds": workload.clouds,
                   "points": workload.n_points}
        if args.trace:
            metrics, spans, problems = per_layer(bench, args.seconds)
            details["trace_problems"] = problems
            spans_path = OUT / f"spans-{tag}.jsonl"
            spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
            details["spans"] = str(spans_path.relative_to(ROOT))
            table = PER_LAYER
        else:
            times = bench.loop(args.seconds)
            metrics = end_to_end(bench, times) if times else {}
            details.update(cloud_samples=len(times), setup_samples=len(bench.setup_s),
                           setup_wall_p10_s=fast(t for t, _ in bench.setup_s))
            if times:
                details.update(cloud_wall_p10_s=cloud_time([(i, t) for i, t, _ in times], fast),
                               cloud_wall_median_s=statistics.median(t for _, t, _ in times),
                               host_speed_median=statistics.median(v for _, _, v in times))
            details.update(cloud_s_each=times, setup_s_each=bench.setup_s)
            table = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(
        attempted=bench.attempted, failed=len(bench.failures), failures=bench.failures,
        failed_frac=len(bench.failures) / bench.attempted,
        per_cloud=[{k: v for k, v in ref.items() if k != "digest"} for _, ref in sorted(bench.reference.items())],
        plane_count_err=[abs(ref["planes"] - TRUE_PLANES) for _, ref in sorted(bench.reference.items())],
        provenance=provenance(args.seed),
    )
    result = {
        "correct": not bench.failures and not details.get("trace_problems") and len(metrics) == len(table),
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": float(metrics.get(name, "nan")), "unit": unit} for name, unit, _ in table},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "details": details}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
