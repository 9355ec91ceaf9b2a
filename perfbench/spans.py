"""Spans around planeops' layer boundaries, recorded from outside the package.

``install(tracer)`` swaps public names in the module globals the package
calls through (and the two ``KdTree`` query methods) for wrappers that open a
span, call the original and return its result unchanged. ``uninstall``
restores the originals. Nothing in the package is edited.

A span records name, start, end, parent and the id of the cloud operation it
belongs to. The per-point queries ``KdTree.knn`` and
``KdTree.radius_search`` are too frequent for one span each: they are counted
and timed on the span that is open when they run. A span's self time is its
duration minus its child spans and those query times.
"""

import inspect
import os
from time import perf_counter

import planeops.cli
import planeops.fspf
import planeops.kdtree
import planeops.merge
import planeops.ops
import planeops.pipeline
import planeops.truth

# (module, global name) pairs wrapped in a span named "<module>.<name>".
SPANNED = [
    (planeops.cli, name) for name in (
        "load_cloud", "run_detect", "save_labeled", "save_labeling", "load_labeling",
        "generate_ground_truth", "segmentation_accuracy", "classification_accuracy")
] + [
    (planeops.pipeline, name) for name in (
        "KdTree", "sample_indices", "estimate_normals", "detect_grouped", "fspf_detect",
        "merge_all", "labeling_from_inliers", "assign_to_planes")
] + [
    (planeops.ops, "one_point_ransac"), (planeops.ops, "extract_full_inliers"),
    (planeops.merge, "dedupe_inliers"),
    (planeops.truth, "KdTree"), (planeops.truth, "estimate_normals"),
] + [(module, "fit_plane") for module in (planeops.ops, planeops.merge, planeops.fspf, planeops.truth)]

HOT_METHODS = ("knn", "radius_search")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = None

    def open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans), "name": name, "op": self.op,
            "parent": parent["id"] if parent else None,
            "start": 0.0, "end": 0.0, "child_s": 0.0, "hot": {}, "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def hot(self, key: str, seconds: float, hits: int) -> None:
        if not self._stack:
            return
        stat = self._stack[-1]["hot"].setdefault(key, [0, 0.0, 0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += hits


def self_time(span: dict) -> float:
    hot = sum(stat[1] for stat in span["hot"].values())
    return span["end"] - span["start"] - span["child_s"] - hot


def _bound_args(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _note(name: str, fn, args, kwargs, result) -> dict:
    """Counts a span records about its call; computed after the span closes."""
    short = name.split(".", 1)[1]
    if short == "estimate_normals":
        _, _, valid = result
        return {"points": int(valid.size), "degenerate": int(valid.size - valid.sum())}
    if short == "one_point_ransac":
        return {"iterations": int(result.iterations)}
    if short in ("detect_grouped", "fspf_detect"):
        attrs = {"planes": len(result)}
        if short == "fspf_detect":
            params = _bound_args(fn, args, kwargs)["params"]
            attrs.update(r1=params.r1, r2=params.r2)
        return attrs
    if short == "merge_all":
        return {"planes_in": len(args[0]), "planes_out": len(result)}
    if short == "generate_ground_truth":
        return {"segments": int(result.segment_ids().size)}
    if short in ("save_labeled", "save_labeling"):
        return {"bytes": os.stat(_bound_args(fn, args, kwargs)["path"]).st_size}
    return {}


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span)
            span["attrs"]["error"] = type(exc).__name__
            raise
        tracer.close(span)
        span["attrs"].update(_note(name, fn, args, kwargs, result))
        return result

    return wrapper


def _hot(tracer: Tracer, method: str, fn):
    def wrapper(self, *args, **kwargs):
        t0 = perf_counter()
        result = fn(self, *args, **kwargs)
        seconds = perf_counter() - t0
        if method == "radius_search":
            radius = args[1] if len(args) > 1 else kwargs["radius"]
            tracer.hot(f"kdtree.radius_search@{radius!r}", seconds, int(result.size))
        else:
            tracer.hot("kdtree.knn", seconds, int(result[1].size))
        return result

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every traced name; returns what ``uninstall`` needs to undo it."""
    saved = []
    for module, attr in SPANNED:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _spanned(tracer, f"{module.__name__.rsplit('.', 1)[1]}.{attr}", original))
    cls = planeops.kdtree.KdTree
    for method in HOT_METHODS:
        original = getattr(cls, method)
        saved.append((cls, method, original))
        setattr(cls, method, _hot(tracer, method, original))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def check_spans(spans: list[dict], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree; empty when it is consistent.

    Each child lies inside its parent's interval and belongs to the same
    operation, and the children's durations plus the hot-query time plus the
    self time of every span add up to its duration, with no negative self time.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    children_s = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        children_s[parent["id"]] += s["end"] - s["start"]
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"] or s["op"] != parent["op"]:
            problems.append(f"span {s['id']} {s['name']} lies outside its parent {parent['name']}")
    for s in spans:
        hot = sum(stat[1] for stat in s["hot"].values())
        own = self_time(s)
        if own < -tol or abs(children_s[s["id"]] + hot + own - (s["end"] - s["start"])) > tol:
            problems.append(f"span {s['id']} {s['name']}: children {children_s[s['id']]:.9f} s + "
                            f"queries {hot:.9f} s + self {own:.9f} s != {s['end'] - s['start']:.9f} s")
    return problems
