"""Synthetic planar scenes with exact membership labels.

Scenes are described by a JSON-friendly dict: a list of rectangles (corner
plus two edge vectors, each with a point count) and an optional count of
uniform clutter points. The generator returns the cloud together with the
true labeling, which makes it the oracle for detector tests.
"""

import numpy as np

from .geometry import (ORIENTATION_TOL_DEGREES, UP, as_float, as_integer, as_points, canonical_sign,
                       classify_orientations)
from .truth import SegmentLabeling

__all__ = ["InvalidSpec", "box_room_scene", "gen_synthetic", "make_box_room", "random_scene"]


class InvalidSpec(ValueError):
    """Scene description is malformed."""


def _rect_arrays(rect: dict, index: int):
    try:
        corner = np.asarray(rect["corner"], dtype=np.float64).reshape(3)
        edge_u = np.asarray(rect["edge_u"], dtype=np.float64).reshape(3)
        edge_v = np.asarray(rect["edge_v"], dtype=np.float64).reshape(3)
        count = as_integer(rect["count"], "count", minimum=1)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"rect {index}: {exc}") from exc
    with np.errstate(all="ignore"):  # huge edges overflow the cross product or its norm
        normal = np.cross(edge_u, edge_v)
        norm = np.linalg.norm(normal)
    if norm < 1e-12:
        raise InvalidSpec(f"rect {index}: degenerate edges")
    if not norm < np.inf:
        raise InvalidSpec(f"rect {index}: edges give no finite unit normal")
    return corner, edge_u, edge_v, count, canonical_sign(normal / norm)


def gen_synthetic(scene: dict, noise_sigma: float = 0.0, seed: int = 0):
    """Sample a scene into (points, truth labeling).

    Each rectangle is sampled uniformly with ``count`` points, perturbed by
    isotropic Gaussian noise of ``noise_sigma`` meters. Clutter points are
    uniform over ``clutter_bounds`` (default: the rectangles' bounding box)
    and labeled as unsegmented. A rectangle's class comes from its normal by
    the scene's ``up`` and ``orientation_tol_degrees``. A malformed scene
    raises InvalidSpec.
    """
    if not isinstance(scene, dict) or not isinstance(scene.get("rects", []), list):
        raise InvalidSpec("a scene must be a JSON object, and its rects a list")
    rects = scene.get("rects", [])
    try:
        noise_sigma = as_float(noise_sigma, "noise_sigma")
        clutter = as_integer(scene.get("clutter", 0), "clutter", minimum=0)
        seed = as_integer(seed, "seed", minimum=0)  # numpy's generators take no negative seed
    except (ValueError, OverflowError) as exc:
        raise InvalidSpec(str(exc)) from exc
    if not noise_sigma >= 0.0:
        raise InvalidSpec("noise_sigma must be nonnegative")
    if not rects and clutter == 0:
        raise InvalidSpec("scene has no rectangles and no clutter")
    shapes = [_rect_arrays(rect, idx) for idx, rect in enumerate(rects)]
    try:
        classes = classify_orientations([normal for *_, normal in shapes], scene.get("up", UP),
                                        as_float(scene.get("orientation_tol_degrees", ORIENTATION_TOL_DEGREES),
                                                 "orientation_tol_degrees"))
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"up and orientation_tol_degrees: {exc}") from exc

    rng = np.random.default_rng(seed)
    chunks = []
    ids = []
    corners_seen = []
    for idx, (corner, eu, ev, count, _) in enumerate(shapes):
        u = rng.uniform(0.0, 1.0, size=count)
        v = rng.uniform(0.0, 1.0, size=count)
        pts = corner + u[:, None] * eu + v[:, None] * ev
        if noise_sigma > 0.0:
            pts = pts + rng.normal(scale=noise_sigma, size=pts.shape)
        chunks.append(pts)
        ids.append(np.full(count, idx, dtype=np.int32))
        corners_seen.extend([corner, corner + eu, corner + ev, corner + eu + ev])

    if clutter > 0:
        bounds = scene.get("clutter_bounds")
        if bounds is not None:
            try:
                lo, hi = np.asarray(bounds, dtype=np.float64).reshape(2, 3)
            except (TypeError, ValueError) as exc:
                raise InvalidSpec(f"clutter_bounds must be two 3-vectors: {exc}") from exc
        elif corners_seen:
            stack = np.asarray(corners_seen)
            lo, hi = stack.min(axis=0), stack.max(axis=0)
        else:
            raise InvalidSpec("clutter-only scenes need explicit clutter_bounds")
        with np.errstate(all="ignore"):
            extent = hi - lo
        if not np.all((extent > 0) & (extent < np.inf)):
            raise InvalidSpec("clutter_bounds must span a positive, finite volume")
        pts = rng.uniform(lo, hi, size=(clutter, 3))
        chunks.append(pts)
        ids.append(np.full(clutter, -1, dtype=np.int32))

    try:
        points = as_points(np.vstack(chunks))
    except ValueError as exc:
        raise InvalidSpec(f"scene gives non-finite points: {exc}") from exc
    return points, SegmentLabeling.from_planes(np.concatenate(ids), classes)


def box_room_scene(size: float = 3.5, points_per_face: int = 1000, clutter: int = 600) -> dict:
    """Scene dict for the six inner faces of an axis-aligned cubic room."""
    s = float(size)
    rects = [
        {"corner": [0, 0, 0], "edge_u": [s, 0, 0], "edge_v": [0, s, 0], "count": points_per_face},
        {"corner": [0, 0, s], "edge_u": [s, 0, 0], "edge_v": [0, s, 0], "count": points_per_face},
        {"corner": [0, 0, 0], "edge_u": [0, s, 0], "edge_v": [0, 0, s], "count": points_per_face},
        {"corner": [s, 0, 0], "edge_u": [0, s, 0], "edge_v": [0, 0, s], "count": points_per_face},
        {"corner": [0, 0, 0], "edge_u": [s, 0, 0], "edge_v": [0, 0, s], "count": points_per_face},
        {"corner": [0, s, 0], "edge_u": [s, 0, 0], "edge_v": [0, 0, s], "count": points_per_face},
    ]
    return {"rects": rects, "clutter": clutter}


def make_box_room(
    size: float = 3.5,
    points_per_face: int = 1000,
    clutter: int = 600,
    noise_sigma: float = 0.005,
    seed: int = 0,
):
    """The standard test fixture: a cubic room, optionally with clutter."""
    return gen_synthetic(box_room_scene(size, points_per_face, clutter), noise_sigma, seed)


def random_scene(n_planes: int, rng: np.random.Generator, clutter_fraction: float = 0.1,
                 min_parallel_gap: float = 0.25) -> dict:
    """A scene of randomly placed and oriented rectangles in a ~10 m domain.

    Rectangle sizes and densities are chosen so that both detectors have
    workable local point densities (around one to two hundred points per
    square meter). Near-parallel rectangles are kept at least
    ``min_parallel_gap`` apart in the normal direction: planes closer than
    the detectors' distance resolution are not distinguishable targets.
    """
    if n_planes < 1:
        raise InvalidSpec("need at least one plane")
    placed = []  # (center, normal)
    rects = []
    while len(rects) < n_planes:
        for _ in range(500):
            center = rng.uniform([-5.0, -5.0, 0.0], [5.0, 5.0, 4.0])
            kind = rng.uniform()
            if kind < 0.35:  # horizontal
                normal = np.array([0.0, 0.0, 1.0])
            elif kind < 0.75:  # vertical, random azimuth
                az = rng.uniform(0.0, 2.0 * np.pi)
                normal = np.array([np.cos(az), np.sin(az), 0.0])
            else:  # general orientation
                normal = rng.normal(size=3)
                normal /= np.linalg.norm(normal)
            ok = True
            for c_prev, n_prev in placed:
                if abs(float(normal @ n_prev)) < np.cos(np.radians(25.0)):
                    continue  # clearly different orientations never fuse
                gap = max(abs(float((center - c_prev) @ n_prev)),
                          abs(float((center - c_prev) @ normal)))
                if gap < min_parallel_gap:
                    ok = False
                    break
            if ok:
                break
        placed.append((center, normal))
        helper = np.array([0.0, 0.0, 1.0]) if abs(normal[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        u = np.cross(normal, helper)
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        width = rng.uniform(2.6, 3.4)
        height = rng.uniform(2.6, 3.4)
        count = int(rng.integers(650, 1000))
        corner = center - 0.5 * width * u - 0.5 * height * v
        rects.append(
            {
                "corner": corner.tolist(),
                "edge_u": (width * u).tolist(),
                "edge_v": (height * v).tolist(),
                "count": count,
            }
        )
    total = sum(r["count"] for r in rects)
    return {
        "rects": rects,
        "clutter": int(clutter_fraction * total),
        "clutter_bounds": [[-5.5, -5.5, -1.0], [5.5, 5.5, 5.0]],
    }
