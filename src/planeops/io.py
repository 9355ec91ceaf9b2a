"""Point cloud ingestion and labeled export.

Supported inputs: PLY (ascii or binary little-endian, vertex x/y/z stored as
32- or 64-bit floats) and whitespace-separated XYZ text. Coordinates are
meters end to end. Labeled output is a colored PLY plus a plain-text sidecar
with one ``planeId orientationChar`` line per point.
"""

import logging
from pathlib import Path

import numpy as np

from .geometry import Orientation
from .truth import SegmentLabeling

__all__ = [
    "ParseError",
    "UnsupportedFormat",
    "load_cloud",
    "load_labeling",
    "save_cloud",
    "save_labeled",
    "save_labeling",
    "segment_color",
]

logger = logging.getLogger(__name__)

OTHER_COLOR = (128, 128, 128)
ORIENTATION_COLORS = {
    Orientation.HORIZONTAL: (227, 74, 51),
    Orientation.VERTICAL: (49, 130, 189),
    Orientation.OTHER: OTHER_COLOR,
}

_PLY_SCALAR_SIZES = {
    "char": 1, "int8": 1, "uchar": 1, "uint8": 1,
    "short": 2, "int16": 2, "ushort": 2, "uint16": 2,
    "int": 4, "int32": 4, "uint": 4, "uint32": 4,
    "float": 4, "float32": 4, "double": 8, "float64": 8,
}
_PLY_NUMPY = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


class ParseError(ValueError):
    """Input file is malformed; carries the offending line or byte offset."""

    def __init__(self, message: str, path=None, line: int | None = None, offset: int | None = None):
        where = str(path) if path is not None else "input"
        if line is not None:
            where += f", line {line}"
        if offset is not None:
            where += f", byte {offset}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.offset = offset


class UnsupportedFormat(ParseError):
    """Recognized file, but a variant this reader does not handle."""


def _drop_nonfinite(points: np.ndarray, path) -> np.ndarray:
    finite = np.isfinite(points).all(axis=1)
    dropped = int(points.shape[0] - finite.sum())
    if dropped:
        logger.warning("dropped %d non-finite vertices from %s", dropped, path)
    return points[finite]


def load_cloud(path, fmt: str | None = None) -> np.ndarray:
    """Read a point cloud; returns a float64 (N, 3) array in meters.

    The format is sniffed from the content when ``fmt`` is None: files
    starting with a ``ply`` magic line parse as PLY, anything else as XYZ
    text. Non-finite vertices are dropped with a logged warning; point order
    is otherwise preserved.
    """
    path = Path(path)
    data = path.read_bytes()
    if fmt is None:
        fmt = "ply" if data[:4].rstrip() == b"ply" else "xyz"
    if fmt == "ply":
        points = _parse_ply(data, path)
    elif fmt == "xyz":
        points = _parse_xyz(data, path)
    else:
        raise UnsupportedFormat(f"unknown format {fmt!r}", path=path)
    return _drop_nonfinite(points, path)


def _parse_xyz(data: bytes, path) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith(b"#"):
            continue
        if len(tokens) < 3:
            raise ParseError(f"expected at least 3 columns, got {len(tokens)}", path=path, line=lineno)
        try:
            rows.append((float(tokens[0]), float(tokens[1]), float(tokens[2])))
        except ValueError:
            raise ParseError("not a number", path=path, line=lineno) from None
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def _parse_ply(data: bytes, path) -> np.ndarray:
    # Header: ascii lines up to end_header. Track byte length to locate the body.
    end = data.find(b"end_header")
    if end < 0:
        raise ParseError("missing end_header", path=path)
    nl = data.find(b"\n", end)
    if nl < 0:
        raise ParseError("header not terminated", path=path)
    body_start = nl + 1
    header_lines = data[:end].decode("ascii", errors="replace").splitlines()

    fmt = None
    n_vertices = None
    properties: list[tuple[str, str]] = []  # (type, name) of the vertex element
    in_vertex = False
    for lineno, line in enumerate(header_lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element":
            in_vertex = tokens[1] == "vertex"
            if not in_vertex and n_vertices is None:
                # Its data would precede the vertices and shift them.
                raise UnsupportedFormat(f"element {tokens[1]!r} before vertex", path=path, line=lineno)
            if in_vertex:
                try:
                    n_vertices = int(tokens[2])
                except (IndexError, ValueError):
                    raise ParseError("bad vertex element line", path=path, line=lineno) from None
        elif tokens[0] == "property" and in_vertex:
            if tokens[1] == "list":
                raise UnsupportedFormat("list property in vertex element", path=path, line=lineno)
            if tokens[1] not in _PLY_SCALAR_SIZES:
                raise UnsupportedFormat(f"property type {tokens[1]!r}", path=path, line=lineno)
            properties.append((tokens[1], tokens[2]))

    if fmt is None:
        raise ParseError("missing format line", path=path)
    if fmt not in ("ascii", "binary_little_endian"):
        raise UnsupportedFormat(f"PLY format {fmt!r}", path=path)
    if n_vertices is None:
        raise ParseError("no vertex element", path=path)
    names = [name for _, name in properties]
    if not {"x", "y", "z"} <= set(names):
        raise ParseError("vertex element lacks x/y/z properties", path=path)
    for axis in ("x", "y", "z"):
        ptype = properties[names.index(axis)][0]
        if _PLY_NUMPY[ptype] not in ("f4", "f8"):
            raise UnsupportedFormat(f"coordinate {axis} stored as {ptype}", path=path)

    if fmt == "ascii":
        return _ply_ascii_vertices(data, body_start, n_vertices, names, path)
    return _ply_binary_vertices(data, body_start, n_vertices, properties, names, path)


def _ply_ascii_vertices(data: bytes, body_start: int, n_vertices: int, names, path) -> np.ndarray:
    header_line_count = data[:body_start].count(b"\n")
    lines = data[body_start:].splitlines()
    cols = (names.index("x"), names.index("y"), names.index("z"))
    pts = np.empty((n_vertices, 3), dtype=np.float64)
    row = 0
    for offset, raw in enumerate(lines):
        if row == n_vertices:
            break
        lineno = header_line_count + offset + 1
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) < len(names):
            raise ParseError(
                f"vertex row has {len(tokens)} values, header declares {len(names)}",
                path=path, line=lineno,
            )
        try:
            pts[row] = (float(tokens[cols[0]]), float(tokens[cols[1]]), float(tokens[cols[2]]))
        except ValueError:
            raise ParseError("not a number", path=path, line=lineno) from None
        row += 1
    if row < n_vertices:
        raise ParseError(f"expected {n_vertices} vertices, file ends after {row}", path=path)
    return pts


def _ply_binary_vertices(data: bytes, body_start: int, n_vertices: int, properties, names, path) -> np.ndarray:
    dtype = np.dtype([(f"p{i}", "<" + _PLY_NUMPY[t]) for i, (t, _) in enumerate(properties)])
    need = n_vertices * dtype.itemsize
    if len(data) - body_start < need:
        complete = (len(data) - body_start) // dtype.itemsize
        raise ParseError(
            f"vertex data truncated: {n_vertices} declared, {complete} complete",
            path=path, offset=body_start + complete * dtype.itemsize,
        )
    table = np.frombuffer(data, dtype=dtype, count=n_vertices, offset=body_start)
    pts = np.empty((n_vertices, 3), dtype=np.float64)
    for col, axis in enumerate(("x", "y", "z")):
        pts[:, col] = table[f"p{names.index(axis)}"]
    return pts


def segment_color(plane_id: int) -> tuple:
    """Deterministic pseudo-random RGB for a segment id; gray for -1."""
    if plane_id < 0:
        return OTHER_COLOR
    rng = np.random.default_rng(plane_id)
    r, g, b = rng.integers(40, 221, size=3).tolist()
    return int(r), int(g), int(b)


def _ply_header(n: int, binary: bool) -> bytes:
    fmt = "binary_little_endian" if binary else "ascii"
    lines = [
        "ply",
        f"format {fmt} 1.0",
        f"element vertex {n}",
        "property double x",
        "property double y",
        "property double z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def save_cloud(points: np.ndarray, path, binary: bool = True) -> None:
    """Write a bare cloud as PLY (white vertices)."""
    labeling = SegmentLabeling.all_other(points.shape[0])
    save_labeled(points, labeling, path, mode="orientation", binary=binary, sidecar=False)


def save_labeled(
    points: np.ndarray,
    labeling: SegmentLabeling,
    path,
    mode: str = "segment",
    binary: bool = True,
    sidecar: bool = True,
) -> None:
    """Write a colored PLY and (by default) the labeling sidecar next to it.

    ``mode="orientation"`` colors by orientation class; ``mode="segment"``
    gives each plane id a deterministic pseudo-random color. The sidecar path
    is the PLY path with its suffix replaced by ``.labels.txt``.
    """
    n = points.shape[0]
    if len(labeling) != n:
        raise ValueError(f"labeling size {len(labeling)} != cloud size {n}")
    if mode not in ("segment", "orientation"):
        raise ValueError(f"unknown color mode {mode!r}")
    colors = np.empty((n, 3), dtype=np.uint8)
    if mode == "orientation":
        for orient in Orientation:
            colors[labeling.orientations == int(orient)] = ORIENTATION_COLORS[orient]
    else:
        for pid in np.unique(labeling.plane_ids):
            colors[labeling.plane_ids == pid] = segment_color(int(pid))

    path = Path(path)
    dtype = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                      ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    with open(path, "wb") as fh:
        fh.write(_ply_header(n, binary))
        if binary:
            table = np.empty(n, dtype=dtype)
            table["x"], table["y"], table["z"] = points[:, 0], points[:, 1], points[:, 2]
            table["red"], table["green"], table["blue"] = colors[:, 0], colors[:, 1], colors[:, 2]
            fh.write(table.tobytes())
        else:
            for i in range(n):
                fh.write(
                    f"{points[i, 0]:.17g} {points[i, 1]:.17g} {points[i, 2]:.17g} "
                    f"{colors[i, 0]} {colors[i, 1]} {colors[i, 2]}\n".encode("ascii")
                )
    if sidecar:
        save_labeling(labeling, path.with_suffix(".labels.txt"))


def save_labeling(labeling: SegmentLabeling, path) -> None:
    """Write the text sidecar: one ``planeId orientationChar`` line per point.

    Each distinct (planeId, orientation) pair is formatted once and the
    lines are gathered per point.
    """
    n_codes = len(Orientation)
    codes = labeling.orientations.astype(np.int64)
    bad = codes[(codes < 0) | (codes >= n_codes)]
    if bad.size:
        raise ValueError(f"{int(bad[0])} is not a valid Orientation")
    keys, per_point = np.unique(labeling.plane_ids.astype(np.int64) * n_codes + codes, return_inverse=True)
    lines = np.array([f"{key // n_codes} {Orientation(key % n_codes).char}\n" for key in keys.tolist()], dtype=object)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(lines[per_point].tolist()))


def load_labeling(path) -> SegmentLabeling:
    """Read a labeling sidecar written by :func:`save_labeling`."""
    path = Path(path)
    ids = []
    codes = []
    for lineno, raw in enumerate(path.read_text(encoding="ascii").splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'planeId orientation', got {raw!r}", path=path, line=lineno)
        try:
            ids.append(int(tokens[0]))
            codes.append(int(Orientation.from_char(tokens[1])))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
    return SegmentLabeling(
        plane_ids=np.asarray(ids, dtype=np.int32),
        orientations=np.asarray(codes, dtype=np.int8),
    )
