"""Point cloud ingestion and labeled export.

Supported inputs: PLY (ascii or binary little-endian, vertex x/y/z stored as
32- or 64-bit floats) and whitespace-separated XYZ text. Coordinates are
meters end to end. Labeled output is a colored binary PLY plus a plain-text
sidecar with one ``planeId orientationChar`` line per point.
"""

import logging
import re
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .geometry import Orientation
from .truth import SegmentLabeling

__all__ = [
    "ParseError",
    "UnsupportedFormat",
    "load_cloud",
    "load_labeling",
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
    if np.isfinite(points).all():
        return points
    finite = np.isfinite(points).all(axis=1)
    logger.warning("dropped %d non-finite vertices from %s", int(points.shape[0] - finite.sum()), path)
    return points[finite]


def load_cloud(path) -> np.ndarray:
    """Read a point cloud; returns a float64 (N, 3) array in meters.

    The format is sniffed from the content: files starting with a ``ply``
    magic line parse as PLY, anything else as XYZ text. Non-finite vertices
    are dropped with a logged warning; point order is otherwise preserved.
    """
    path = Path(path)
    data = path.read_bytes()
    points = _parse_ply(data, path) if data[:4].rstrip() == b"ply" else _text_vertices(data, path)
    return _drop_nonfinite(points, path)


# The bytes np.loadtxt may read vertex rows from: digits, signs, the decimal
# point, exponents, and the separators that numpy and bytes.split treat
# alike. Comments, words such as "nan", and any other byte go line by line.
_FLOAT_BYTES = b"0123456789+-.eE \t\r\n"


def _text_vertices(data: bytes, path, first_line: int = 1, cols=(0, 1, 2), width: int = 3,
                   count: int | None = None) -> np.ndarray:
    """The (N, 3) float64 rows of whitespace-separated numbers in ``data``.

    Blank lines and lines whose first token starts with ``#`` are skipped.
    Each row needs at least ``width`` values; x, y and z are its columns
    ``cols``. With a ``count``, reading stops after that many rows, and a
    body holding fewer is an error. Errors name a line, counted from
    ``first_line``.

    np.loadtxt reads the rows when every byte is in ``_FLOAT_BYTES``; it
    also reads column ``width - 1``, so a short row fails there as it does
    here. Anything it rejects goes through :func:`_vertex_lines`, which
    finds and names the first bad line.
    """
    use = cols if width - 1 in cols else (*cols, width - 1)
    if not data.translate(None, _FLOAT_BYTES):
        # numpy allocates max_rows rows up front, so bound a header's count by the lines there are
        max_rows = None if count is None else min(count, data.count(b"\n") + data.count(b"\r") + 1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data, or blank lines before max_rows
                table = np.loadtxt(StringIO(data.decode("ascii"), newline=None), comments=None,
                                   usecols=use, ndmin=2, max_rows=max_rows).reshape(-1, len(use))
        except ValueError:
            pass
        else:
            if count is None or table.shape[0] == count:
                return np.ascontiguousarray(table[:, :3])
    return _vertex_lines(data, path, first_line, cols, width, count)


def _vertex_lines(data: bytes, path, first_line: int, cols, width: int, count: int | None) -> np.ndarray:
    """:func:`_text_vertices` line by line; raises ParseError at the first bad line."""
    lines = data.splitlines()
    pts = np.empty((len(lines) if count is None else min(count, len(lines)), 3), dtype=np.float64)  # a row takes a line
    x, y, z = cols
    row = 0
    for lineno, raw in enumerate(lines, start=first_line):
        if row == count:
            break
        tokens = raw.split()
        if not tokens or tokens[0].startswith(b"#"):
            continue
        if len(tokens) < width:
            raise ParseError(f"expected at least {width} values, got {len(tokens)}", path=path, line=lineno)
        try:
            pts[row] = (float(tokens[x]), float(tokens[y]), float(tokens[z]))
        except ValueError:
            raise ParseError("not a number", path=path, line=lineno) from None
        row += 1
    if count is not None and row < count:
        raise ParseError(f"expected {count} vertices, file ends after {row}", path=path)
    return pts[:row]


def _parse_ply(data: bytes, path) -> np.ndarray:
    # Header: ascii lines up to the first line whose only token is end_header
    # (a comment may hold those bytes too). Track byte length to locate the body.
    found = re.search(rb"^[ \t]*end_header[ \t\r]*$", data, re.MULTILINE)
    if found is None:
        raise ParseError("missing end_header", path=path)
    end = found.start()
    nl = data.find(b"\n", end)
    if nl < 0:
        raise ParseError("header not terminated", path=path)
    body_start = nl + 1
    header_lines = data[:end].decode("ascii", errors="replace").split("\n")  # as the body counts its lines

    fmt = None
    n_vertices = None
    properties: list[tuple[str, str]] = []  # (type, name) of the vertex element
    in_vertex = False
    for lineno, line in enumerate(header_lines, start=1):
        match line.split():
            case ["format" | "element" | "property" as keyword, *fields] if len(fields) != (
                    want := 4 if keyword == "property" and fields[:1] == ["list"] else 2):
                problem = "lacks a field" if len(fields) < want else "has a field too many"
                raise ParseError(f"{keyword} line {problem}", path=path, line=lineno)
            case ["format", fmt, _]:
                pass
            case ["element", "vertex", count]:
                in_vertex = True
                try:
                    n_vertices = int(count)
                except ValueError:
                    raise ParseError("bad vertex element line", path=path, line=lineno) from None
                if n_vertices < 0:
                    raise ParseError(f"negative vertex count {n_vertices}", path=path, line=lineno)
            case ["element", kind, _]:
                in_vertex = False
                if n_vertices is None:  # its data would precede the vertices and shift them
                    raise UnsupportedFormat(f"element {kind!r} before vertex", path=path, line=lineno)
            case ["property", *_] if not in_vertex:
                pass  # another element's, never read
            case ["property", ptype, *_] if ptype not in _PLY_NUMPY:  # a list property too
                raise UnsupportedFormat(f"vertex property type {ptype!r}", path=path, line=lineno)
            case ["property", ptype, name]:
                properties.append((ptype, name))

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
        return _text_vertices(data[body_start:], path, data[:body_start].count(b"\n") + 1,
                              tuple(names.index(axis) for axis in "xyz"), len(names), n_vertices)
    return _ply_binary_vertices(data, body_start, n_vertices, properties, names, path)


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


def _ply_header(n: int) -> bytes:
    lines = [
        "ply",
        "format binary_little_endian 1.0",
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


def _packed_rgb(colors) -> np.ndarray:
    """Each (r, g, b) as one ``<u4`` word whose first three bytes are r, g and b."""
    return np.array([r | g << 8 | b << 16 for r, g, b in colors], dtype="<u4")


def save_labeled(
    points: np.ndarray,
    labeling: SegmentLabeling,
    path,
    mode: str = "segment",
) -> None:
    """Write a colored binary PLY; :func:`save_labeling` writes the sidecar.

    ``mode="orientation"`` colors by orientation class; ``mode="segment"``
    gives each plane id a deterministic pseudo-random color. Either way each
    point's color is one gather from a small palette, indexed by the class
    code or by the id's row, and the body is filled in two array passes.
    """
    n = points.shape[0]
    if len(labeling) != n:
        raise ValueError(f"labeling size {len(labeling)} != cloud size {n}")
    if mode not in ("segment", "orientation"):
        raise ValueError(f"unknown color mode {mode!r}")
    labeling.check_orientations()
    if mode == "orientation":
        palette, rows = _packed_rgb(ORIENTATION_COLORS[orient] for orient in Orientation), labeling.orientations
    else:
        ids, rows = labeling.id_rows()
        used = np.flatnonzero(np.bincount(rows))
        palette = np.zeros(ids.size, dtype="<u4")
        palette[used] = _packed_rgb(segment_color(pid) for pid in ids[used].tolist())
    # A record is x, y, z as <f8, then red, green, blue: 27 bytes. The colors
    # go in first, as <u4 words whose fourth byte spills into the next
    # record's x (the last one into a spare record); the coordinates then
    # overwrite the spilled bytes.
    body = np.empty((n + 1) * 27, dtype=np.uint8)
    np.ndarray(n, "<u4", body, 24, (27,))[:] = palette[rows]
    np.ndarray(n, "V24", body, 0, (27,))[:] = np.ascontiguousarray(points, dtype="<f8").view("V24").reshape(n)
    with open(path, "wb") as fh:
        fh.write(_ply_header(n))
        fh.write(body[:n * 27])


def save_labeling(labeling: SegmentLabeling, path) -> None:
    """Write the text sidecar: one ``planeId orientationChar`` line per point.

    Each distinct (planeId, orientation) line is formatted once, zero-padded
    to a fixed width (8 bytes holds ids from -9999 to 99999, 16 any int32), and
    gathered per point; dropping the zero bytes, which no line holds, leaves
    the text.
    """
    labeling.check_orientations()
    ids, rows = labeling.id_rows()
    n_codes = len(Orientation)
    keys = np.multiply(rows, n_codes, dtype=np.intp)
    keys += labeling.orientations
    used = np.flatnonzero(np.bincount(keys))
    lines = [f"{ids[key // n_codes]} {Orientation(key % n_codes).char}\n".encode("ascii") for key in used.tolist()]
    width = 8 if all(len(line) <= 8 for line in lines) else 16
    table = np.zeros(ids.size * n_codes, dtype=f"V{width}")
    table[used] = np.frombuffer(b"".join(line.ljust(width, b"\0") for line in lines), dtype=table.dtype)
    body = table[keys].view(np.uint8)
    Path(path).write_bytes(body[body != 0])


# The bytes a sidecar's array reader takes: digits, signs, the class letters,
# spaces, tabs and line ends. A file with any other byte goes line by line.
_TABLE_BYTES = b"0123456789+-HVO \t\r\n"
_CR_TO_LF = bytes.maketrans(b"\r", b"\n")
# Each byte's class code: 0, 1 and 2 for H, V and O, 3 for any other byte.
_CLASS_CODES = np.full(256, len(Orientation), dtype=np.int8)
_CLASS_CODES[[ord(o.char) for o in Orientation]] = list(Orientation)
_MAX_ID = np.iinfo(np.int32).max


def load_labeling(path) -> SegmentLabeling:
    """Read a labeling sidecar written by :func:`save_labeling`.

    Every nonblank line holds a plane id and an orientation character,
    separated by any whitespace; blank lines are skipped, and CRLF line ends
    and a missing final newline are accepted. Ids must lie in [-1, 2**31 - 1]
    and the labeling must pass :meth:`SegmentLabeling.validate`. Malformed
    input raises ParseError, naming the first bad line where there is one.
    """
    path = Path(path)
    data = path.read_bytes()
    rows = _parse_table(data)
    if rows is None:
        rows = _parse_lines(data, path)
    labeling = SegmentLabeling(*rows)
    try:
        labeling.validate()
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    return labeling


def _parse_table(data: bytes):
    """Ids (int64) and class codes (int8), read by array passes over the bytes, or None.

    Each nonblank line must hold two tokens: an id, ``[+-]?[0-9]+`` in
    [-1, 2**31 - 1], then a class, H, V or O. Spaces and tabs separate and
    surround them, and LF, CR and CRLF end lines. None leaves any other file
    to :func:`_parse_lines`, which names its first bad line.
    """
    if data.translate(None, _TABLE_BYTES):
        return None
    # Without spaces and tabs, each nonblank line is an id followed by its class, the line's last byte.
    # Trailing line ends go, so a file whose last line ends holds no blank line to drop.
    line = np.frombuffer(b"\n" + data.translate(_CR_TO_LF, b" \t").rstrip(b"\n") + b"\n", dtype=np.uint8)
    breaks = np.flatnonzero(line == 10)
    last = breaks[1:] - 1  # each line's last byte, its class
    size = last - breaks[:-1]  # each line's bytes
    if size.min(initial=1) < 1:
        nonblank = size > 0
        last, size = last[nonblank], size[nonblank]
    codes = _CLASS_CODES[line[last]]
    # In the file the class letter must be a token of its own, so the id is
    # one token exactly when the file holds two tokens per line.
    raw = np.frombuffer(b" " + data, dtype=np.uint8)
    token = raw > 32
    if ((codes == len(Orientation)).any() or ((raw[1:] > 57) & token[:-1]).any()  # a letter after a digit or sign
            or np.count_nonzero(token[1:] > token[:-1]) != 2 * codes.size):
        return None
    lead = line[last - size + 1]  # each id's first byte
    digits = size - 1
    digits -= lead < 48  # a sign is the one byte below "0" an id holds
    if digits.min(initial=1) < 1:
        return None
    ids = np.zeros(codes.size, dtype=np.int64)
    for place in range(digits.max(initial=0)):  # from the last digit back
        rows = np.flatnonzero(digits > place) if place else slice(None)
        digit = line[last[rows] - (place + 1)] - 48  # above 9 for a sign or a letter
        if (digit > 9).any():
            return None
        if place < 10:
            ids[rows] += digit * np.int64(10**place)
        elif digit.any():  # 10**10 or more
            return None
    np.negative(ids, out=ids, where=lead == ord("-"))
    if ids.min(initial=0) < -1 or ids.max(initial=0) > _MAX_ID:
        return None
    return ids, codes


def _parse_lines(data: bytes, path):
    """Ids and class codes, line by line; raises ParseError at the first bad line."""
    ids, codes = [], []
    for lineno, raw in enumerate(data.decode("ascii", errors="replace").splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'planeId orientation', got {raw!r}", path=path, line=lineno)
        try:
            plane_id = int(tokens[0])
            codes.append(int(Orientation.from_char(tokens[1])))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        if not -1 <= plane_id <= _MAX_ID:
            raise ParseError(f"plane id {plane_id} outside [-1, {_MAX_ID}]", path=path, line=lineno)
        ids.append(plane_id)
    return np.asarray(ids, dtype=np.int64), np.asarray(codes, dtype=np.int8)
