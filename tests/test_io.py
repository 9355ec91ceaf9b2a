"""Cloud and labeling I/O tests: parsers, round trips, error offsets."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_load_labeling,
    reference_parse_table,
    reference_save_labeled,
    reference_save_labeling,
    reference_validate,
)
from planeops import (
    Orientation,
    ParseError,
    SegmentLabeling,
    UnsupportedFormat,
    box_room_scene,
    gen_synthetic,
    load_cloud,
    load_labeling,
    save_labeled,
    save_labeling,
)
from planeops.io import _parse_table, _text_vertices, _vertex_lines, segment_color


def _ascii_ply(vertices, props=("float x", "float y", "float z"), fmt="ascii"):
    header = ["ply", f"format {fmt} 1.0", f"element vertex {len(vertices)}"]
    header += [f"property {p}" for p in props]
    header.append("end_header")
    body = "\n".join(" ".join(str(v) for v in row) for row in vertices)
    return ("\n".join(header) + "\n" + body + "\n").encode()


def _binary_ply(array: np.ndarray, props, extra_bytes=b""):
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {array.shape[0]}"]
    header += [f"property {p}" for p in props]
    header.append("end_header")
    return ("\n".join(header) + "\n").encode() + array.tobytes() + extra_bytes


class TestXyzText:
    def test_two_points(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0\n1 0 0\n")
        points = load_cloud(path)
        np.testing.assert_array_equal(points, [[0, 0, 0], [1, 0, 0]])

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0 255 255 255\n1 2 3 0 0 0\n")
        assert load_cloud(path).shape == (2, 3)

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0 0\n1 oops 0\n")
        with pytest.raises(ParseError) as err:
            load_cloud(path)
        assert err.value.line == 2

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("0 0\n")
        with pytest.raises(ParseError):
            load_cloud(path)


class TestPlyAscii:
    def test_basic(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(_ascii_ply([(0, 0, 0), (1.5, 2.5, 3.5)]))
        points = load_cloud(path)
        np.testing.assert_array_equal(points, [[0, 0, 0], [1.5, 2.5, 3.5]])

    def test_reordered_and_extra_properties(self, tmp_path):
        path = tmp_path / "c.ply"
        rows = [(9, 1, 2, 3), (9, 4, 5, 6)]
        path.write_bytes(_ascii_ply(rows, props=("uchar red", "float z", "float x", "float y")))
        points = load_cloud(path)
        np.testing.assert_array_equal(points, [[2, 3, 1], [5, 6, 4]])

    def test_finite_cloud_kept_without_warning(self, tmp_path, caplog):
        path = tmp_path / "c.ply"
        path.write_bytes(_ascii_ply([(float(i), 1.0, 2.0) for i in range(5)]))
        with caplog.at_level(logging.WARNING):
            points = load_cloud(path)
        assert points.shape == (5, 3)
        assert "non-finite" not in caplog.text

    def test_nan_vertex_dropped_with_warning(self, tmp_path, caplog):
        rows = [(float(i), 0.0, 0.0) for i in range(99)] + [(float("nan"), 0.0, 0.0)]
        path = tmp_path / "c.ply"
        path.write_bytes(_ascii_ply(rows))
        with caplog.at_level(logging.WARNING):
            points = load_cloud(path)
        assert points.shape[0] == 99
        assert "dropped 1 non-finite" in caplog.text

    def test_truncated_vertex_list(self, tmp_path):
        data = _ascii_ply([(0, 0, 0)]).replace(b"element vertex 1", b"element vertex 5")
        path = tmp_path / "c.ply"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            load_cloud(path)


class TestPlyBinary:
    def test_float32_and_float64(self, tmp_path):
        for np_t, ply_t in (("f4", "float"), ("f8", "double")):
            arr = np.array([(1, 2, 3), (4, 5, 6)], dtype=[(c, "<" + np_t) for c in "xyz"])
            path = tmp_path / f"c_{np_t}.ply"
            path.write_bytes(_binary_ply(arr, (f"{ply_t} x", f"{ply_t} y", f"{ply_t} z")))
            np.testing.assert_array_equal(load_cloud(path), [[1, 2, 3], [4, 5, 6]])

    def test_interleaved_properties_skipped(self, tmp_path):
        dtype = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("red", "u1"), ("green", "u1"), ("blue", "u1")]
        arr = np.array([(1, 2, 3, 10, 20, 30)], dtype=dtype)
        path = tmp_path / "c.ply"
        path.write_bytes(_binary_ply(arr, ("float x", "float y", "float z", "uchar red", "uchar green", "uchar blue")))
        np.testing.assert_array_equal(load_cloud(path), [[1, 2, 3]])

    def test_truncated_reports_offset(self, tmp_path):
        arr = np.array([(1.0, 2.0, 3.0)], dtype=[(c, "<f4") for c in "xyz"])
        data = _binary_ply(arr, ("float x", "float y", "float z"))
        data = data.replace(b"element vertex 1", b"element vertex 3")
        path = tmp_path / "c.ply"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_cloud(path)
        assert err.value.offset is not None

    def test_list_property_unsupported(self, tmp_path):
        data = _ascii_ply([(0, 0, 0)], props=("float x", "float y", "float z"))
        data = data.replace(b"property float z", b"property float z\nproperty list uchar int vertex_indices")
        path = tmp_path / "c.ply"
        path.write_bytes(data)
        with pytest.raises(UnsupportedFormat):
            load_cloud(path)

    def test_big_endian_unsupported(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(_ascii_ply([(0, 0, 0)], fmt="binary_big_endian"))
        with pytest.raises(UnsupportedFormat):
            load_cloud(path)


@pytest.mark.parametrize("binary", [True, False])
def test_element_before_vertex_unsupported(tmp_path, binary):
    # One camera record precedes the vertex data; reading past it
    # unannounced would shift every coordinate.
    vertices = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]
    if binary:
        arr = np.array(vertices, dtype=[(c, "<f8") for c in "xyz"])
        data = _binary_ply(arr, ("double x", "double y", "double z"))
        camera = np.float64(0.5).tobytes()
    else:
        data = _ascii_ply(vertices)
        camera = b"0.5\n"
    data = data.replace(b"element vertex", b"element camera 1\nproperty double f\nelement vertex")
    data = data.replace(b"end_header\n", b"end_header\n" + camera)
    path = tmp_path / "c.ply"
    path.write_bytes(data)
    with pytest.raises(UnsupportedFormat, match="camera"):
        load_cloud(path)


@pytest.mark.parametrize("binary", [True, False])
def test_negative_vertex_count_rejected(tmp_path, binary):
    vertices = [(1.0, 2.0, 3.0)]
    if binary:
        data = _binary_ply(np.array(vertices, dtype=[(c, "<f8") for c in "xyz"]), ("double x", "double y", "double z"))
    else:
        data = _ascii_ply(vertices)
    path = tmp_path / "c.ply"
    path.write_bytes(data.replace(b"element vertex 1", b"element vertex -1"))
    with pytest.raises(ParseError, match="negative vertex count -1") as err:
        load_cloud(path)
    assert err.value.line == 3


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
@pytest.mark.parametrize("before", [b"element vertex", b"end_header\n"], ids=["before-element", "after-properties"])
def test_comment_naming_end_header_does_not_end_the_header(tmp_path, binary, before):
    # The header ends at the first line whose only token is end_header.
    vertices = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)]
    if binary:
        data = _binary_ply(np.array(vertices, dtype=[(c, "<f4") for c in "xyz"]), ("float x", "float y", "float z"))
    else:
        data = _ascii_ply(vertices)
    path = tmp_path / "c.ply"
    path.write_bytes(data.replace(before, b"comment written up to end_header\n" + before, 1))
    np.testing.assert_array_equal(load_cloud(path), vertices)


def test_ascii_vertex_count_beyond_body_rejected(tmp_path):
    # The row buffer is bounded by the body's lines, not by the declared count.
    path = tmp_path / "c.ply"
    path.write_bytes(_ascii_ply([(1.0, 2.0, 3.0)]).replace(b"element vertex 1", b"element vertex 1000000000000"))
    with pytest.raises(ParseError, match="file ends after 1"):
        load_cloud(path)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
@pytest.mark.parametrize("bad, before", [(b"format", b"element vertex"), (b"element", b"element vertex"),
                                         (b"property", b"end_header"), (b"property float", b"end_header")],
                         ids=["format", "element", "property", "property-without-name"])
def test_header_line_lacking_a_field_reports_line(tmp_path, binary, bad, before):
    vertices = [(1.0, 2.0, 3.0)]
    if binary:
        data = _binary_ply(np.array(vertices, dtype=[(c, "<f8") for c in "xyz"]), ("double x", "double y", "double z"))
    else:
        data = _ascii_ply(vertices)
    data = data.replace(before, bad + b"\n" + before, 1)
    path = tmp_path / "c.ply"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"{bad.split()[0].decode()} line lacks a field") as err:
        load_cloud(path)
    assert err.value.line == data[:data.index(bad + b"\n")].count(b"\n") + 1


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
def test_header_lines_are_numbered_by_newline_alone(tmp_path, binary):
    # Form feeds and the other separators str.splitlines breaks at are
    # bytes inside a line, as the body's line count takes them.
    vertices = [(1.0, 2.0, 3.0)]
    if binary:
        data = _binary_ply(np.array(vertices, dtype=[(c, "<f8") for c in "xyz"]), ("double x", "double y", "double z"))
    else:
        data = _ascii_ply(vertices)
    data = data.replace(b"element vertex", b"comment scanned\x0cby\x1chand\x0bagain\nelement vertex", 1)
    data = data.replace(b"end_header", b"property float\nend_header", 1)
    path = tmp_path / "c.ply"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="property line lacks a field") as err:
        load_cloud(path)
    assert err.value.line == 8


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
@pytest.mark.parametrize("bad, problem", [("property", "lacks a field"), ("property uchar", "lacks a field"),
                                          ("property list uchar int", "lacks a field"),
                                          ("property uchar red green", "has a field too many"),
                                          ("property list uchar int vertex_indices extra", "has a field too many")],
                         ids=["bare", "no-name", "list-no-name", "scalar-extra", "list-extra"])
def test_property_line_fields_checked_in_every_element(tmp_path, binary, bad, problem):
    # A face element's properties are never read, but a malformed one is
    # still an error naming its line; so is an extra field in the vertex element.
    vertices = [(1.0, 2.0, 3.0)]
    if binary:
        data = _binary_ply(np.array(vertices, dtype=[(c, "<f8") for c in "xyz"]), ("double x", "double y", "double z"))
    else:
        data = _ascii_ply(vertices)
    path = tmp_path / "c.ply"
    face = data.replace(b"end_header", b"element face 1\nproperty list uchar int vertex_indices\nend_header", 1)
    path.write_bytes(face)
    np.testing.assert_array_equal(load_cloud(path), vertices)
    for text in (face.replace(b"end_header", bad.encode() + b"\nend_header", 1),
                 data.replace(b"end_header", bad.encode() + b"\nend_header", 1)):
        path.write_bytes(text)
        with pytest.raises(ParseError, match=f"property line {problem}") as err:
            load_cloud(path)
        assert err.value.line == text[:text.index(bad.encode() + b"\n")].count(b"\n") + 1


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
@pytest.mark.parametrize("good, bad, problem", [("format {fmt} 1.0", "format {fmt}", "format line lacks a field"),
                                                ("format {fmt} 1.0", "format {fmt} 1.0 junk", "format line has a field too many"),
                                                ("element vertex 1", "element vertex 1 junk", "element line has a field too many"),
                                                ("element face 0", "element face 0 junk", "element line has a field too many")],
                         ids=["no-version", "format-extra", "vertex-extra", "face-extra"])
def test_format_and_element_lines_take_three_fields(tmp_path, binary, good, bad, problem):
    vertices = [(1.0, 2.0, 3.0)]
    if binary:
        data = _binary_ply(np.array(vertices, dtype=[(c, "<f8") for c in "xyz"]), ("double x", "double y", "double z"))
    else:
        data = _ascii_ply(vertices)
    data = data.replace(b"end_header", b"element face 0\nend_header", 1)
    fmt = "binary_little_endian" if binary else "ascii"
    good, bad = good.format(fmt=fmt).encode(), bad.format(fmt=fmt).encode()
    path = tmp_path / "c.ply"
    path.write_bytes(data.replace(good, bad, 1))
    with pytest.raises(ParseError, match=problem) as err:
        load_cloud(path)
    assert err.value.line == data[:data.index(good)].count(b"\n") + 1


def test_ascii_ply_body_comment_line_skipped(tmp_path):
    # A '#' line in the body is a comment, as in XYZ text; it takes no vertex.
    path = tmp_path / "c.ply"
    path.write_bytes(_ascii_ply([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]).replace(b"\n4.0", b"\n# second scan\n4.0"))
    np.testing.assert_array_equal(load_cloud(path), [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("newlines", [["\n"] * 5, ["\r\n"] * 5, ["\r"] * 5, ["\n", "\r", "\n", "\n", "\n"]],
                         ids=["lf", "crlf", "cr", "mixed"])
@pytest.mark.parametrize("ply", [False, True], ids=["xyz", "ascii-ply"])
def test_comment_lines_keep_the_numpy_read(tmp_path, newlines, ply):
    """A '# x y z' header and a comment among the rows leave the body to
    np.loadtxt, which reads the line-by-line reader's rows, with any line
    ends, a comment after a lone CR among line feeds too; a '#' after a
    row's first token is no comment and still sends the body line by line."""
    lines = ["# x y z", "1 2 3", " \t# second scan", "4.5 -5 6e1", "#7 8 9", ""]
    body = (lines[0] + "".join(end + line for end, line in zip(newlines, lines[1:]))).encode()
    expected = _vertex_lines(body, "c.xyz", 1, (0, 1, 2), 3, None)
    header = b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
    path = tmp_path / ("c.ply" if ply else "c.xyz")
    path.write_bytes(header + body if ply else body)
    with mock.patch("planeops.io._vertex_lines", side_effect=AssertionError("read line by line")):
        loaded = load_cloud(path)
    assert expected.shape == (2, 3) and loaded.tobytes() == expected.tobytes()
    path.write_bytes(body.replace(b"4.5", b"4.5 # 7", 1) if ply else body.replace(b"1 2", b"1 #2", 1))
    with mock.patch("planeops.io._vertex_lines", side_effect=AssertionError("read line by line")):
        with pytest.raises(AssertionError, match="read line by line"):
            load_cloud(path)


@pytest.mark.parametrize("bad_row, message", [("4 oops 6", "not a number"), ("4 5", "expected at least 3 values")])
def test_bad_row_reports_the_same_line_in_xyz_and_ascii_ply(tmp_path, bad_row, message):
    body = ["1 2 3", "", "  ", bad_row, "7 8 9"]
    xyz, ply = tmp_path / "c.xyz", tmp_path / "c.ply"
    xyz.write_text("\n".join(body) + "\n")
    header = b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
    ply.write_bytes(header + ("\n".join(body) + "\n").encode())
    header_lines = header.count(b"\n")
    for path, offset in ((xyz, 0), (ply, header_lines)):
        with pytest.raises(ParseError, match=message) as err:
            load_cloud(path)
        assert err.value.line == offset + 4


GOOD_VALUES = ["1", "-0", "+.5", "1e5", "2.5E-3", "7.", "-1e-300", "1e999", "0.1", "-12.75"]
BAD_VALUES = [".", "e", "1e", "--1", "1.2.3", "+", "1_0", "nan", "#1"]


@st.composite
def vertex_bodies(draw):
    """Rows over the bytes np.loadtxt may read, and some it may not: short
    and long rows, bad numbers, blank lines, each line end, and a count."""
    width = draw(st.integers(3, 5), label="width")
    cols = tuple(draw(st.permutations(range(width)), label="columns")[:3])
    values = st.sampled_from(GOOD_VALUES * 6 + BAD_VALUES)
    lines = []
    for _ in range(draw(st.integers(0, 8), label="lines")):
        k = draw(st.sampled_from([0, width, width, width, width + 1, width - 1]), label="values")
        lines.append(draw(st.sampled_from([" ", "\t", "  ", " \t"])).join(draw(values) for _ in range(k)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]), label="newline")
    text = newline.join(lines) + draw(st.sampled_from(["", newline]), label="end")
    count = draw(st.one_of(st.none(), st.integers(0, 9)), label="count")
    return text.encode(), cols, width, count


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=vertex_bodies())
@example((b"#5 1 2 3\n4 5 6 7\n", (1, 2, 3), 4, None)).via("a comment line that reads as a row after its first token")
def test_vertex_rows_match_line_by_line_reader(case):
    """np.loadtxt's rows have the line-by-line reader's bits, and a body it
    rejects raises the reader's ParseError, with the same line."""
    data, cols, width, count = case

    def outcome(read):
        try:
            rows = read(data, "c.xyz", 5, cols, width, count)
        except ParseError as exc:
            return str(exc), exc.line
        return rows.shape, rows.tobytes()

    assert outcome(_text_vertices) == outcome(_vertex_lines)


TEXT_COORD = st.floats(-1e300, 1e300)
GAP_LINES = st.lists(st.sampled_from(["", " \t", "# a comment", "#", "  #1 2 3"]), max_size=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(TEXT_COORD, TEXT_COORD, TEXT_COORD), max_size=12),
       spec=st.sampled_from(["{!r}", "{:.6g}", "{:.3e}", "{:.2f}"]),
       names=st.integers(0, 2).flatmap(lambda extra: st.permutations(["x", "y", "z", "w", "red"][:3 + extra])),
       gaps=st.lists(GAP_LINES, min_size=13, max_size=13),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_xyz_and_ascii_ply_rows_load_alike(tmp_path_factory, rows, spec, names, gaps, newline):
    # The same rows written as XYZ text and as an ascii PLY body, with
    # reordered or extra columns, blank and '#' lines and either line end,
    # load to the same bits: float() of each written token.
    tokens = [[spec.format(v) for v in row] for row in rows]
    expected = np.array([[float(t) for t in row] for row in tokens], dtype=np.float64).reshape(-1, 3)

    def body(columns):
        lines = []
        for gap, row in zip(gaps, tokens):
            values = dict(zip("xyz", row), w="-7.5", red="255")
            lines += gap + [" ".join(values[c] for c in columns)]
        return lines + gaps[len(tokens)]

    extras = [n for n in names if n not in "xyz"]
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}",
              *[f"property {'uchar' if n == 'red' else 'double'} {n}" for n in names], "end_header"]
    directory = tmp_path_factory.mktemp("rows")
    xyz, ply = directory / "c.xyz", directory / "c.ply"
    xyz.write_bytes(newline.join(body(["x", "y", "z", *extras]) + [""]).encode())
    ply.write_bytes(newline.join(header + body(names) + [""]).encode())
    for path in (xyz, ply):
        loaded = load_cloud(path)
        assert loaded.dtype == np.float64 and loaded.shape == expected.shape
        assert loaded.tobytes() == expected.tobytes()


def _room_labeling(n=60):
    ids = np.repeat(np.arange(6), n // 6 - 1).astype(np.int32)
    ids = np.concatenate([ids, np.full(n - ids.size, -1, dtype=np.int32)])
    orients = np.where(ids < 0, int(Orientation.OTHER), int(Orientation.VERTICAL)).astype(np.int8)
    orients[(ids == 0) | (ids == 1)] = int(Orientation.HORIZONTAL)
    return SegmentLabeling(plane_ids=ids, orientations=orients)


class TestLabeledOutput:
    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        points = rng.normal(size=(60, 3))
        labeling = _room_labeling()
        path = tmp_path / "out.ply"
        save_labeled(points, labeling, path, mode="segment")
        loaded = load_cloud(path)
        np.testing.assert_array_equal(loaded, points)
        again = tmp_path / "again.ply"
        save_labeled(loaded, labeling, again, mode="segment")
        assert (tmp_path / "out.ply").read_bytes() == again.read_bytes()

    def test_segment_mode_colors(self, tmp_path, rng):
        points = rng.normal(size=(60, 3))
        labeling = _room_labeling()
        path = tmp_path / "out.ply"
        save_labeled(points, labeling, path, mode="segment")
        # independent re-parse of the color columns
        raw = path.read_bytes()
        body = raw[raw.find(b"end_header") + len(b"end_header\n"):]
        table = np.frombuffer(body, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                           ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        colors = {tuple(int(table[c][i]) for c in ("red", "green", "blue")) for i in range(60)}
        expected = {segment_color(pid) for pid in range(6)} | {segment_color(-1)}
        assert colors == expected
        assert len(expected) == 7  # six distinct segment colors plus gray

    def test_orientation_mode_colors(self, tmp_path, rng):
        points = rng.normal(size=(60, 3))
        path = tmp_path / "out.ply"
        save_labeled(points, _room_labeling(), path, mode="orientation")
        raw = path.read_bytes()
        body = raw[raw.find(b"end_header") + len(b"end_header\n"):]
        table = np.frombuffer(body, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                           ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        assert len({tuple(int(table[c][i]) for c in ("red", "green", "blue")) for i in range(60)}) == 3

    def test_all_other_is_uniform_gray(self, tmp_path, rng):
        points = rng.normal(size=(10, 3))
        path = tmp_path / "out.ply"
        save_labeled(points, SegmentLabeling.all_other(10), path, mode="segment")
        raw = path.read_bytes()
        body = raw[raw.find(b"end_header") + len(b"end_header\n"):]
        table = np.frombuffer(body, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                           ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        for c in ("red", "green", "blue"):
            assert (table[c] == 128).all()

    def test_ascii_output_parses_back(self, tmp_path, rng):
        points = rng.normal(size=(20, 3))
        path = tmp_path / "out.ply"
        path.write_bytes(_ascii_ply(points.tolist(), props=("double x", "double y", "double z")))
        np.testing.assert_array_equal(load_cloud(path), points)

    def test_sidecar_round_trip(self, tmp_path):
        labeling = _room_labeling()
        path = tmp_path / "lab.labels.txt"
        save_labeling(labeling, path)
        loaded = load_labeling(path)
        np.testing.assert_array_equal(loaded.plane_ids, labeling.plane_ids)
        np.testing.assert_array_equal(loaded.orientations, labeling.orientations)

    def test_save_labeling_matches_reference(self, tmp_path, rng):
        """Same bytes as a per-line writer, for -1 ids, all three orientations and no points."""
        ids = rng.integers(-1, 40, size=500).astype(np.int32)
        codes = rng.integers(0, 3, size=500).astype(np.int8)
        ids[:3], codes[:3] = -1, [0, 1, 2]
        for labeling in (SegmentLabeling(ids, codes), SegmentLabeling(ids[:0], codes[:0]), _room_labeling()):
            path = tmp_path / "lab.labels.txt"
            save_labeling(labeling, path)
            expected = "".join(
                f"{pid} {Orientation(code).char}\n"
                for pid, code in zip(labeling.plane_ids.tolist(), labeling.orientations.tolist())
            )
            assert path.read_bytes() == expected.encode("ascii")

    def test_save_labeling_rejects_unknown_orientation(self, tmp_path):
        with pytest.raises(ValueError, match="^3 is not a valid Orientation$"):
            save_labeling(SegmentLabeling([0, 1], [0, 3]), tmp_path / "lab.labels.txt")

    @pytest.mark.parametrize("mode", ["segment", "orientation"])
    @pytest.mark.parametrize("codes, first_bad", [([5, 5], 5), ([0, -1], -1), ([2, 3], 3)])
    def test_save_labeled_rejects_unknown_orientation(self, tmp_path, mode, codes, first_bad):
        path = tmp_path / "x.ply"
        with pytest.raises(ValueError, match=f"^{first_bad} is not a valid Orientation$"):
            save_labeled(np.zeros((2, 3)), SegmentLabeling([0, 0], codes), path, mode=mode)
        assert not path.exists()

    def test_size_mismatch_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError):
            save_labeled(rng.normal(size=(5, 3)), SegmentLabeling.all_other(4), tmp_path / "x.ply")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONFINITE_ROWS = st.tuples(*[st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))] * 3).filter(
    lambda row: not np.isfinite(row).all())


class _Warnings(logging.Handler):
    """Collects the messages of the warnings logged while attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.one_of(st.tuples(FINITE, FINITE, FINITE), NONFINITE_ROWS), max_size=30),
       binary=st.booleans())
def test_labeled_ply_round_trip_drops_nonfinite_rows(tmp_path_factory, rows, binary):
    # Every finite row comes back with its bits (signed zeros, subnormals and
    # extremes too), in order; each row holding a NaN or an infinity is
    # dropped, and the count is logged. save_labeled writes the binary side;
    # the ascii side holds each float's repr.
    points = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(points).all(axis=1)
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    if binary:
        save_labeled(points, SegmentLabeling.all_other(len(points)), path)
    else:
        path.write_bytes(_ascii_ply(points.tolist(), props=("double x", "double y", "double z")))
    log, handler = logging.getLogger("planeops.io"), _Warnings()
    log.addHandler(handler)
    try:
        loaded = load_cloud(path)
    finally:
        log.removeHandler(handler)
    assert loaded.dtype == np.float64 and loaded.shape == (int(finite.sum()), 3)
    assert loaded.tobytes() == points[finite].tobytes()
    dropped = int((~finite).sum())
    assert handler.messages == ([f"dropped {dropped} non-finite vertices from {path}"] if dropped else [])


INT32_MAX = 2**31 - 1


@st.composite
def valid_labelings(draw):
    """Labelings that pass validate: -1 rows are OTHER, each segment has one class."""
    ids = draw(st.lists(st.sampled_from([-1, -1, 0, 1, 2, 9, INT32_MAX - 1, INT32_MAX]), max_size=40), label="ids")
    if draw(st.booleans(), label="all_unsegmented"):
        ids = [-1] * len(ids)
    segment_class = {pid: draw(st.sampled_from(list(Orientation)), label="class") for pid in sorted(set(ids))}
    codes = [int(Orientation.OTHER) if pid < 0 else int(segment_class[pid]) for pid in ids]
    return SegmentLabeling(plane_ids=ids, orientations=codes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(labeling=valid_labelings())
def test_sidecar_round_trip_property(tmp_path_factory, labeling):
    path = tmp_path_factory.mktemp("sidecar") / "lab.labels.txt"
    save_labeling(labeling, path)
    loaded = load_labeling(path)
    assert loaded.plane_ids.dtype == np.int32 and loaded.orientations.dtype == np.int8
    np.testing.assert_array_equal(loaded.plane_ids, labeling.plane_ids)
    np.testing.assert_array_equal(loaded.orientations, labeling.orientations)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(labeling=valid_labelings())
def test_segment_colors_match_per_point_reference(tmp_path_factory, labeling):
    path = tmp_path_factory.mktemp("colors") / "out.ply"
    save_labeled(np.zeros((len(labeling), 3)), labeling, path, mode="segment")
    raw = path.read_bytes()
    table = np.frombuffer(raw[raw.find(b"end_header") + len(b"end_header\n"):],
                          dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("rgb", "u1", 3)])
    expected = [segment_color(pid) for pid in labeling.plane_ids.tolist()]
    assert [tuple(rgb) for rgb in table["rgb"].tolist()] == expected


WRITER_SPARSE_IDS = [-2**31, -2, -1, -1, 0, 7, 99_999, 100_000, INT32_MAX - 1, INT32_MAX]


@st.composite
def writer_cases(draw):
    """A cloud and a labeling for each id layout the writers treat apart:
    no point, all -1, dense ids in [-1, N) (the table takes id + 1), dense
    ids reaching below -1 and sparse ids up to the int32 extremes (both
    compacted), and dense ids of 100000 and over (lines wider than 8
    bytes). A point's class is drawn on its own, so a segment may mix
    classes; the writers do not validate."""
    layout = draw(st.sampled_from(["empty", "unsegmented", "dense", "negative", "sparse", "wide"]), label="layout")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = 0 if layout == "empty" else 100_012 if layout == "wide" else draw(st.integers(1, 60), label="n")
    codes = rng.integers(0, len(Orientation), size=n)
    if layout in ("empty", "unsegmented"):
        ids, codes = np.full(n, -1), np.full(n, int(Orientation.OTHER))
    elif layout == "dense":
        ids = rng.integers(-1, n, size=n)
    elif layout == "negative":
        ids = rng.integers(-3, n, size=n)
    elif layout == "sparse":
        ids = rng.choice(WRITER_SPARSE_IDS, size=n)
    else:
        ids = np.where(rng.random(n) < 0.1, -1, rng.integers(99_990, n, size=n))
    return rng.normal(size=(n, 3)), SegmentLabeling(plane_ids=ids, orientations=codes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=writer_cases())
def test_writers_match_reference_bytes(tmp_path_factory, case):
    points, labeling = case
    directory = tmp_path_factory.mktemp("writers")
    save_labeling(labeling, directory / "fast.txt")
    reference_save_labeling(labeling, directory / "slow.txt")
    assert (directory / "fast.txt").read_bytes() == (directory / "slow.txt").read_bytes()
    for mode in ("segment", "orientation"):
        save_labeled(points, labeling, directory / "fast.ply", mode=mode)
        reference_save_labeled(points, labeling, directory / "slow.ply", mode=mode)
        assert (directory / "fast.ply").read_bytes() == (directory / "slow.ply").read_bytes(), mode


@pytest.mark.parametrize("text, line", [
    (b"0 H\n1\n", 2),
    (b"0 H\n\n1 H V\n", 3),
    (b"0 H\n0 H 1 V\n", 2),
    (b"0 h\n", 1),
    (b"0 H\n1.5 H\n", 2),
    (b"0 H\r\n\r\n H\r\n", 3),
    (b"0 H\n0 HV\n", 2),
    (b"-7 H\n", 1),
    (b"0 O\n-2147483648 O\n", 2),
    (b"0 O\n1 O\n2147483648 O", 3),
    (b"99999999999 H\n", 1),
    (b"0 H\n0 \xc3\x89\n", 2),
], ids=["one-token", "three-tokens", "two-rows-on-one-line", "lowercase-class", "float-id", "empty-id-crlf",
        "two-char-class", "id-below-minus-1", "id-below-int32", "id-above-int32", "id-far-above-int32", "non-ascii"])
def test_sidecar_malformed_reports_line(tmp_path, text, line):
    path = tmp_path / "bad.labels.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError) as info:
        load_labeling(path)
    assert info.value.line == line


@pytest.mark.parametrize("text", [b"-1 H\n", b"0 V\n1 H\n0 H\n"], ids=["unsegmented-not-other", "mixed-segment"])
def test_sidecar_invalid_labeling_rejected(tmp_path, text):
    path = tmp_path / "bad.labels.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError):
        load_labeling(path)


@pytest.mark.parametrize("text", [
    b"0 H\n1 V\n",
    b"\n0 H\n\n\n1 V\n\n",
    b"0\tH\n1 \t V\n",
    b"0 H\r\n1 V\r\n",
    b"0 H\n1 V",
    b"  0 H  \n1    V\t",
    b"+0 H\x0c1 V\x1c",
], ids=["plain", "blank-lines", "tabs", "crlf", "no-final-newline", "padding", "other-separators"])
def test_sidecar_accepted_variants(tmp_path, text):
    path = tmp_path / "ok.labels.txt"
    path.write_bytes(text)
    loaded = load_labeling(path)
    assert loaded.plane_ids.tolist() == [0, 1]
    assert loaded.orientations.tolist() == [int(Orientation.HORIZONTAL), int(Orientation.VERTICAL)]


sidecar_rows = st.lists(st.tuples(
    st.sampled_from(["0", "1", "7", "-1", "+3", "1_0", "007", "-7", "2147483647", "2147483648",
                     "99999999999", "1.5", "x", ""]),
    st.sampled_from([" ", " ", "\t", " \t ", "\x1f", "\x0b", "\x1c", "\r"]),
    st.sampled_from(["H", "V", "O", "O", "O", "h", "HV", ""]),
    st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\n\n", " \n", " "]),
), max_size=12)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows=sidecar_rows, final_newline=st.booleans())
def test_sidecar_reader_matches_line_by_line_reference(tmp_path_factory, rows, final_newline):
    """The same labeling, or ParseError at the same first bad line, as a per-line parse."""
    text = "".join(f"{pid}{sep}{char}{end}" for pid, sep, char, end in rows)
    if not final_newline:
        text = text.rstrip("\n")
    path = tmp_path_factory.mktemp("sidecar") / "lab.labels.txt"
    path.write_bytes(text.encode("ascii"))
    expected = reference_load_labeling(text)
    if isinstance(expected, int):
        with pytest.raises(ParseError) as info:
            load_labeling(path)
        assert info.value.line == expected
        return
    labeling = SegmentLabeling(*expected)
    try:
        reference_validate(labeling)
    except ValueError:
        with pytest.raises(ParseError):
            load_labeling(path)
        return
    loaded = load_labeling(path)
    np.testing.assert_array_equal(loaded.plane_ids, labeling.plane_ids)
    np.testing.assert_array_equal(loaded.orientations, labeling.orientations)


SIDECAR_FLAWS = {
    "id": ["", "+", "-", "--1", "+-1", "1-2", "1+", "H", "0H", "1 2", "99999999999999999999"],
    "class": ["HV", "0", "+", "", "H V", "h"],
    "glue": [""],  # no separator between id and class
    "split": [" 7"],  # an id in two tokens, the second glued to the class
    "byte": ["x", "\x0b", "\x0c", "\x1c", ".", "#", "\xc3"],
}


@st.composite
def sidecar_tables(draw):
    """Sidecar text over the array reader's grammar: signs, leading zeros,
    ids -1 and 2**31 - 1 and their neighbours, 11-digit ids, runs of spaces
    and tabs, LF, CR and CRLF, blank lines and a missing final newline.
    Half the files carry one flaw on one line: a bad id or class, a glued
    or split token, or a stray byte."""
    n = draw(st.integers(0, 8), label="lines")
    flawed = draw(st.integers(-n - 1, n - 1), label="flawed_line")  # none when negative
    lines = []
    for i in range(n):
        flaw = draw(st.sampled_from(sorted(SIDECAR_FLAWS)), label="flaw") if i == flawed else None
        kind = draw(st.sampled_from(["small"] * 16 + ["extreme", "wide"]), label="id_kind")
        value = draw({"small": st.integers(-1, 40), "extreme": st.sampled_from([-2, 2**31 - 1, 2**31, -2**31]),
                      "wide": st.integers(10**10, 10**11 - 1)}[kind], label="id")
        sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]), label="sign")
        pid = sign + "0" * draw(st.sampled_from([0, 0, 0, 1, 2, 12]), label="zeros") + str(abs(value))
        sep = draw(st.sampled_from([" ", " ", "\t", "  \t"]), label="separator")
        cls = draw(st.sampled_from(["H", "V", "O"]), label="class")
        bad = draw(st.sampled_from(SIDECAR_FLAWS[flaw]), label="bad") if flaw else None
        if flaw == "id":
            pid = bad
        elif flaw == "class":
            cls = bad
        elif flaw in ("glue", "split"):
            pid, sep = pid + bad, ""
        gap = st.sampled_from(["", "", " ", "\t", " \t "])
        end = draw(st.sampled_from(["\n", "\n", "\r", "\r\n", "\n\n", " \n", "\t\r\n", "\n \t\n"]), label="end")
        line = f"{draw(gap, label='lead')}{pid}{sep}{cls}{draw(gap, label='trail')}{end}"
        if flaw == "byte":
            at = draw(st.integers(0, len(line)), label="at")
            line = line[:at] + bad + line[at:]
        lines.append(line)
    data = "".join(lines).encode("latin-1")
    if draw(st.booleans(), label="no_final_newline"):
        data = data.rstrip(b"\r\n")
    return data


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(data=sidecar_tables())
@example(b"- H\n").via("a bare sign")
@example(b"0 O\n+\tV\r\n").via("a bare sign")
@example(b"1 2H\n").via("a split id glued to its class")
@example(b"5H\n1 2 V\n").via("one token on a line, three on the next")
def test_array_reader_matches_loadtxt_reference(data):
    """The array reader accepts what np.loadtxt's reader accepted, with
    equal arrays of equal dtype, and leaves every other file to the
    line-by-line reader."""
    got, expected = _parse_table(data), reference_parse_table(data)
    if expected is None:
        assert got is None
        return
    assert got is not None
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_written_sidecars_take_the_array_reader(tmp_path):
    """What save_labeling writes, at 6.5k points and with ids of 100000 and
    more, never reaches the line-by-line reader."""
    _, room = gen_synthetic(box_room_scene(3.5, 1000, 500), seed=0)
    wide = SegmentLabeling(np.where(room.plane_ids < 0, -1, room.plane_ids + 100_000), room.orientations)
    assert len(room) == 6500 and room.segment_ids().size == 6
    path = tmp_path / "lab.labels.txt"
    for labeling in (room, wide):
        save_labeling(labeling, path)
        with mock.patch("planeops.io._parse_lines", side_effect=AssertionError("read line by line")):
            loaded = load_labeling(path)
        np.testing.assert_array_equal(loaded.plane_ids, labeling.plane_ids)
        np.testing.assert_array_equal(loaded.orientations, labeling.orientations)
