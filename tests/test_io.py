"""Cloud and labeling I/O tests: parsers, round trips, error offsets."""

import logging

import numpy as np
import pytest

from planeops import (
    Orientation,
    ParseError,
    SegmentLabeling,
    UnsupportedFormat,
    load_cloud,
    load_labeling,
    save_labeled,
    save_labeling,
)
from planeops.io import segment_color


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
        save_labeled(loaded, labeling, again, mode="segment", sidecar=False)
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
        save_labeled(points, SegmentLabeling.all_other(10), path, mode="segment", sidecar=False)
        raw = path.read_bytes()
        body = raw[raw.find(b"end_header") + len(b"end_header\n"):]
        table = np.frombuffer(body, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                           ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        for c in ("red", "green", "blue"):
            assert (table[c] == 128).all()

    def test_ascii_output_parses_back(self, tmp_path, rng):
        points = rng.normal(size=(20, 3))
        path = tmp_path / "out.ply"
        save_labeled(points, SegmentLabeling.all_other(20), path, binary=False, sidecar=False)
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
        with pytest.raises(ValueError):
            save_labeling(SegmentLabeling([0, 1], [0, 3]), tmp_path / "lab.labels.txt")

    def test_size_mismatch_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError):
            save_labeled(rng.normal(size=(5, 3)), SegmentLabeling.all_other(4), tmp_path / "x.ply")
