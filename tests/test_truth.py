"""Ground truth tests: the smoothness constraint over k-NN edges, cut into planar segments."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

import planeops.kdtree as kdtree
import planeops.truth as truth
from helpers import id_layout_labelings, reference_ground_truth, reference_segment_ids, reference_validate
from planeops import GtParams, KdTree, Orientation, SegmentLabeling, gen_synthetic, generate_ground_truth, make_box_room
from planeops.geometry import DegenerateInput, fit_plane
from planeops.normals import estimate_normals


class TestSegmentLabeling:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SegmentLabeling(plane_ids=[0, 1], orientations=[0])

    def test_validate_catches_unlabeled_other(self):
        lab = SegmentLabeling(plane_ids=[-1], orientations=[int(Orientation.HORIZONTAL)])
        with pytest.raises(ValueError):
            lab.validate()

    def test_validate_catches_mixed_segment(self):
        lab = SegmentLabeling(plane_ids=[0, 0], orientations=[0, 1])
        with pytest.raises(ValueError):
            lab.validate()

    @pytest.mark.parametrize("ids", [np.array([2**32 + 5, -1]), [2**32 + 5, -1], np.array([-(2**31) - 1, -1])],
                             ids=["int64-array", "list", "below-int32"])
    def test_id_beyond_int32_rejected(self, ids):
        with pytest.raises(ValueError, match="int32"):
            SegmentLabeling(plane_ids=ids, orientations=[0, 2])

    def test_int32_bounds_kept(self):
        lab = SegmentLabeling(plane_ids=np.array([2**31 - 1, -(2**31)]), orientations=[0, 2])
        assert lab.plane_ids.dtype == np.int32
        assert lab.plane_ids.tolist() == [2**31 - 1, -(2**31)]

    @pytest.mark.parametrize("codes, first_bad", [([5, 5], 5), ([0, -1], -1), ([2, 3, 4], 3)])
    def test_validate_rejects_unknown_orientation(self, codes, first_bad):
        lab = SegmentLabeling(plane_ids=[0] * len(codes), orientations=codes)
        with pytest.raises(ValueError, match=f"^{first_bad} is not a valid Orientation$"):
            lab.validate()

    def test_all_other(self):
        lab = SegmentLabeling.all_other(5)
        lab.validate()
        assert lab.segment_ids().size == 0


def _outcome(check, labeling):
    try:
        check(labeling)
    except ValueError as exc:
        return str(exc)
    return None


# Ids from a few small values (so segments repeat) and the int32 extremes;
# orientation codes include values outside Orientation.
label_rows = st.lists(st.tuples(st.sampled_from([-2**31, -3, -1, -1, 0, 0, 1, 2, 7, 2**31 - 1]),
                                st.sampled_from([-128, -1, 0, 1, 2, 2, 2, 3, 127])), max_size=40)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows=label_rows, data=st.data())
def test_validate_matches_reference(rows, data):
    """Same accept/raise outcome and message as the per-segment loop."""
    # Repair one invariant or both, so that each check is reached and valid
    # labelings are common.
    if data.draw(st.booleans(), label="unsegmented_other"):
        rows = [(pid, 2 if pid < 0 else code) for pid, code in rows]
    if data.draw(st.booleans(), label="consistent"):
        first = {}
        rows = [(pid, code if pid < 0 else first.setdefault(pid, code)) for pid, code in rows]
    labeling = SegmentLabeling(plane_ids=[r[0] for r in rows], orientations=[r[1] for r in rows])
    assert _outcome(SegmentLabeling.validate, labeling) == _outcome(reference_validate, labeling)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labeling=id_layout_labelings())
def test_id_table_matches_unique_oracles(labeling):
    """validate and segment_ids read the per-id table as the np.unique
    oracles read the ids, on every id layout; validate names the smallest
    mixed id."""
    ids, rows = labeling.id_rows()
    assert np.all(ids[1:] > ids[:-1]) and np.array_equal(ids[rows], labeling.plane_ids)
    assert _outcome(SegmentLabeling.validate, labeling) == _outcome(reference_validate, labeling)
    segments, expected = labeling.segment_ids(), reference_segment_ids(labeling)
    assert segments.dtype == expected.dtype and np.array_equal(segments, expected)


class TestGenerateGroundTruth:
    def test_box_room_segments(self, clean_room):
        points, truth = clean_room
        labeling = generate_ground_truth(points, GtParams())
        labeling.validate()
        ids = labeling.segment_ids()
        assert ids.size == 6
        orient_count = {Orientation.HORIZONTAL: 0, Orientation.VERTICAL: 0, Orientation.OTHER: 0}
        for pid in ids:
            members = labeling.plane_ids == pid
            orient = Orientation(int(labeling.orientations[members][0]))
            orient_count[orient] += 1
            overlap = truth.plane_ids[members]
            vals, counts = np.unique(overlap, return_counts=True)
            assert counts.max() / members.sum() >= 0.99
        assert orient_count[Orientation.HORIZONTAL] == 2
        assert orient_count[Orientation.VERTICAL] == 4

    def test_pure_noise_mostly_other(self):
        rng = np.random.default_rng(42)
        points = rng.uniform(0, 2, size=(1500, 3))
        labeling = generate_ground_truth(points, GtParams())
        assert np.mean(labeling.plane_ids < 0) >= 0.90

    def test_size_gate(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 1, size=(49, 2))
        points = np.column_stack([xy, np.zeros(49)])
        labeling = generate_ground_truth(points, GtParams(min_plane_size=50))
        assert (labeling.plane_ids == -1).all()
        assert (labeling.orientations == int(Orientation.OTHER)).all()

    def test_two_separated_planes(self):
        scene = {
            "rects": [
                {"corner": [0, 0, 0], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 800},
                {"corner": [0, 0, 1.5], "edge_u": [2, 0, 0], "edge_v": [0, 2, 0], "count": 800},
            ]
        }
        points, _ = gen_synthetic(scene, noise_sigma=0.004, seed=7)
        labeling = generate_ground_truth(points, GtParams())
        assert labeling.segment_ids().size == 2
        assert (labeling.orientations[labeling.plane_ids >= 0] == int(Orientation.HORIZONTAL)).all()

    def test_one_knn_query(self, clean_room, monkeypatch):
        """Normals and the edge test share one batched k-NN query."""
        calls = []
        original = KdTree.knn

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KdTree, "knn", counting)
        generate_ground_truth(clean_room[0], GtParams())
        assert len(calls) == 1


@pytest.mark.parametrize("field", ["dist_threshold", "normal_angle_degrees"])
def test_float_fields_reject_bool_and_accept_int(field):
    with pytest.raises(ValueError, match=field):
        GtParams(**{field: True})
    value = getattr(GtParams(**{field: 1}), field)
    assert value == 1.0 and type(value) is float


def _patch(rng, count, center, normal=None, size=0.6, noise=0.002):
    """``count`` noisy points on a square patch of edge ``size`` around ``center``."""
    if normal is None:
        normal = rng.normal(size=3)
    normal = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
    u = np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    coords = rng.uniform(-size / 2, size / 2, size=(count, 2))
    return center + coords[:, :1] * u + coords[:, 1:] * v + rng.normal(scale=noise, size=(count, 3))


def _half_cylinder(rng, radius, count, length=0.6, noise=0.002):
    """``count`` noisy points on a half-cylinder of ``radius`` around the x axis, opening downwards."""
    x = rng.uniform(0.0, length, size=count)
    angle = rng.uniform(0.0, np.pi, size=count)
    points = np.column_stack([x, radius * np.cos(angle), radius * np.sin(angle)])
    return points + rng.normal(scale=noise, size=points.shape)


@st.composite
def gt_scenes(draw):
    """Small clouds that reach every branch of ground-truth extraction.

    Patches of 100-300 points make components well over the size gate;
    isolated patches of min_plane_size - 1 .. + 1 points sit at it;
    duplicated points get degenerate normals; a strip on one line with a
    1e-7 in-plane jitter has valid normals but a fit that raises
    DegenerateInput, and may lead into a patch; a half-cylinder is cut into
    strips over several rounds; uniform clutter makes many one-point
    components.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    params = GtParams(
        k=draw(st.sampled_from([3, 10, 20]), label="k"),
        min_plane_size=draw(st.sampled_from([3, 10, 40]), label="min_plane_size"),
        dist_threshold=draw(st.sampled_from([0.01, 0.05]), label="dist"),
        normal_angle_degrees=draw(st.sampled_from([3.0, 7.0, 20.0]), label="angle"),
    )
    parts = []
    for i in range(draw(st.integers(0, 3), label="patches")):
        normal = draw(st.sampled_from([None, (0, 0, 1), (1, 0, 0)]), label="normal")
        parts.append(_patch(rng, draw(st.integers(100, 300), label="count"), (3.0 * i, 0, 0), normal))
    for i in range(draw(st.integers(0, 2), label="gated")):
        count = params.min_plane_size + draw(st.sampled_from([-1, 0, 1]), label="offset")
        parts.append(_patch(rng, count, (3.0 * i, 5.0, 0), (0, 0, 1), size=0.05 * np.sqrt(count), noise=0.0005))
    if draw(st.booleans(), label="strip"):
        count = draw(st.integers(70, 200), label="strip_count")
        x = np.linspace(0.0, 0.01 * count, count)
        parts.append(np.column_stack([x - 6.0, 1e-7 * rng.standard_normal(count), np.zeros(count)]))
        if draw(st.booleans(), label="strip_into_patch"):
            parts.append(_patch(rng, draw(st.integers(100, 300), label="strip_patch"), (0.01 * count - 5.7, 0, 0),
                                (0, 0, 1)))
    if draw(st.booleans(), label="arc"):
        parts.append(_half_cylinder(rng, draw(st.sampled_from([0.3, 0.6]), label="radius"), 400) + (0, 0, -6.0))
    parts.append(rng.uniform(-1, 1, size=(draw(st.integers(0, 80), label="clutter"), 3)) + (0, -5.0, 0))
    points = np.vstack(parts) if sum(len(p) for p in parts) else rng.uniform(size=(30, 3))
    if draw(st.booleans(), label="duplicates"):
        picks = rng.choice(len(points), size=min(len(points), 6), replace=False)
        points = np.vstack([points, np.repeat(points[picks], draw(st.integers(1, 12), label="copies"), axis=0)])
    return points[rng.permutation(len(points))], params


def _assert_same_labels(got, want):
    assert got.plane_ids.dtype == want.plane_ids.dtype and got.orientations.dtype == want.orientations.dtype
    np.testing.assert_array_equal(got.plane_ids, want.plane_ids)
    np.testing.assert_array_equal(got.orientations, want.orientations)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(scene=gt_scenes())
def test_ground_truth_matches_reference(scene):
    points, params = scene
    _assert_same_labels(generate_ground_truth(points, params), reference_ground_truth(points, params))


# BLOCK_ENTRIES, which sizes the k-NN query's, the normals' and the edge
# test's blocks, for a cloud of n points whose rows hold w neighbours: fewer entries than one
# row, 7 rows with a part row to spare, and about half the cloud, which
# leaves a smaller last block.
BLOCKS = {"one-row": lambda n, w: 1, "seven-rows": lambda n, w: 8 * w - 1, "ragged": lambda n, w: (n // 2 + 1) * w}


@pytest.mark.parametrize("block", sorted(BLOCKS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(scene=gt_scenes())
def test_row_blocks_match_reference(block, scene):
    """The k-NN query, normals and edges computed block by block give the
    labels of the reference's single query, whole-cloud normals and
    edge-by-edge test, bit for bit."""
    points, params = scene
    n = points.shape[0]
    entries = BLOCKS[block](n, min(params.k, n - 1))
    with mock.patch.object(kdtree, "BLOCK_ENTRIES", entries):
        labeling = generate_ground_truth(points, params)
    _assert_same_labels(labeling, reference_ground_truth(points, params))


def test_peak_memory_is_blocked():
    """After the k-NN query no temporary spans the cloud: on 39,000 points
    the traced peak stays under 20 MB (whole-cloud temporaries took 34 MB)."""
    points = make_box_room(3.5, 6000, 3000)[0]
    generate_ground_truth(points[:500])  # scipy.sparse loads outside the trace
    tracemalloc.start()
    try:
        generate_ground_truth(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_collinear_strip_refits_raise(monkeypatch):
    """A strip on one line has valid normals, so its edges pass, but its
    components determine no plane: they make no segment and raise nothing."""
    count = 150
    strip = np.column_stack([np.linspace(0.0, 1.5, count), 1e-7 * np.random.default_rng(0).standard_normal(count),
                             np.zeros(count)])
    fit_plane, raised = truth.fit_plane, []

    def recording(points, *args, **kwargs):
        try:
            return fit_plane(points, *args, **kwargs)
        except DegenerateInput:
            raised.append(len(points))
            raise

    monkeypatch.setattr(truth, "fit_plane", recording)
    for k in (3, 10):
        raised.clear()
        labeling = generate_ground_truth(strip, GtParams(k=k))
        assert raised and min(raised) >= GtParams().min_plane_size  # fits of components over the size gate
        assert (labeling.plane_ids == -1).all()
        _assert_same_labels(labeling, reference_ground_truth(strip, GtParams(k=k)))


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_half_cylinder_becomes_planar_strips(radius):
    """A smooth curved surface is one component; the plane guard cuts it into
    connected strips along its axis, each close to its own least-squares
    plane and made of members whose normals agree with that plane's."""
    rng = np.random.default_rng(5)
    points = _half_cylinder(rng, radius, int(3000 * radius), length=1.0)
    params = GtParams()
    labeling = generate_ground_truth(points, params)
    labeling.validate()
    ids = labeling.segment_ids()
    assert ids.size >= 2
    assert np.mean(labeling.plane_ids >= 0) >= 0.5
    normals = estimate_normals(points, KdTree(points), np.arange(len(points)), params.k)[0]
    for pid in ids:
        inside = labeling.plane_ids == pid
        members = points[inside]
        plane = fit_plane(members)
        assert np.abs((members - plane.centroid) @ plane.normal).max() <= 2 * params.dist_threshold
        # Members agree with the plane that kept them; its last refit turns it by a little.
        angles = np.degrees(np.arccos(np.minimum(np.abs(normals[inside] @ plane.normal), 1.0)))
        assert angles.max() <= params.normal_angle_degrees + 2.0
        nbrs = KdTree(members).knn(np.arange(len(members)), params.k)[1]
        graph = csr_matrix((np.ones(nbrs.size), (np.repeat(np.arange(len(members)), params.k), nbrs.ravel())),
                           shape=(len(members), len(members)))
        assert csgraph.connected_components(graph, connection="weak")[0] == 1
