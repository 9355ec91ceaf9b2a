"""The benchmark's span hooks name planeops globals; every name must resolve,
and a traced run of each benchmarked command must complete.

``perfbench/spans.py`` wraps functions by ``(module, name)`` through
``getattr``, so a renamed or removed global makes a traced benchmark run
(``perfbench/run.py --trace 1``) crash before it measures anything. Its
wrappers also read attributes of what some functions return (such as
``RansacResult.iterations``), which only a traced call exercises.
"""

import importlib.util
from pathlib import Path

import pytest

from planeops.cli import EXIT_OK, main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves(spans):
    missing = [(module.__name__, name) for module, name in spans.SPANNED if not hasattr(module, name)]
    assert missing == []


@pytest.fixture(scope="module")
def room(tmp_path_factory):
    """A 2,000-point box room and its synth truth."""
    out = tmp_path_factory.mktemp("traced") / "room.ply"
    assert main(["synth", "--room-size", "2.5", "--points-per-face", "300", "--clutter", "200",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK
    return out


def _traced(spans, *commands):
    """Run CLI commands under a tracer; returns their exit codes and the spans."""
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        spans.uninstall(saved)
    return codes, tracer.spans


def _errors(recorded):
    """Spans closed by an exception, except the NoPlaneFound that ends a
    group's one-point RANSAC loop, which perfbench counts as ``ops.no_plane``."""
    return [(span["name"], span["attrs"]["error"]) for span in recorded if "error" in span["attrs"]
            and (span["name"], span["attrs"]["error"]) != ("ops.one_point_ransac", "NoPlaneFound")]


@pytest.mark.parametrize("flags, detector_span", [
    (["--sampling-rate", "0.1", "--knn", "10"], "ops.one_point_ransac"),
    (["--detector", "fspf", "--merge-angle", "10", "--merge-offset", "0.075"], "pipeline.fspf_detect"),
], ids=["ops", "fspf"])
def test_traced_detect(spans, room, tmp_path, flags, detector_span):
    # Both detectors' planes claim the cloud through the one claim path.
    codes, recorded = _traced(spans, ["detect", "--input", str(room), "--out", str(tmp_path), *flags])
    assert codes == [EXIT_OK]
    names = {span["name"] for span in recorded}
    assert {"cli.run_detect", "cli.save_labeled", "pipeline.merge_all", "pipeline.assign_to_planes",
            "ops.extract_full_inliers", detector_span} <= names
    assert _errors(recorded) == []
    assert spans.check_spans(recorded) == []


def test_traced_gt_then_eval(spans, room, tmp_path):
    sidecar = tmp_path / "gt.labels.txt"
    codes, recorded = _traced(
        spans,
        ["gt", "--input", str(room), "--out", str(sidecar)],
        ["eval", "--pred", str(sidecar), "--truth", str(room.with_suffix(".labels.txt"))],
    )
    assert codes == [EXIT_OK, EXIT_OK]
    names = {span["name"] for span in recorded}
    # The benchmark times the sidecar writer and reader through these spans.
    assert {"cli.generate_ground_truth", "cli.save_labeling", "cli.load_labeling", "cli.segmentation_accuracy",
            "cli.classification_accuracy"} <= names
    assert _errors(recorded) == []
    assert spans.check_spans(recorded) == []
