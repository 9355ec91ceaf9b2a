"""The benchmark's span hooks name planeops globals; every name must resolve.

``perfbench/spans.py`` wraps functions by ``(module, name)`` through
``getattr``, so a renamed or removed global makes a traced benchmark run
(``perfbench/run.py --trace 1``) crash before it measures anything.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_spanned_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module.__name__, name) for module, name in spans.SPANNED if not hasattr(module, name)]
    assert missing == []
