"""The benchmark in ``bench/`` wraps retsym functions by name.

``bench/spans.py`` lists them in ``TARGETS``; a renamed or removed function
would only surface when the traced benchmark next runs, so check here that
every name still resolves.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_span_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    targets = spans.TARGETS
    assert targets
    missing = [
        f"retsym.{module}.{function}"
        for module, function, _ in targets
        if not callable(getattr(importlib.import_module(f"retsym.{module}"), function, None))
    ]
    assert not missing, f"bench/spans.py wraps functions that no longer exist: {missing}"
