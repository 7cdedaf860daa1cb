"""The benchmark in ``bench/`` wraps retsym functions by name.

``bench/spans.py`` lists them in ``TARGETS``; a renamed or removed function
would only surface when the traced benchmark next runs, so check here that
every name still resolves, and that each count hook reads its target's
arguments by the names and in the order the target declares them.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_bench_span_targets_resolve(monkeypatch):
    targets = _targets(monkeypatch)
    assert targets
    missing = [
        f"retsym.{module}.{function}"
        for module, function, _ in targets
        if not callable(getattr(importlib.import_module(f"retsym.{module}"), function, None))
    ]
    assert not missing, f"bench/spans.py wraps functions that no longer exist: {missing}"


def test_bench_count_hooks_bind_to_their_targets(monkeypatch):
    # A hook is called as hook(counts, result, *args, **kwargs) with the target's
    # own arguments, so its named parameters after (counts, result) must be the
    # target's leading parameters.
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    checked = 0
    for module, function, hook in _targets(monkeypatch):
        if hook is None:
            continue
        named = [p.name for p in list(inspect.signature(hook).parameters.values())[2:] if p.kind in positional]
        target = getattr(importlib.import_module(f"retsym.{module}"), function)
        leading = list(inspect.signature(target).parameters)[: len(named)]
        assert named == leading, f"{hook.__name__} reads {named}, but retsym.{module}.{function} takes {leading}"
        checked += len(named)
    assert checked >= 9  # _bytes_read, _bytes_written, _regions_found, _step, _model_bytes
