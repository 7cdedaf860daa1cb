"""Spans around retsym's public functions, recorded from the benchmark's side.

:meth:`Tracer.patched` swaps each function in :data:`TARGETS` for a wrapper
in every ``retsym`` module namespace that holds it (the package imports
functions by name, so patching the defining module alone would miss most
callers) and restores the originals on exit.  Nothing in ``src/`` changes.

A span records its name, start, end, the span that was open when it began,
and the trace id of the round it belongs to.  A layer's self time is its
duration minus the time its child spans cover.  Counters are taken at the
same boundaries, after the wrapped call returns.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

CountHook = Callable[..., None]


def _bytes_read(counts: Counter, result, path, *args, **kwargs) -> None:
    counts["mask_io.bytes_read"] += os.stat(path).st_size


def _bytes_written(counts: Counter, result, mask, path, *args, **kwargs) -> None:
    counts["mask_io.bytes_written"] += os.stat(path).st_size


def _regions_found(counts: Counter, region_set, mask) -> None:
    counts["regions.regions_found"] += len(region_set)
    counts["regions.foreground_px"] += int(np.count_nonzero(mask.pixels))


def _regions_kept(counts: Counter, vector, *args, **kwargs) -> None:
    counts["symbolic.regions_kept"] += sum(vector.values)


def _step(counts: Counter, result, params, n_trunk, x, *args, **kwargs) -> None:
    counts["grader.steps"] += 1
    counts["grader.samples_seen"] += len(x)


def _epochs_run(counts: Counter, model, *args, **kwargs) -> None:
    counts["grader.epochs_run"] += model.training_meta["epochs_run"]


def _model_bytes(counts: Counter, result, model, path) -> None:
    counts["grader.model_bytes"] += os.stat(path).st_size


# (module, function, count hook); each span is named "<module>.<function>".
TARGETS: tuple[tuple[str, str, Optional[CountHook]], ...] = (
    ("mask_io", "load_manifest", None),
    ("mask_io", "load_mask", _bytes_read),
    ("mask_io", "save_mask", _bytes_written),
    ("mask_io", "write_manifest", None),
    ("regions", "extract_regions", _regions_found),
    ("symbolic", "extended_features", _regions_kept),
    ("symbolic", "write_features_csv", None),
    ("symbolic", "read_features_csv", None),
    ("evaluation", "extract_dataset", None),
    ("evaluation", "evaluate", None),
    ("grader", "train", _epochs_run),
    ("grader", "loss_and_gradients", _step),
    ("grader", "predict_batch", None),
    ("grader", "save_model", _model_bytes),
    ("grader", "load_model", None),
    ("explain", "render", None),
    ("synth", "plan_dataset", None),
    ("synth", "rasterize", None),
    ("synth", "generate", None),
)


class Totals(NamedTuple):
    total: float  # seconds inside the spans
    own: float  # the same, less the time their child spans cover
    calls: int


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    trace_id: int


class Tracer:
    """Keeps spans and counters in memory until they are summarized."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.trace_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Route every call to a function in :data:`TARGETS` through a span."""
        wrappers = {}
        for module_name, fn_name, count in TARGETS:
            original = getattr(importlib.import_module(f"retsym.{module_name}"), fn_name)
            wrappers[id(original)] = (original, self.wrap(f"{module_name}.{fn_name}", original, count))
        importlib.import_module("retsym.cli")
        undo = []
        for name, module in list(sys.modules.items()):
            if name != "retsym" and not name.startswith("retsym."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    def summary(self) -> defaultdict[str, Totals]:
        """Span name -> totals; names never recorded give zeros."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: defaultdict[str, Totals] = defaultdict(lambda: Totals(0.0, 0.0, 0))
        for span, child_time in zip(self.spans, covered):
            duration = span.end - span.start
            t = totals[span.name]
            totals[span.name] = Totals(t.total + duration, t.own + duration - child_time, t.calls + 1)
        return totals

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def pipeline_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pipeline round: name -> (value, unit)."""
    spans, counts = tracer.summary(), tracer.counts
    found = counts["regions.regions_found"]
    kept = counts["symbolic.regions_kept"]
    return {
        "mask_io.load_mask_s": (spans["mask_io.load_mask"].total, "s"),
        "mask_io.load_mask_calls": (spans["mask_io.load_mask"].calls, "count"),
        "mask_io.bytes_read": (counts["mask_io.bytes_read"], "B"),
        "mask_io.load_manifest_s": (spans["mask_io.load_manifest"].total, "s"),
        "regions.extract_regions_s": (spans["regions.extract_regions"].total, "s"),
        "regions.extract_regions_calls": (spans["regions.extract_regions"].calls, "count"),
        "regions.regions_found": (found, "count"),
        "regions.foreground_px": (counts["regions.foreground_px"], "px"),
        "evaluation.extract_dataset_self_s": (spans["evaluation.extract_dataset"].own, "s"),
        "symbolic.features_s": (spans["symbolic.extended_features"].total, "s"),
        "symbolic.regions_kept": (kept, "count"),
        "symbolic.regions_discarded": (found - kept, "count"),
        # Base: regions.regions_found.
        "symbolic.kept_ratio": (kept / found if found else 0.0, "kept/found"),
        "symbolic.write_features_csv_s": (spans["symbolic.write_features_csv"].total, "s"),
        "symbolic.read_features_csv_s": (spans["symbolic.read_features_csv"].total, "s"),
        "grader.train_s": (spans["grader.train"].total, "s"),
        "grader.train_self_s": (spans["grader.train"].own, "s"),
        "grader.loss_and_gradients_s": (spans["grader.loss_and_gradients"].total, "s"),
        "grader.steps": (counts["grader.steps"], "count"),
        "grader.epochs_run": (counts["grader.epochs_run"], "count"),
        "grader.samples_seen": (counts["grader.samples_seen"], "count"),
        "grader.predict_batch_s": (spans["grader.predict_batch"].total, "s"),
        "grader.load_model_s": (spans["grader.load_model"].total, "s"),
        "grader.save_model_s": (spans["grader.save_model"].total, "s"),
        "grader.model_bytes": (counts["grader.model_bytes"], "B"),
        "explain.render_s": (spans["explain.render"].total, "s"),
        "explain.render_calls": (spans["explain.render"].calls, "count"),
        "evaluation.evaluate_s": (spans["evaluation.evaluate"].total, "s"),
        **{
            f"cli.{command}_self_s": (spans[f"cli.{command}"].own, "s")
            for command in ("extract", "train", "predict", "explain", "evaluate")
        },
    }


def setup_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up: name -> (value, unit)."""
    spans = tracer.summary()
    return {
        "mask_io.save_mask_s": (spans["mask_io.save_mask"].total, "s"),
        "mask_io.bytes_written": (tracer.counts["mask_io.bytes_written"], "B"),
        "synth.plan_dataset_s": (spans["synth.plan_dataset"].total, "s"),
        "synth.rasterize_s": (spans["synth.rasterize"].total, "s"),
        "synth.generate_self_s": (spans["synth.generate"].own, "s"),
    }
