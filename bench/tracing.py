"""Span recording for the benchmark's traced, in-process run.

Spans are recorded from outside the engine: each public function is
wrapped where the calling module looks the name up (for example
``deployassure.stability.compute_confusion``), and the originals are put
back afterwards. Spans stay in memory until the run writes them out.

Functions called once or more per snapshot (``step``, ``compute_das``,
``classify_drc``, ``compute_ges``) would cost more to record one span
each than they cost to run, so they are aggregated to a call count and a
total time under the span that encloses them.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, Any], dict[str, int]]


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    invocation: int
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Spans and aggregated leaf calls of one invocation."""

    def __init__(self, invocation: int = 0) -> None:
        self.spans: list[Span] = []
        # (enclosing span id, leaf name) -> [calls, seconds]
        self.leaves: dict[tuple[int | None, str], list] = {}
        self.invocation = invocation
        self._stack: list[int] = []

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        kwargs: dict | None = None,
        count: Counter | None = None,
    ) -> Any:
        span = Span(
            len(self.spans), name, self._stack[-1] if self._stack else None, self.invocation
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if count is not None:
            span.counts = count(args, result)
        return result

    def span(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (stack[-1] if stack else None, name)
                total = leaves.get(key)
                if total is None:
                    leaves[key] = [1, elapsed]
                else:
                    total[0] += 1
                    total[1] += elapsed

        return wrapper

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        leaf_time: dict[int | None, float] = defaultdict(float)
        for (parent, _), (_, seconds) in self.leaves.items():
            leaf_time[parent] += seconds
        own = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for start, end in sorted(children[s.span_id]):
                start, end = max(start, reach), min(end, s.end)
                if end > start:
                    covered += end - start
                    reach = end
            own[s.span_id] = max(0.0, s.end - s.start - covered - leaf_time[s.span_id])
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Totals per layer: ``<name>.s``, ``.calls``, ``.self_s``, ``.failed``
        and whatever the span counters recorded."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[f"{s.name}.s"] += s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += own[s.span_id]
            if s.error is not None:
                out[f"{s.name}.failed"] += 1
            for key, value in s.counts.items():
                out[key] += value
        for (_, name), (calls, seconds) in self.leaves.items():
            out[f"{name}.s"] += seconds
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += seconds
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "leaves": [
                {"parent": parent, "name": name, "calls": calls, "s": seconds}
                for (parent, name), (calls, seconds) in self.leaves.items()
            ],
        }


def _rows_scanned(args: tuple, result: Any) -> dict[str, int]:
    return {"evaluation.compute_confusion.rows_scanned": len(args[0])}


def _trace_bytes(args: tuple, result: Any) -> dict[str, int]:
    return {"lifecycle.emit_trace.bytes": len(result)}


def _transitions(args: tuple, result: Any) -> dict[str, int]:
    return {"lifecycle.transitions": sum(e.transition is not None for e in result.entries)}


def _parsed(layer: str) -> Counter:
    return lambda args, result: {f"{layer}.rows": len(result)}


# (module that looks the name up, attribute, layer name, counter)
SPANS = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "parse_predictions", "io.parse_predictions", _parsed("io.parse_predictions")),
    ("cli", "parse_signals", "io.parse_signals", _parsed("io.parse_signals")),
    ("cli", "compute_confusion", "evaluation.compute_confusion", _rows_scanned),
    ("stability", "compute_confusion", "evaluation.compute_confusion", _rows_scanned),
    ("cli", "compute_gaps", "evaluation.compute_gaps", None),
    ("stability", "compute_gaps", "evaluation.compute_gaps", None),
    ("cli", "compute_fdi", "disagreement.compute_fdi", None),
    ("stability", "compute_fdi", "disagreement.compute_fdi", None),
    ("cli", "sweep", "stability.sweep", None),
    ("stability", "fdi_at_threshold", "stability.fdi_at_threshold", None),
    ("cli", "sensitivity", "stability.sensitivity", None),
    ("cli", "tsz_scalar", "stability.tsz_scalar", None),
    ("cli", "build_assessments", "lifecycle.build_assessments", None),
    ("cli", "replay", "lifecycle.replay", _transitions),
    ("cli", "emit_trace", "lifecycle.emit_trace", _trace_bytes),
)
LEAVES = (
    ("cli", "compute_das", "assurance.compute_das"),
    ("cli", "compute_ges", "assurance.compute_ges"),
    ("cli", "classify_drc", "assurance.classify_drc"),
    ("lifecycle", "compute_das", "assurance.compute_das"),
    ("lifecycle", "compute_ges", "assurance.compute_ges"),
    ("lifecycle", "classify_drc", "assurance.classify_drc"),
    ("lifecycle", "step", "lifecycle.step"),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every traced name for the duration of the block."""
    saved = []
    try:
        for module_name, attr, layer, count in SPANS:
            module = importlib.import_module(f"deployassure.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.span(layer, original, count))
        for module_name, attr, layer in LEAVES:
            module = importlib.import_module(f"deployassure.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.leaf(layer, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
