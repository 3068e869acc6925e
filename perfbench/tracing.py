"""Spans and counters recorded from the benchmark's side of each layer call.

The program is not instrumented.  A traced pass reaches each f2cover
module through a `Layer` proxy that records one span per call into one
of the module's public functions; an untraced pass gets the modules
themselves.  Spans are kept in memory as (name, start, end, parent)
tuples and handed back when the pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import ModuleType


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: int) -> None:
        pass


class Layer:
    """Proxy over one module whose public functions record a span per call."""

    def __init__(self, module: ModuleType, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr: str):
        target = getattr(self._module, attr)
        if attr.startswith("_") or not callable(target) or isinstance(target, type):
            return target
        tracer, name = self._tracer, f"{self._layer}.{attr}"

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return target(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced


def self_times(spans: list) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_total[i]
    return out
