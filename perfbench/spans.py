"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans come from two places, both in
the benchmark's own files: context managers around the benchmark's calls
into the library, and wrappers installed over module attributes of the
library for the length of one traced pass.  Self time is a span's duration
minus the time its child spans cover.  When ``tracemalloc`` is tracing, each
span also records the peak of traced memory above its starting level,
children included.

Spans stay in memory until :meth:`Tracer.dump` writes them out at the end of
the run.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass

_NULL_SPAN = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    pass_index: int = 0
    peak_bytes: int = 0


@dataclass
class LayerTotals:
    """One layer's figures over one pass."""

    self_s: float = 0.0
    calls: int = 0
    peak_bytes: int = 0


class _SpanContext:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc_info):
        self.tracer._close()
        return False


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs nothing.

    ``wrap`` replaces ``module.attr`` by a function that records a span
    around each call; ``unwrap_all`` restores every original.  An attribute
    that does not exist is not an error: its qualified name is added to
    ``absent`` and the run goes on without that span.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.absent: list[str] = []
        # span name -> (args, kwargs, result) of each call, for wrappers
        # installed with keep_io=True; read and cleared after each pass.
        self.io: dict[str, list] = defaultdict(list)
        self.pass_index = 0
        self._stack: list[list] = []  # [span index, base bytes, high bytes]
        self._patched: list[tuple] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name)

    def _open(self, name: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, pass_index=self.pass_index))
        self._stack.append([len(self.spans) - 1, current, current])

    def _close(self) -> None:
        end = time.perf_counter()
        index, base, high = self._stack.pop()
        _, peak = tracemalloc.get_traced_memory()
        high = max(high, peak)
        span = self.spans[index]
        span.end = end
        span.peak_bytes = high - base
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], high)
        tracemalloc.reset_peak()

    def wrap(self, module, attr: str, name: str, keep_io: bool = False) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if keep_io:
                tracer.io[name].append((args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def layer_totals(self, pass_index: int) -> dict[str, LayerTotals]:
        """Self time, call count and peak allocation per span name in one pass."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.pass_index == pass_index and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for index, span in enumerate(self.spans):
            if span.pass_index != pass_index:
                continue
            entry = totals[span.name]
            entry.self_s += (span.end - span.start) - child_time[index]
            entry.calls += 1
            entry.peak_bytes = max(entry.peak_bytes, span.peak_bytes)
        return dict(totals)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")
