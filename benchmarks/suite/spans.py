"""In-memory span recorder for the traced benchmark run.

The harness wraps its own calls into each layer's public functions with
``recorder.span(name, request=...)``.  Spans carry name, start, end, parent and
a request id; they stay in memory and are written as Chrome trace JSON when the
run ends.  A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  ``repro.obs`` tracing is never switched on:
spans inside the program are a later issue.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "thread", "args")

    def __init__(self, name: str, parent: Optional["Span"], request: object, args: dict) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.args = args
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    """Records nested spans per thread; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._current = threading.local()

    @contextmanager
    def span(self, name: str, request: object = None, **args: object) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = getattr(self._current, "span", None)
        if request is None and parent is not None:
            request = parent.request
        span = Span(name, parent, request, args)
        self._current.span = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.span = parent
            self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def watching_gc(self) -> Iterator[None]:
        """Record every pause of this process's garbage collector as a
        ``python.gc`` span: a stall that no layer's span explains is often one."""
        began: List[float] = []

        def callback(phase: str, info: dict) -> None:
            if phase == "start":
                began.append(time.perf_counter())
            elif began:
                span = Span("python.gc", None, None, {"generation": info["generation"]})
                span.start = began.pop()
                self.spans.append(span)

        gc.callbacks.append(callback)
        try:
            yield
        finally:
            gc.callbacks.remove(callback)

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name (duration minus child coverage)."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] = covered.get(id(span.parent), 0.0) + span.ms
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.ms - covered.get(id(span), 0.0)
        return totals

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a complete ("X") event, timestamps in µs."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": span.thread,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"request": span.request, **span.args},
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


#: Shared recorder of untraced runs.
NULL_RECORDER = SpanRecorder(enabled=False)
