"""Low-overhead span tracing for the query lifecycle.

A :class:`Tracer` records a tree of timed :class:`Span`\\ s — parse → compile →
table-selection → physical-plan → execute → render, with child spans for every
operator — plus point-in-time *events* inside a span (zone-map/bucket pruning
decisions).

The design constraint is the disabled path: a session with
``tracing_enabled=False`` must pay essentially nothing.  ``Tracer.span()``
therefore returns the shared :data:`NULL_SPAN` singleton when tracing is off —
no allocation, no lock, no timestamp — and every instrumentation site is an
unconditional ``with tracer.span(...)`` / ``span.event(...)`` call with no
branching at the call site.

Finished spans export to the Chrome trace-event JSON format
(:meth:`Tracer.to_chrome_trace` / :meth:`Tracer.write_chrome_trace`), loadable
in Perfetto or ``chrome://tracing``: spans become complete (``"ph": "X"``)
events on their recording thread's timeline, so concurrent queries on
scheduler threads are visually inspectable; span events become instant
(``"ph": "i"``) events.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple


def _now_us() -> int:
    return time.perf_counter_ns() // 1_000


class _NullSpan:
    """The do-nothing span returned by a disabled tracer.

    A single shared instance (:data:`NULL_SPAN`): entering, exiting, tagging
    and emitting events are all no-ops, so instrumentation sites need no
    ``if tracing:`` branches.
    """

    __slots__ = ()

    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass


#: Shared no-op span; identity-comparable in tests (zero-allocation contract).
NULL_SPAN = _NullSpan()


class Span:
    """One timed section of work, nested under a parent span.

    Spans are created by :meth:`Tracer.span` and used as context managers; the
    interval is measured between ``__enter__`` and ``__exit__``.  ``set()``
    attaches attributes (rendered into the Chrome trace's ``args``), and
    ``event()`` records a named instant within the span.
    """

    __slots__ = (
        "tracer",
        "name",
        "category",
        "attrs",
        "span_id",
        "parent_id",
        "thread_id",
        "start_us",
        "duration_us",
        "events",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id = parent_id
        self.thread_id = 0
        self.start_us = 0
        self.duration_us = 0
        self.events: List[Tuple[str, int, Dict[str, Any]]] = []

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.thread_id = threading.get_ident()
        self.start_us = _now_us()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.duration_us = _now_us() - self.start_us
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._record(self)
        return False

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.events.append((name, _now_us(), attrs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class Tracer:
    """Collects spans for one session; thread-safe; no-op when disabled.

    The per-thread span stack makes nesting automatic: a span opened while
    another is active on the same thread becomes its child.  Work handed to a
    pool thread passes its parent explicitly (``tracer.span(..., parent=s)``),
    which both preserves the logical tree and puts the task's interval on the
    worker thread's timeline in the Chrome trace.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._ids = itertools.count(1)
        self._finished: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def span(self, name: str, category: str = "query", parent: Optional[Span] = None, **attrs: Any):
        """Open a span (use as a context manager); no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        parent_id = parent.span_id if isinstance(parent, Span) else None
        return Span(self, name, category, parent_id, attrs)

    def current(self):
        """The innermost active span on this thread (:data:`NULL_SPAN` if none)."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        return stack[-1] if stack else NULL_SPAN

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # ------------------------------------------------------------------ #
    def finished_spans(self) -> List[Span]:
        """All completed spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished = []

    def children_of(self, span: Optional[Span]) -> List[Span]:
        """Completed spans whose parent is ``span`` (``None`` for roots)."""
        parent_id = span.span_id if span is not None else None
        return [s for s in self.finished_spans() if s.parent_id == parent_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.finished_spans() if s.name == name]

    def summary(self) -> Dict[str, Any]:
        """Aggregate view of the recorded spans (for benchmark JSON output)."""
        spans = self.finished_spans()
        by_category: Dict[str, int] = {}
        events = 0
        for span in spans:
            by_category[span.category] = by_category.get(span.category, 0) + 1
            events += len(span.events)
        return {"spans": len(spans), "events": events, "spans_by_category": by_category}

    # ------------------------------------------------------------------ #
    # Chrome trace-event export
    # ------------------------------------------------------------------ #
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Render finished spans as a Chrome trace-event JSON object.

        Load the written file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Spans are complete events (``"ph": "X"``) keyed
        to the thread they ran on; span events are thread-scoped instants.
        """
        pid = os.getpid()
        trace_events: List[Dict[str, Any]] = []
        for span in self.finished_spans():
            args = {str(k): _json_safe(v) for k, v in span.attrs.items()}
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_span_id"] = span.parent_id
            trace_events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.duration_us,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
            for event_name, ts, attrs in span.events:
                trace_events.append(
                    {
                        "name": event_name,
                        "cat": span.category,
                        "ph": "i",
                        "ts": ts,
                        "pid": pid,
                        "tid": span.thread_id,
                        "s": "t",
                        "args": {str(k): _json_safe(v) for k, v in attrs.items()},
                    }
                )
        trace_events.sort(key=lambda event: event["ts"])
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path`` and return the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")
        return path


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Shared disabled tracer: the default for components constructed without one,
#: so instrumentation sites never need a None check.
NULL_TRACER = Tracer(enabled=False)
