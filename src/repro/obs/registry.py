"""Session-level metrics: named counters and bounded histograms.

The per-query :class:`~repro.engine.metrics.ExecutionMetrics` object answers
"what did this query cost"; the :class:`MetricsRegistry` answers "what has
this session been doing" — it aggregates across queries, appends, compactions
and cold opens, snapshots to a JSON-serialisable dict and renders
Prometheus-style text exposition so an external scraper (or a benchmark
harness) can consume it without bespoke parsing.

Histograms are *bounded*: a fixed set of bucket boundaries, one integer per
bucket plus sum/count/min/max, so memory use is constant no matter how many
observations a long-lived serving session records.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: Default bucket upper bounds, tuned for millisecond-scale latencies but
#: serviceable for ratios (the sub-1 buckets) and byte counts (the tail).
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """A fixed-bucket histogram: constant memory, cumulative-bucket export."""

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS, help: str = ""
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        # One count per bound plus the overflow (+Inf) bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        cumulative = 0
        buckets: Dict[str, int] = {}
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            buckets[f"{bound:g}"] = cumulative
        buckets["+Inf"] = self.count
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters + histograms with JSON and Prometheus-text export.

    ``inc``/``observe`` lazily create their instrument, so call sites stay
    one-liners; creation and update are one critical section under the lock,
    because concurrent queries record from scheduler threads.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            return self._counter(name, help)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS, help: str = ""
    ) -> Histogram:
        with self._lock:
            return self._histogram(name, bounds, help)

    def inc(self, name: str, amount: float = 1, help: str = "") -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counter(name, help)
            counter.inc(amount)

    def observe(
        self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS, help: str = ""
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histogram(name, bounds, help)
            histogram.observe(value)

    def update(
        self,
        counts: Sequence[Tuple[str, float]] = (),
        observations: Sequence[Tuple[str, float]] = (),
        help: Mapping[str, str] = {},
    ) -> None:
        """``inc(name, amount)`` for every pair of ``counts`` and
        ``observe(name, value)`` for every pair of ``observations``, under one
        acquisition of the lock (default buckets).  ``help`` holds the help
        text of the instruments this may create."""
        with self._lock:
            counters = self._counters
            for name, amount in counts:
                counter = counters.get(name)
                if counter is None:
                    counter = self._counter(name, help.get(name, ""))
                counter.inc(amount)
            histograms = self._histograms
            for name, value in observations:
                histogram = histograms.get(name)
                if histogram is None:
                    histogram = self._histogram(name, DEFAULT_BUCKET_BOUNDS, help.get(name, ""))
                histogram.observe(value)

    # Creation; the caller holds the lock.
    def _counter(self, name: str, help: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already registered as a histogram")
            instrument = self._counters[name] = Counter(name, help)
        return instrument

    def _histogram(self, name: str, bounds: Sequence[float], help: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            if name in self._counters:
                raise ValueError(f"{name!r} is already registered as a counter")
            instrument = self._histograms[name] = Histogram(name, bounds, help)
        return instrument

    def counter_value(self, name: str) -> float:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serialisable dump of every instrument."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (counters and histograms)."""
        lines = []
        with self._lock:
            for name, counter in sorted(self._counters.items()):
                if counter.help:
                    lines.append(f"# HELP {name} {counter.help}")
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_format_value(counter.value)}")
            for name, histogram in sorted(self._histograms.items()):
                if histogram.help:
                    lines.append(f"# HELP {name} {histogram.help}")
                lines.append(f"# TYPE {name} histogram")
                cumulative = 0
                for bound, bucket_count in zip(histogram.bounds, histogram.bucket_counts):
                    cumulative += bucket_count
                    lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
                lines.append(f"{name}_sum {_format_value(histogram.sum)}")
                lines.append(f"{name}_count {histogram.count}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
