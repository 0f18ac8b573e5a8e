"""The async query scheduler: admission control over a live session.

:class:`QueryScheduler` fronts one :class:`~repro.core.session.S2RDFSession`
with submit/await semantics:

* **bounded admission queue** — at most ``admission_queue_limit`` admitted
  queries wait at a time; a full queue either blocks the submitter
  (``admission_policy="queue"``) or raises :class:`AdmissionError`
  (``"reject"``): closed-loop clients get backpressure, not unbounded memory;
* **fair dispatch** — ``max_concurrent_queries`` dispatcher threads pop the
  highest ``priority`` first and FIFO within a priority (a monotonic sequence
  number breaks ties), so urgent queries cannot reorder equals;
* **per-query handles** — :meth:`submit` returns a :class:`QueryHandle` with
  ``.result(timeout)`` / ``.done()`` / ``.exception()``;
* **cross-query sharing** — identical text submitted while the same text is
  in flight *on the same manifest epoch* attaches to the running execution
  (``share_results``), and :meth:`prewarm` reads the id columns of the
  small stored tables once per epoch, so concurrent queries share them warm
  instead of racing to read them.

Thread mode executes queries on the shared session (its per-thread executors
make that safe).  Process mode ships whole queries to the dataset's
:class:`~repro.serve.workers.PartitionWorkerPool`: the dispatcher thread
itself blocks on a worker's pipe.  Only the query text, an epoch and the
length of the session's term dictionary go out; the worker sends back the
query's :class:`~repro.core.session.QueryRecord` with its root in ids.
Either way the session finishes the query in one place
(:meth:`~repro.core.session.S2RDFSession._finish`): it lowers the root
through its own dictionary, builds the
:class:`~repro.core.results.QueryResult`, counts it in the session's
registry and journals it with the queue wait (and the hop) the dispatcher
hands in — one workload journal and one registry, the same counts whichever
mode served.  A worker that dies fails the one request it held
(:class:`~repro.serve.workers.WorkerDiedError` through the handle) and is
respawned; the dispatcher carries on.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ServingConfig
from repro.core.session import S2RDFSession
from repro.core.results import QueryResult
from repro.serve.workers import WorkerDiedError


#: Completed dispatches :meth:`QueryScheduler.stats` keeps for its percentiles.
LATENCY_WINDOW = 4096
#: The most rows of a table :meth:`QueryScheduler.prewarm` reads unasked:
#: two 24-byte values a row within Spark's 10 MiB broadcast threshold.
PREWARM_MAX_ROWS = 10 * 1024 * 1024 // (2 * 24)
#: Help texts of the instruments a scheduled query may create.
_SCHEDULER_METRICS_HELP = {
    "s2rdf_scheduler_admitted_total": "Queries admitted to the queue",
    "s2rdf_scheduler_queue_depth": "Admission queue depth at each admission",
    "s2rdf_scheduler_queue_ms": "Milliseconds queries waited in the admission queue",
    "s2rdf_scheduler_completed_total": "Queries completed by the scheduler",
    "s2rdf_scheduler_failed_total": "Scheduled queries that raised",
}


class AdmissionError(RuntimeError):
    """Raised by :meth:`QueryScheduler.submit` under the ``reject`` policy."""


class QueryHandle:
    """Future-style handle to one submitted query."""

    def __init__(self, query_text: str, priority: int, epoch: Optional[int]) -> None:
        self.query_text = query_text
        self.priority = priority
        #: Manifest epoch of the session when the query was *admitted* (the
        #: executed epoch is on ``result().epoch``).
        self.submitted_epoch = epoch
        #: Milliseconds spent waiting in the admission queue; set when
        #: execution starts (followers inherit their leader's value).
        self.queue_ms: Optional[float] = None
        #: Process mode only: what the hop to the worker cost — the pipe round
        #: trip the dispatcher saw minus the worker's task time (send,
        #: wake-up, pickling both ways, receive).
        self.dispatch_ms: Optional[float] = None
        #: True when this handle attached to an identical in-flight query
        #: instead of executing its own copy.
        self.shared = False
        self._done = threading.Event()
        self._result: Optional[QueryResult] = None
        self._exception: Optional[BaseException] = None
        self._followers: List["QueryHandle"] = []

    def done(self) -> bool:
        """True once the query finished (successfully or not)."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until the query finishes and return its result.

        Raises the query's exception if it failed, or :class:`TimeoutError`
        if ``timeout`` (seconds) elapses first.
        """
        if self.exception(timeout) is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The exception the query raised, or ``None`` (blocks like result)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query did not finish within {timeout} s: {self.query_text[:80]!r}"
            )
        return self._exception

    def _complete(self, result: Optional[QueryResult], error: Optional[BaseException]) -> None:
        self._result = result
        self._exception = error
        self._done.set()
        for follower in self._followers:
            follower.queue_ms = self.queue_ms
            follower.dispatch_ms = self.dispatch_ms
            follower._complete(result, error)
        self._followers = []


class QueryScheduler:
    """Admission-controlled concurrent query execution over one session."""

    def __init__(
        self,
        session: S2RDFSession,
        serving: Optional[ServingConfig] = None,
    ) -> None:
        self.session = session
        self.serving = serving if serving is not None else session.config.serving
        self._lock = threading.Lock()
        self._queue_changed = threading.Condition(self._lock)
        #: Signalled per completed query; only :meth:`drain` waits on it.
        self._completion = threading.Condition(self._lock)
        #: Min-heap of ``(-priority, sequence, handle)``: highest priority
        #: first, FIFO (by admission sequence) within a priority.
        self._heap: List[Tuple[int, int, QueryHandle]] = []
        self._sequence = 0
        #: Leader handle per (query text, epoch) currently admitted or
        #: running — the attach point for result sharing.
        self._inflight: Dict[Tuple[str, Optional[int]], QueryHandle] = {}
        self._dispatchers: List[threading.Thread] = []
        self._closed = False
        self._completed = 0
        self._latencies_ms: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._prewarmed_epoch: Optional[int] = None

    def submit(self, query_text: str, priority: int = 0) -> QueryHandle:
        """Admit one query; returns immediately with its handle.

        ``priority`` orders dispatch (higher first, FIFO within equals).
        When the admission queue is full, the configured policy applies:
        ``"queue"`` blocks this caller until a slot frees, ``"reject"``
        raises :class:`AdmissionError`.
        """
        metrics = self.session.metrics
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            epoch = self.session._journal_epoch
            key = (query_text, epoch)
            leader = self._inflight.get(key) if self.serving.share_results else None
            if leader is not None:
                follower = QueryHandle(query_text, priority, epoch)
                follower.shared = True
                leader._followers.append(follower)
                metrics.inc(
                    "s2rdf_scheduler_shared_results_total",
                    help="Queries that attached to an identical in-flight execution",
                )
                return follower
            while len(self._heap) >= self.serving.admission_queue_limit:
                if self.serving.admission_policy == "reject":
                    metrics.inc(
                        "s2rdf_scheduler_rejected_total",
                        help="Submissions rejected by the full admission queue",
                    )
                    raise AdmissionError(
                        f"admission queue is full "
                        f"({self.serving.admission_queue_limit} queries waiting)"
                    )
                self._queue_changed.wait()
                if self._closed:
                    raise RuntimeError("scheduler is closed")
            handle = QueryHandle(query_text, priority, epoch)
            handle._admitted_at = time.perf_counter()
            self._sequence += 1
            heapq.heappush(self._heap, (-priority, self._sequence, handle))
            self._inflight[key] = handle
            metrics.update(
                [("s2rdf_scheduler_admitted_total", 1)],
                [("s2rdf_scheduler_queue_depth", float(len(self._heap)))],
                _SCHEDULER_METRICS_HELP,
            )
            self._ensure_dispatchers()
            self._queue_changed.notify_all()
            return handle

    def submit_all(self, queries: Sequence[str], priority: int = 0) -> List[QueryHandle]:
        """Admit a batch of queries in order; returns all handles."""
        return [self.submit(query, priority=priority) for query in queries]

    def _ensure_dispatchers(self) -> None:
        # Called with the lock held.  Dispatchers are daemon threads, started
        # lazily so an unused scheduler costs nothing.
        while len(self._dispatchers) < self.serving.max_concurrent_queries:
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"s2rdf-dispatch-{len(self._dispatchers)}",
                daemon=True,
            )
            self._dispatchers.append(thread)
            thread.start()

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._heap and not self._closed:
                    self._queue_changed.wait()
                if self._closed and not self._heap:
                    return
                _, _, handle = heapq.heappop(self._heap)
                self._queue_changed.notify_all()  # a queue slot freed
            handle.queue_ms = (time.perf_counter() - handle._admitted_at) * 1000.0
            self._prewarm_if_stale()  # guarded inside: never raises
            start = time.perf_counter()
            result: Optional[QueryResult] = None
            error: Optional[BaseException] = None
            counts = [("s2rdf_scheduler_completed_total", 1)]
            try:
                result = self._execute(handle)
            except BaseException as exc:  # noqa: BLE001 - delivered via handle
                error = exc
                counts.append(("s2rdf_scheduler_failed_total", 1))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            with self._lock:
                self._inflight.pop((handle.query_text, handle.submitted_epoch), None)
                self._completed += 1
                self._latencies_ms.append(elapsed_ms)
                self._completion.notify_all()
            self.session.metrics.update(
                counts, [("s2rdf_scheduler_queue_ms", handle.queue_ms)], _SCHEDULER_METRICS_HELP
            )
            handle._complete(result, error)

    def _execute(self, handle: QueryHandle) -> QueryResult:
        session = self.session
        pool = session._process_pool()
        if pool is None:
            return session._run(handle.query_text, queue_ms=handle.queue_ms)[1]
        # Process mode.  One snapshot: the dictionary holds every id of the
        # epoch (it only grows), and ids of a newer one come with their lines.
        with session._store_lock.read_locked():
            epoch, known = session._journal_epoch, len(session._dataset.dictionary)
        record, _, _, handle.dispatch_ms = pool.query_reply(handle.query_text, epoch, known)
        with session._store_lock.read_locked():
            if session._worker_pool is not pool:
                # Closed since: by a save, which lays the store out anew
                # under other ids, or by close().
                raise WorkerDiedError("the worker pool that answered was closed")
            return session._finish(record, handle.queue_ms, handle.dispatch_ms)

    def _prewarm_if_stale(self) -> None:
        epoch = self.session._journal_epoch
        with self._lock:
            if self._prewarmed_epoch == epoch:
                return
            self._prewarmed_epoch = epoch
        try:
            self.prewarm(epoch=epoch)
        except Exception:  # best effort: must not fail the query or the thread
            self.session.metrics.inc(
                "s2rdf_scheduler_prewarm_failed_total", help="Prewarm passes that raised"
            )

    def prewarm(
        self, tables: Optional[Sequence[str]] = None, epoch: Optional[int] = None
    ) -> int:
        """Read small stored tables once, ahead of the queries.

        Without an explicit list, every non-empty stored table of at most
        :data:`PREWARM_MAX_ROWS` rows (its manifest row count) qualifies —
        the small sides joins read whole.  What is warmed is what
        queries read: the tables' decoded id columns (no term is decoded).
        Thread mode warms the shared catalog's tables; process mode also has
        every pool worker warm its own.  Best effort: the dispatcher counts a
        pass that raised and serves the query regardless.
        """
        catalog = self.session.layout.catalog
        if tables is None:
            tables = [
                name
                for name, statistics in catalog.stored_statistics().items()
                if 0 < statistics.row_count <= PREWARM_MAX_ROWS
            ]
        for name in tables:
            catalog.scan_batch(name)  # segments read once; later queries hit the cache
        pool = self.session._process_pool()
        if pool is not None and tables:
            pool.warm_tables(tables, epoch=epoch)
        if tables:
            self.session.metrics.inc(
                "s2rdf_scheduler_prewarmed_tables_total",
                len(tables),
                help="Small tables read ahead of scheduled queries",
            )
        return len(tables)

    def stats(self) -> Dict[str, float]:
        """Latency summary of completed dispatches (milliseconds).

        ``completed`` counts every dispatch since the scheduler was built; the
        percentiles and the mean cover the last ``LATENCY_WINDOW`` of them,
        so a long-lived scheduler's memory and this call stay bounded.
        """
        with self._lock:
            completed, latencies = self._completed, list(self._latencies_ms)
        latencies.sort()
        if not latencies:
            return {"completed": 0, "p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}

        def percentile(q: float) -> float:
            index = min(len(latencies) - 1, int(q * (len(latencies) - 1) + 0.5))
            return latencies[index]

        return {
            "completed": completed,
            "p50_ms": percentile(0.50),
            "p99_ms": percentile(0.99),
            "mean_ms": sum(latencies) / len(latencies),
        }

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every admitted query has finished."""
        with self._lock:
            idle = lambda: not self._heap and not self._inflight  # noqa: E731
            if not self._completion.wait_for(idle, timeout):
                raise TimeoutError("scheduler did not drain in time")

    def close(self, drain: bool = True) -> None:
        """Stop accepting queries; optionally wait for admitted ones."""
        if drain:
            self.drain()
        with self._lock:
            self._closed = True
            self._queue_changed.notify_all()
        for thread in self._dispatchers:
            thread.join(timeout=5.0)

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
