"""Process-based query workers.

The thread-pool runtime keeps every query under the GIL; this module provides
the process-parallel alternative for serving: a persistent
:class:`PartitionWorkerPool` (a thin policy layer over
``concurrent.futures.ProcessPoolExecutor``) whose workers execute two task
kinds:

* **query tasks** — parse/compile/execute one whole SPARQL query on the
  worker's own read-only session (inter-query parallelism: this is what
  scales QPS with concurrent clients).
* **scan tasks** — read one table's id columns inside the worker, warming its
  segment caches.  The scheduler uses these to pre-warm broadcast-sized
  tables across the pool.

Each worker process opens the stored dataset **read-only, once**, and keeps
its decoded segment caches keyed by the manifest's append epoch: a task
carrying a newer epoch than the worker's session makes the worker re-read the
manifest (the store's atomic-rename commit point makes that safe against a
concurrent append in the parent).  Workers never write — appends and
compactions stay in the owning session's process.

Everything that crosses the process boundary is a plain picklable structure:
the query text one way, a decoded :class:`~repro.core.results.QueryResult`
the other.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Optional, Sequence, Tuple

import multiprocessing
import time

from repro.engine.relation import Relation

#: Default worker count: enough to matter, small enough for CI machines.
DEFAULT_WORKER_PROCESSES = max(1, min(8, (os.cpu_count() or 2)))

#: Preferred multiprocessing start methods, best first.  ``fork`` gives
#: near-free worker startup on Linux (the dataset the parent already opened
#: is inherited copy-on-write); ``spawn`` is the portable fallback.
_START_METHODS = ("fork", "spawn")


def _mp_context():
    available = multiprocessing.get_all_start_methods()
    for method in _START_METHODS:
        if method in available:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def pack_input(relation: Relation) -> Tuple[str, Any]:
    """The plain picklable form of a relation.

    No task ships one (workers return whole results); the repo benchmark's
    ``serve.result_pickle_bytes_per_query`` probe
    (``benchmarks/suite/layers.py``) sizes query results with it.
    """
    return ("relation", (relation.columns, relation.rows))


# --------------------------------------------------------------------- #
# Worker-side state and task entry points (must stay module-level picklable)
# --------------------------------------------------------------------- #
_WORKER_DATASET_PATH: Optional[str] = None
_WORKER_SESSION_KNOBS: Dict[str, Any] = {}
_WORKER_SESSION = None


def _worker_init(dataset_path: str, session_knobs: Dict[str, Any]) -> None:
    global _WORKER_DATASET_PATH, _WORKER_SESSION_KNOBS, _WORKER_SESSION
    _WORKER_DATASET_PATH = dataset_path
    _WORKER_SESSION_KNOBS = dict(session_knobs)
    _WORKER_SESSION = None  # opened lazily by the first task


def _worker_session(epoch: Optional[int] = None):
    """The worker's read-only session, opened once and refreshed by epoch.

    The session caches decoded segments inside its stored-table providers;
    re-reading the manifest on an epoch change drops exactly the caches the
    mutation invalidated (re-registration per table), so the cache key is in
    effect ``(table, segment, epoch)``.
    """
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        from repro.core.session import S2RDFSession

        _WORKER_SESSION = S2RDFSession.open_dataset(
            _WORKER_DATASET_PATH,
            # Workers are single-query serial executors: process-level
            # parallelism comes from running many workers, not from nested
            # pools.  Journaling/tracing happen in the owning session.
            journal_enabled=False,
            tracing_enabled=False,
            **_WORKER_SESSION_KNOBS,
        )
    if epoch is not None and _WORKER_SESSION._journal_epoch != epoch:
        # The parent committed a mutation this worker has not seen (or the
        # task was scheduled against an older snapshot than the disk now
        # holds — refresh reads whatever manifest is committed, which is
        # always a consistent snapshot thanks to the atomic rename).
        _WORKER_SESSION._refresh_from_store()
    return _WORKER_SESSION


def _run_scan_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Scan (and thereby cache) one stored table inside the worker.

    Warms what queries read — the decoded id columns — and decodes no term;
    only the scan counters travel back.
    """
    session = _worker_session(task.get("epoch"))
    scan = session.layout.catalog.scan_batch(task["table"])
    return {
        "rows_scanned": scan.rows_scanned,
        "segments_scanned": scan.segments_scanned,
        "segments_pruned": scan.segments_pruned,
        "epoch": session._journal_epoch,
    }


def _run_query_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one whole SPARQL query on the worker's read-only session."""
    session = _worker_session(task.get("epoch"))
    observed = task.get("observed") or {}
    if observed and session._journal_epoch == task.get("epoch"):
        # Cross-query cardinality sharing: observations the parent scheduler
        # collected (from any worker or the parent itself) seed this worker's
        # planner, keyed on the epoch they were observed at.
        for name, rows in observed.items():
            session.layout.catalog.record_observed(name, rows)
    from repro.obs.journal import fingerprint_text, template_text

    # One parse serves both the execution and the template/fingerprint; its
    # time goes back into the result so the journal's phase split stays true.
    start = time.perf_counter()
    parsed = session.parse(task["query"])
    parse_ms = (time.perf_counter() - start) * 1000.0
    result = session.query(parsed)
    result.phase_ms["parse"] += parse_ms
    result.wall_clock_ms += parse_ms
    template = template_text(parsed)
    return {
        "result": result,
        "template": template,
        "fingerprint": fingerprint_text(template),
        "epoch": session._journal_epoch,
        "observed": dict(session.layout.catalog._observed),
        "pid": os.getpid(),
    }


# --------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------- #
class PartitionWorkerPool:
    """A persistent pool of worker processes over one stored dataset.

    Submission is thread-safe and workers are stateless between tasks apart
    from their epoch-keyed caches.
    """

    def __init__(
        self,
        dataset_path: str,
        num_workers: Optional[int] = None,
        session_knobs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.dataset_path = dataset_path
        self.num_workers = num_workers or DEFAULT_WORKER_PROCESSES
        self.session_knobs = dict(session_knobs or {})
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.num_workers,
                mp_context=_mp_context(),
                initializer=_worker_init,
                initargs=(self.dataset_path, self.session_knobs),
            )
        return self._executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    def start(self) -> None:
        """Spawn every worker now instead of on first task.

        With the ``fork`` start method, worker processes should be created
        before the session's query threads exist — forking a multi-threaded
        parent risks inheriting held locks.  ``ProcessPoolExecutor`` forks one
        process per submission until ``max_workers`` exist, so submitting that
        many no-op tasks forces the whole pool up front.
        """
        pool = self._pool()
        for future in [pool.submit(os.getpid) for _ in range(self.num_workers)]:
            future.result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "PartitionWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Task APIs
    # ------------------------------------------------------------------ #
    def warm_tables(self, tables: Sequence[str], epoch: Optional[int] = None) -> int:
        """Best-effort cache warming: ask the pool to decode ``tables``.

        One scan task per (table, worker-slot) is submitted, so idle workers
        populate their segment caches for the tables the scheduler expects to
        be broadcast.  Returns the number of scan tasks that completed
        (workers that were busy may be warmed by fewer tasks — this is an
        optimisation, never a correctness hook).
        """
        futures = []
        for _ in range(self.num_workers):
            for table in tables:
                futures.append(
                    self._pool().submit(_run_scan_task, {"table": table, "epoch": epoch})
                )
        done = 0
        for future in futures:
            future.result()
            done += 1
        return done

    def run_query(
        self,
        query_text: str,
        epoch: Optional[int] = None,
        observed: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        """Execute one whole query on a worker; returns the full QueryResult
        plus sharing metadata (template/fingerprint/epoch/observed rows)."""
        return self._pool().submit(
            _run_query_task,
            {"query": query_text, "epoch": epoch, "observed": dict(observed or {})},
        ).result()
