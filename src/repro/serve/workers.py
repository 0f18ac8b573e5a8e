"""Process-based partition workers.

The thread-pool runtime keeps every join task under the GIL; this module
provides the process-parallel alternative: a persistent
:class:`PartitionWorkerPool` (a thin policy layer over
``concurrent.futures.ProcessPoolExecutor``) whose workers execute three task
kinds:

* **join tasks** — one co-partitioned pair per task, shipped as serialized
  row relations or id :class:`~repro.engine.vectorized.ColumnBatch` columns
  (8 bytes/value — the PR 9 kernel is what makes cross-process shipping
  cheap).  Used by :class:`~repro.engine.runtime.executor.ParallelExecutor`
  when ``execution_mode="process"`` (intra-query parallelism).
* **scan tasks** — decode one table (projection + equality pushdown) inside
  the worker, warming its segment caches.  The scheduler uses these to
  pre-warm broadcast-sized tables across the pool.
* **query tasks** — parse/compile/execute one whole SPARQL query on the
  worker's own read-only session (inter-query parallelism: this is what
  scales QPS with concurrent clients).

Each worker process opens the stored dataset **read-only, once**, and keeps
its decoded segment caches keyed by the manifest's append epoch: a task
carrying a newer epoch than the worker's session makes the worker re-read the
manifest (the store's atomic-rename commit point makes that safe against a
concurrent append in the parent).  Workers never write — appends and
compactions stay in the owning session's process.

Join tasks are self-contained (they never touch the dataset), so the pool
also works as a pure compute pool; only scan/query tasks require the dataset.

Everything that crosses the process boundary is a plain picklable structure:
``ColumnBatch`` objects are stripped of their (unpicklable, dictionary-bound)
``decode`` callable on the way out and re-attached on the way back in.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import time

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.engine.vectorized import ColumnBatch

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


# --------------------------------------------------------------------- #
# Wire format: pack/unpack relations and id batches
# --------------------------------------------------------------------- #
def _poison_decode(id_: int) -> Any:  # pragma: no cover - guard
    raise RuntimeError(
        "this ColumnBatch crossed a process boundary without a decoder; "
        "join kernels must not decode ids"
    )


def pack_input(value: Any) -> Tuple[str, Any]:
    """Serialize one join input (``Relation`` or ``ColumnBatch``) for the wire."""
    if isinstance(value, ColumnBatch):
        selection = value.selection
        return ("batch", (value.columns, value.ids, selection))
    if isinstance(value, Relation):
        return ("relation", (value.columns, value.rows))
    raise TypeError(f"cannot ship {type(value).__name__} to a partition worker")


def unpack_input(packed: Tuple[str, Any], decode: Optional[Callable[[int], Any]] = None) -> Any:
    """Rebuild a shipped join input; ``decode`` re-attaches the dictionary."""
    kind, payload = packed
    if kind == "batch":
        columns, ids, selection = payload
        return ColumnBatch(
            columns,
            [array("q", column) if not isinstance(column, array) else column for column in ids],
            decode if decode is not None else _poison_decode,
            selection=selection,
        )
    columns, rows = payload
    return Relation(columns, rows)


# --------------------------------------------------------------------- #
# Worker-side state and task entry points (must stay module-level picklable)
# --------------------------------------------------------------------- #
_WORKER_DATASET_PATH: Optional[str] = None
_WORKER_SESSION_KNOBS: Dict[str, Any] = {}
_WORKER_SESSION = None


def _worker_init(dataset_path: Optional[str], session_knobs: Dict[str, Any]) -> None:
    global _WORKER_DATASET_PATH, _WORKER_SESSION_KNOBS, _WORKER_SESSION
    _WORKER_DATASET_PATH = dataset_path
    _WORKER_SESSION_KNOBS = dict(session_knobs)
    _WORKER_SESSION = None  # opened lazily by the first scan/query task


def _worker_session(epoch: Optional[int] = None):
    """The worker's read-only session, opened once and refreshed by epoch.

    The session caches decoded segments inside its stored-table providers;
    re-reading the manifest on an epoch change drops exactly the caches the
    mutation invalidated (re-registration per table), so the cache key is in
    effect ``(table, segment, epoch)``.
    """
    global _WORKER_SESSION
    if _WORKER_DATASET_PATH is None:
        raise RuntimeError("this worker pool was created without a dataset path")
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


def _run_join_task(task: Dict[str, Any]) -> Tuple[Tuple[str, Any], int, float]:
    """Execute one shipped partition join: returns (packed result, comparisons, ms)."""
    left = unpack_input(task["left"])
    right = unpack_input(task["right"])
    scratch = ExecutionMetrics()
    start = time.perf_counter()
    if task["outer"]:
        joined = left.left_outer_join(right, scratch)
    else:
        joined = left.natural_join(right, scratch)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return pack_input(joined), scratch.join_comparisons, elapsed_ms


def _run_scan_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Scan (and thereby cache) one stored table inside the worker.

    A task that returns no rows only warms what queries read — the decoded
    id columns — and decodes no term.
    """
    session = _worker_session(task.get("epoch"))
    return_rows = task.get("return_rows", True)
    catalog = session.layout.catalog
    scan = (catalog.scan if return_rows else catalog.scan_batch)(
        task["table"], columns=task.get("columns"), conditions=task.get("conditions")
    )
    out: Dict[str, Any] = {
        "rows_scanned": scan.rows_scanned,
        "segments_scanned": scan.segments_scanned,
        "segments_pruned": scan.segments_pruned,
        "epoch": session._journal_epoch,
    }
    if return_rows:
        out["relation"] = pack_input(scan.relation)
    return out


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
    """A persistent pool of partition worker processes.

    ``dataset_path`` may be ``None`` for a pure join-task compute pool;
    scan and query tasks then raise.  The pool is safe to share between the
    session's per-thread executors and the scheduler — submission is
    thread-safe and workers are stateless between tasks apart from their
    epoch-keyed caches.
    """

    def __init__(
        self,
        dataset_path: Optional[str] = None,
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
    def run_join_tasks(
        self, tasks: Sequence[Dict[str, Any]], decode: Optional[Callable[[int], Any]] = None
    ) -> List[Tuple[Any, int, float]]:
        """Run shipped join tasks; results come back in task order.

        ``decode`` re-attaches the dataset dictionary to id-batch results
        (join kernels compare raw ids, so workers never need it).
        """
        out = []
        for packed, comparisons, elapsed_ms in self._pool().map(_run_join_task, tasks):
            out.append((unpack_input(packed, decode), comparisons, elapsed_ms))
        return out

    def scan_table(
        self,
        table: str,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Dict[str, Any]] = None,
        epoch: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Scan one stored table in a worker, returning rows + scan counters."""
        result = self._pool().submit(
            _run_scan_task,
            {
                "table": table,
                "columns": list(columns) if columns is not None else None,
                "conditions": dict(conditions) if conditions else None,
                "epoch": epoch,
            },
        ).result()
        if "relation" in result:
            result["relation"] = unpack_input(result["relation"])
        return result

    def warm_tables(self, tables: Sequence[str], epoch: Optional[int] = None) -> int:
        """Best-effort cache warming: ask the pool to decode ``tables``.

        One scan task per (table, worker-slot) is submitted without returning
        rows, so idle workers populate their segment caches for the tables
        the scheduler expects to be broadcast.  Returns the number of scan
        tasks that completed (workers that were busy may be warmed by fewer
        tasks — this is an optimisation, never a correctness hook).
        """
        futures = []
        for _ in range(self.num_workers):
            for table in tables:
                futures.append(
                    self._pool().submit(
                        _run_scan_task,
                        {"table": table, "epoch": epoch, "return_rows": False},
                    )
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

    def submit_query(
        self,
        query_text: str,
        epoch: Optional[int] = None,
        observed: Optional[Dict[str, int]] = None,
    ):
        """Like :meth:`run_query` but returns the future (scheduler hot path)."""
        return self._pool().submit(
            _run_query_task,
            {"query": query_text, "epoch": epoch, "observed": dict(observed or {})},
        )
