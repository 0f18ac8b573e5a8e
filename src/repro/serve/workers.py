"""Process-based query workers.

Queries served on threads share the GIL; this module is the process-parallel
alternative for serving: a persistent
:class:`PartitionWorkerPool` of ``multiprocessing`` children, one duplex pipe
each.  A caller checks an idle slot out, writes one pickled ``(kind, task)``
and blocks in ``recv_bytes()`` (GIL released) for the pickled ``(ok, payload)``
— the hop costs a pipe round trip; no helper thread, queue or future sits in
between.  Two task kinds:

* **query** — parse/compile/execute one whole SPARQL query on the worker's own
  read-only session (inter-query parallelism: what scales QPS with clients).
  The text, an epoch and the length of the caller's term dictionary go one
  way; the query's :class:`~repro.core.session.QueryRecord` comes back, the
  one a direct query makes, with its root in wire form — the *id* columns
  plus the dictionary line of any id at or beyond that length (normally
  none), or rows — and its SQL text filled into the plan's cached skeleton.
  The worker's pid and its task time travel beside it.  The caller finishes
  the query as it finishes a direct one
  (:meth:`~repro.core.session.S2RDFSession._finish`): it lowers the ids
  through its own dictionary, builds the
  :class:`~repro.core.results.QueryResult`, counts it and journals it.  No
  term is pickled either way, no plan is rebuilt to render its SQL, and the
  worker's own registry counts nothing.
* **scan** — read tables' id columns inside the worker, warming its segment
  caches (the scheduler pre-warms broadcast-sized tables with these).

Each worker opens the stored dataset **read-only, once**, and keeps its
decoded segment caches keyed by the manifest's append epoch: a task carrying
another epoch makes it re-read the manifest (the store's atomic-rename commit
makes that safe against a concurrent append in the parent).  Workers never
write.

Failures: an exception a task raises is pickled back and re-raised in the
caller as itself.  A worker that *dies* fails the request it held with
:class:`WorkerDiedError` and its slot is respawned — one death costs one
request, not the pool.  ``close()`` stops idle workers, terminates busy ones
(their callers get :class:`WorkerDiedError`) and joins every child.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.relation import Relation

if TYPE_CHECKING:
    from repro.core.session import QueryRecord

#: Default worker count: enough to matter, small enough for CI machines.
DEFAULT_WORKER_PROCESSES = max(1, min(8, (os.cpu_count() or 2)))

#: Preferred multiprocessing start methods, best first.  ``fork`` gives
#: near-free worker startup on Linux (the dataset the parent already opened
#: is inherited copy-on-write); ``spawn`` is the portable fallback.
_START_METHODS = ("fork", "spawn")

#: Seconds a stopped or terminated worker gets to exit before it is killed.
_JOIN_TIMEOUT_S = 5.0


def _mp_context():
    available = multiprocessing.get_all_start_methods()
    method = next((name for name in _START_METHODS if name in available), None)
    return multiprocessing.get_context(method)


class WorkerDiedError(RuntimeError):
    """The worker process holding a request exited before replying."""


def pack_input(relation: Relation) -> Tuple[str, Any]:
    """The plain picklable form of a relation.

    No task ships one (workers reply in ids); the repo benchmark's
    ``serve.result_pickle_bytes_per_query`` probe
    (``benchmarks/suite/layers.py``) sizes query results with it.
    """
    return ("relation", (relation.columns, relation.rows))


# Worker side: session state, the two tasks and the message loop.
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
        # disk is already past the task's snapshot): whatever manifest is
        # committed is a consistent one, thanks to the atomic rename.
        _WORKER_SESSION._refresh_from_store()
    return _WORKER_SESSION


def _run_scan_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Scan (and thereby cache) stored tables inside the worker.

    Warms what queries read — the decoded id columns — and decodes no term;
    only the scan counters travel back.
    """
    session = _worker_session(task.get("epoch"))
    scans = [session.layout.catalog.scan_batch(table) for table in task["tables"]]
    return {
        "tables": len(scans),
        "rows_scanned": sum(scan.rows_scanned for scan in scans),
        "epoch": session._journal_epoch,
    }


def _run_query_task(task: Dict[str, Any]) -> Tuple["QueryRecord", int, float]:
    """Execute one whole SPARQL query on the worker's read-only session.

    Returns the query's record in wire form, this worker's pid and its task
    time (the round trip the caller saw minus this is what the hop cost).
    """
    begin = time.perf_counter()
    session = _worker_session(task.get("epoch"))
    record = session._evaluate(task["query"]).to_wire(session._dataset.dictionary, task["terms"])
    return record, os.getpid(), (time.perf_counter() - begin) * 1000.0


_TASKS = {"query": _run_query_task, "scan": _run_scan_task}


def _worker_main(conn, inherited, dataset_path: str, session_knobs: Dict[str, Any]) -> None:
    """A worker's life: answer ``(kind, task)`` messages until told to stop.

    ``inherited`` holds the parent-side pipe ends ``fork`` copied into this
    child, its own included.  While a copy stays open the parent's end never
    reads as closed, and a parent that died would leave its workers behind.
    """
    for end in inherited:
        end.close()
    _worker_init(dataset_path, session_knobs)
    while True:
        try:
            kind, task = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return  # the parent is gone
        if kind == "stop":
            return
        try:
            reply = pickle.dumps((True, _TASKS[kind](task)), -1)
        except Exception as exc:  # goes back to the caller, which re-raises it
            try:
                reply = pickle.dumps((False, exc), -1)
            except Exception:  # an exception that does not pickle
                reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")), -1)
        conn.send_bytes(reply)


class _Worker(NamedTuple):
    process: Any  # a ``multiprocessing.Process`` of the pool's context
    conn: Any  # the parent end of the worker's duplex pipe


class PartitionWorkerPool:
    """A persistent pool of worker processes over one stored dataset.

    Task calls are thread-safe and run on the calling thread, which owns the
    slot it checked out until the reply is in.  Workers are stateless between
    tasks apart from their epoch-keyed caches.  ``close()`` is final.
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
        self._context = _mp_context()
        self._lock = threading.Lock()  # start, respawn and close
        self._closed = False
        self._workers: List[_Worker] = []  # by slot
        #: The slots no caller holds — before, while and after the pool runs,
        #: so a thread blocked here always wakes up (and then finds it closed).
        self._idle: queue.SimpleQueue[int] = queue.SimpleQueue()
        for slot in range(self.num_workers):
            self._idle.put(slot)
        #: One ``warm_tables`` at a time: two callers each holding some slots
        #: while waiting for the rest would deadlock.
        self._warming = threading.Lock()

    @property
    def started(self) -> bool:
        return bool(self._workers) and not self._closed

    def start(self) -> None:
        """Spawn every worker now instead of on first task.

        With the ``fork`` start method, worker processes should be created
        before the session's query threads exist — forking a multi-threaded
        parent risks inheriting held locks.  (Only the replacement of a dead
        worker is forked later.)
        """
        with self._lock:
            if self._closed:
                raise WorkerDiedError("the worker pool is closed")
            while len(self._workers) < self.num_workers:
                self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        # Under the lock, so no other spawn's child end is open here at the
        # fork: only the worker holds it, and its death reads as EOF.
        parent_end, child_end = self._context.Pipe()
        inherited = [worker.conn for worker in self._workers] + [parent_end]
        if self._context.get_start_method() != "fork":
            inherited = []
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, inherited, self.dataset_path, self.session_knobs),
            name="s2rdf-worker",
            daemon=True,
        )
        process.start()
        child_end.close()
        return _Worker(process, parent_end)

    def close(self) -> None:
        """Stop every worker and wait for it; a request in flight fails."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle = []
            while len(idle) < self.num_workers:
                try:
                    idle.append(self._idle.get_nowait())
                except queue.Empty:
                    break
            for slot, worker in enumerate(self._workers):
                if slot in idle:
                    self._send(worker, "stop")
                    worker.conn.close()
                else:  # busy: its caller owns the pipe, reads EOF and raises
                    worker.process.terminate()
            for slot in idle:
                self._idle.put(slot)
        for worker in self._workers:
            worker.process.join(_JOIN_TIMEOUT_S)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()

    def __enter__(self) -> "PartitionWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _send(worker: _Worker, kind: str, task: Optional[Dict[str, Any]] = None) -> None:
        try:
            worker.conn.send_bytes(pickle.dumps((kind, task), -1))
        except OSError:
            pass  # a dead worker: the receive (or join) that follows reports it

    def _run(self, slots: int, kind: str, task: Dict[str, Any]) -> Tuple[List[Any], float]:
        """Check ``slots`` workers out, send each ``task``, collect the replies.

        Returns them with the milliseconds from first send to last receive.
        A worker-side exception re-raises here as itself; a dead worker as
        :class:`WorkerDiedError`, its slot respawned unless the pool closed.
        """
        held: List[int] = []
        pending: List[Tuple[int, _Worker]] = []  # sent to, not yet heard from
        try:
            while len(held) < slots:
                held.append(self._idle.get())
            self.start()  # on first use; raises once the pool is closed
            pending = [(slot, self._workers[slot]) for slot in held]
            begin = time.perf_counter()
            for _, worker in pending:
                self._send(worker, kind, task)
            replies = []
            while pending:
                try:
                    replies.append(pickle.loads(pending[0][1].conn.recv_bytes()))
                    del pending[0]
                except (EOFError, OSError):
                    replies.append((False, self._bury(*pending.pop(0), kind)))
            elapsed_ms = (time.perf_counter() - begin) * 1000.0
        finally:
            # Left mid-exchange (an interrupt, a reply that does not unpickle):
            # a pipe with an unread reply in it must not serve the next task.
            for slot, worker in pending:
                self._bury(slot, worker, kind)
            for slot in held:
                self._idle.put(slot)
        for ok, payload in replies:
            if not ok:
                raise payload
        return [payload for _, payload in replies], elapsed_ms

    def _bury(self, slot: int, worker: _Worker, kind: str) -> WorkerDiedError:
        """Reap a worker that cannot be used again; respawn its slot unless closed."""
        worker.conn.close()
        worker.process.kill()  # a no-op on the already dead, whose exit code stays
        worker.process.join()
        with self._lock:
            if not self._closed:
                self._workers[slot] = self._spawn()
        return WorkerDiedError(
            f"worker process {worker.process.pid} died holding a {kind} task "
            f"(exit code {worker.process.exitcode})"
        )

    def warm_tables(self, tables: Sequence[str], epoch: Optional[int] = None) -> int:
        """Cache warming: every worker decodes every table in ``tables`` once.

        All slots are checked out and each worker handed one scan task, so
        they warm side by side and "one scan per worker and table" is exact.
        Returns the number of scans run.  An optimisation, never a
        correctness hook.
        """
        with self._warming:
            task = {"tables": list(tables), "epoch": epoch}
            replies, _ = self._run(self.num_workers, "scan", task)
        return sum(reply["tables"] for reply in replies)

    def query_reply(
        self, query_text: str, epoch: Optional[int], known_terms: int
    ) -> Tuple["QueryRecord", int, float, float]:
        """Execute one whole query on a worker.

        Returns the query's record (see :func:`_run_query_task`), the
        worker's pid, its task time and what the hop cost.  ``known_terms``
        is the length of the caller's term dictionary: the record carries the
        line of every result id at or beyond it.  The hop (``dispatch_ms``)
        is the round trip seen here minus the worker's task time — send,
        wake-up, pickling both ways, receive.  The wait for an idle worker is
        in neither.
        """
        task = {"query": query_text, "epoch": epoch, "terms": known_terms}
        ((record, pid, task_ms),), elapsed_ms = self._run(1, "query", task)
        return record, pid, task_ms, elapsed_ms - task_ms
