"""The S2RDF session — the library's main public API.

A session owns the data layout (VP + ExtVP over a graph), compiles SPARQL
queries to SQL plans and executes them on the relational engine; a result
carries the query's execution metrics and its wall-clock time.

.. code-block:: python

    session = S2RDFSession.from_graph(graph, selectivity_threshold=0.25)
    result = session.query("SELECT * WHERE { ?x wsdbm:follows ?y . ?y wsdbm:likes ?z }")
    print(result.sql)
    print(result.metrics.input_tuples, result.wall_clock_ms)

A session built from a graph lays it out once as the columnar store's image
— the append of its triples to an empty store — and serves that from
memory; :meth:`S2RDFSession.save_dataset` writes the image to a directory,
and :meth:`S2RDFSession.open_dataset` reopens it cold, restoring the whole
layout from the columnar dataset store without re-parsing the RDF source or
recomputing a single ExtVP semi-join.  A
persisted dataset grows in place: :meth:`S2RDFSession.append_triples` writes
new triples as delta segments (no existing segment is rewritten) and
:meth:`S2RDFSession.compact` folds accumulated deltas back into full base
segments.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.core.compiler import CompiledQuery, QueryCompiler
from repro.core.config import (
    ExecutionConfig,
    ObservabilityConfig,
    ServingConfig,
    SessionConfig,
    StoreConfig,
)
from repro.core.results import QueryResult
from repro.core.table_selection import TableSelector
from repro.core.template_cache import TemplateCache
from repro.engine.catalog import Catalog
from repro.engine.metrics import ExecutionMetrics
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.engine.estimates import UNKNOWN_ROWS
from repro.engine.vectorized import ColumnBatch
from repro.mappings.naming import TRIPLES_TABLE
from repro.obs.explain import ExplainAnalyzeResult, render_explain_analyze
from repro.obs.journal import (
    JournalRecord,
    QueryJournal,
    fingerprint_text,
    open_dataset_journal,
    q_error,
    template_text,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.terms import Term
from repro.rdf.triple import Triple
from repro.sparql.algebra import Query
from repro.store.format import DatasetImage, StoredTermDictionary, TermMemo, decode_term_line
from repro.store.reader import (
    DatasetLoadReport,
    StoredDataset,
    open_dataset as _open_stored_dataset,
    refresh_dataset as _refresh_stored_dataset,
    register_changes as _register_store_changes,
    register_dataset as _register_stored_dataset,
)
from repro.store.view import StoreView
from repro.store.writer import (
    CompactionReport,
    DatasetAppender,
    DatasetAppendReport,
    DatasetCompactor,
    DatasetWriteReport,
    DatasetWriter,
)


__all__ = [
    "S2RDFSession",
    "SessionConfig",
    "ExecutionConfig",
    "StoreConfig",
    "ObservabilityConfig",
    "ServingConfig",
]

class _ReadWriteLock:
    """Many concurrent readers (queries) xor one writer (store mutation).

    Queries hold the read side for their whole parse→execute→journal
    pipeline, so each one sees exactly one manifest snapshot and its journal
    record's epoch is the epoch it actually read.  ``append_triples``,
    ``compact`` and ``save_dataset`` take the write side, which also makes
    their catalog and plan-cache invalidation safe while queries run on other
    threads.

    The thread holding the write side may re-enter both sides (a mutation
    that runs a query mid-commit must not deadlock against itself); plain
    readers are not reentrant against a *waiting* writer.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: Optional[int] = None
        self._writer_depth = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        if self._writer == threading.get_ident():
            # The write holder reading its own in-progress state.
            yield
            return
        with self._cond:
            while self._writer is not None:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            try:
                yield
            finally:
                self._writer_depth -= 1
            return
        with self._cond:
            while self._writer is not None or self._readers:
                self._cond.wait()
            self._writer = me
        try:
            yield
        finally:
            with self._cond:
                self._writer = None
                self._cond.notify_all()


#: The registry counter a template-cache / plan-cache hit (``True``) or miss counts in.
_TEMPLATE_CACHE_COUNTERS = {
    True: "s2rdf_template_cache_hits_total",
    False: "s2rdf_template_cache_misses_total",
}
_PLAN_CACHE_COUNTERS = {True: "s2rdf_plan_cache_hits_total", False: "s2rdf_plan_cache_misses_total"}
#: Help texts of the instruments a finished query may create.
_QUERY_METRICS_HELP = {
    "s2rdf_queries_total": "Queries executed by this session",
    "s2rdf_segment_prune_ratio": "Fraction of store segments skipped by pruning, per query",
}


class QueryRecord(NamedTuple):
    """One query, evaluated up to its root: everything its result, the
    registry's counts and its journal line are made of.

    :meth:`S2RDFSession._evaluate` makes it and :meth:`S2RDFSession._finish`
    turns it into all three, whichever process evaluated it: a process
    worker sends it through its pipe in wire form (:meth:`to_wire`).
    """

    #: The root: an id :class:`ColumnBatch` or rows.  A worker sends an id
    #: batch as ``(columns, id columns, {id: dictionary line})``, the lines
    #: being those of the ids its caller's dictionary may not hold yet.
    root: Union[ColumnBatch, Relation, Tuple]
    metrics: ExecutionMetrics
    phase_ms: Dict[str, float]
    #: Milliseconds from the start of the parse to the root.
    wall_ms: float
    statically_empty: bool
    selected_tables: List[str]
    #: The estimate of the root's rows (for the q-error).
    estimated_rows: int
    #: Renders the plan's SQL text with the query's constants in it (for a
    #: text, its template plan's skeleton filled with them); the text itself
    #: once it crossed a pipe.
    sql: Union[Callable[[], str], str]
    #: The manifest epoch the query read.
    epoch: Optional[int]
    template: str
    fingerprint: str
    #: Whether the template cache answered the parse / the compile
    #: (``None``: a ``Query`` object was handed in, nothing to look up).
    parse_hit: Optional[bool]
    compile_hit: Optional[bool]
    #: Milliseconds each join of the plan took, in the order they ran.
    join_ms: List[float]

    def to_wire(self, dictionary: StoredTermDictionary, known_terms: int) -> "QueryRecord":
        """This record as a process worker sends it: the root's id columns
        with the dictionary lines of those ids at or beyond ``known_terms``
        (the caller's dictionary length), or rows; the SQL rendered."""
        root = self.root
        if isinstance(root, ColumnBatch) and root.columns:
            ids = root.gather().ids
            root = (root.columns, ids, _unknown_lines(dictionary, ids, known_terms))
        elif isinstance(root, ColumnBatch):  # a batch without columns: a row count
            root = root.to_relation()
        return self._replace(root=root, sql=self.sql())


def _unknown_lines(
    dictionary: StoredTermDictionary, ids: Tuple[List[int], ...], known: int
) -> Dict[int, str]:
    """The dictionary lines of the ids in ``ids`` at or beyond ``known``."""
    if not any(column and max(column) >= known for column in ids):
        return {}
    return {
        term_id: dictionary.line(term_id)
        for column in ids
        for term_id in column
        if term_id >= known
    }


class S2RDFSession:
    """SPARQL query processing over an ExtVP (or VP) layout."""

    def __init__(
        self,
        layout: StoreView,
        config: Optional[SessionConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.layout = layout
        # Config invariants (num_partitions >= 1, ...) are enforced by
        # the config dataclasses' own __post_init__ at construction time.
        self.config = config or SessionConfig()
        #: Query-lifecycle tracer; the shared no-op tracer unless tracing is
        #: enabled (or a caller injects one, e.g. ``open_dataset`` so the cold
        #: open itself is on the timeline).
        if tracer is not None:
            self.tracer = tracer
        elif self.config.observability.tracing_enabled:
            self.tracer = Tracer(enabled=True)
        else:
            self.tracer = NULL_TRACER
        #: Session-level counters and histograms, aggregated across queries,
        #: appends, compactions and cold opens.
        self.metrics = MetricsRegistry()
        self.selector = TableSelector(layout, use_extvp=self.config.store.use_extvp)
        self.compiler = QueryCompiler(
            self.selector,
            optimize_join_order=self.config.execution.optimize_join_order,
            tracer=self.tracer,
        )
        #: Parse and compile once per query template; see
        #: :mod:`repro.core.template_cache`.
        self._templates = TemplateCache()
        #: Executors are *per thread* (instance state like the last plan's
        #: estimates is not shareable between concurrent queries) over the one
        #: shared catalog.
        self._thread_runtime = threading.local()
        self._runtime_lock = threading.Lock()
        #: Store mutations (write side) vs queries (read side); see
        #: :class:`_ReadWriteLock`.
        self._store_lock = _ReadWriteLock()
        #: Persistent process worker pool, created lazily by
        #: :meth:`_process_pool` once ``execution_mode="process"`` meets a
        #: persisted dataset.
        self._worker_pool = None
        #: Per-query workload journal (``None`` when journaling is disabled).
        #: Ephemeral sessions journal in memory; ``save_dataset`` /
        #: ``open_dataset`` switch to the dataset's persistent ``journal/``.
        self.journal: Optional[QueryJournal] = (
            QueryJournal() if self.config.observability.journal_enabled else None
        )
        #: Manifest append epoch stamped into journal records: ``None`` until
        #: the session touches a stored dataset, then updated only *after*
        #: each mutation's manifest commit (see :meth:`_refresh_from_store`).
        self._journal_epoch: Optional[int] = None
        #: Set by :meth:`open_dataset`: instrumentation of the cold open.
        self.load_report: Optional[DatasetLoadReport] = None
        #: Seconds the build (:meth:`from_graph`) or the cold open
        #: (:meth:`open_dataset`) took; appends and compactions leave it.
        self.load_seconds = 0.0
        #: Directory this session is persisted to; set by :meth:`save_dataset`
        #: and :meth:`open_dataset`, required by :meth:`append_triples` and
        #: :meth:`compact`.
        self.dataset_path: Optional[str] = None
        #: The store state the catalog serves (manifest, term dictionary with
        #: its reverse index, value sets, table handles), which appends and
        #: compactions work on in place: a directory's, or — for a store
        #: that was just built — its image held in memory until
        #: ``save_dataset`` commits it.  See :meth:`_resident_dataset` for
        #: when it is trusted.
        self._dataset: Optional[StoredDataset] = None

    # ------------------------------------------------------------------ #
    # Per-thread runtime
    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> PlanExecutor:
        """This thread's native executor (created on first use per thread)."""
        runtime = getattr(self._thread_runtime, "executor", None)
        if runtime is None:
            runtime = PlanExecutor(self.layout.catalog, tracer=self.tracer)
            self._thread_runtime.executor = runtime
        return runtime

    def _process_pool(self):
        """The worker pool :meth:`serve` ships queries to, or ``None`` outside process mode.

        Process mode needs a persisted dataset (workers re-open it read-only);
        an ephemeral session configured with ``execution_mode="process"``
        serves on threads until :meth:`save_dataset` runs.
        """
        if self.config.execution.execution_mode != "process" or self.dataset_path is None:
            return None
        with self._runtime_lock:
            if self._worker_pool is None:
                from repro.serve.workers import PartitionWorkerPool

                self._worker_pool = PartitionWorkerPool(
                    self.dataset_path,
                    num_workers=self.config.execution.worker_processes,
                    session_knobs=self._worker_session_knobs(),
                )
            return self._worker_pool

    def _worker_session_knobs(self) -> Dict[str, object]:
        """Knobs a worker process opens its own read-only session with.

        Workers inherit the parent's planning knobs (so their plans match),
        but always run thread mode — process-level parallelism comes from the
        pool itself, never from nesting.
        """
        execution = self.config.execution
        return {
            "num_partitions": execution.num_partitions,
            "optimize_join_order": execution.optimize_join_order,
            "use_extvp": self.config.store.use_extvp,
        }

    def _lay_out(self, triples: Iterable[Triple]) -> DatasetImage:
        """The store image of ``triples`` under the served store's settings, at
        ``num_partitions`` buckets."""
        layout = self.layout
        return DatasetWriter(
            num_buckets=max(self.config.execution.num_partitions, 1),
            selectivity_threshold=layout.selectivity_threshold,
            include_oo=layout.include_oo,
            namespaces=layout.namespaces,
        ).lay_out(triples)

    def _adopt(self, dataset: StoredDataset) -> None:
        """Serve ``dataset``, registered as a cold open registers a directory."""
        _register_stored_dataset(self.layout, dataset)
        self._dataset = dataset

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        config: Optional[SessionConfig] = None,
        **knobs: object,
    ) -> "S2RDFSession":
        """Build the data layout for ``graph`` and return a ready session.

        The graph is laid out once as a store image in memory — the append
        of its triples to an empty store (:meth:`DatasetWriter.lay_out`) —
        and the session serves that image as :meth:`open_dataset` serves a
        directory: queries run on dictionary ids, and :meth:`save_dataset`
        writes the image.  Accepts either a prebuilt
        :class:`SessionConfig` or any flat session knobs
        (``num_partitions=8, use_extvp=False, ...``) — the factory surface is
        flat on purpose (:meth:`SessionConfig.from_flat`).
        """
        if config is not None and knobs:
            raise TypeError("pass either config= or flat knobs, not both")
        if config is None:
            config = SessionConfig.from_flat(**knobs)
        # The session is ready once its image is: its load time counts the
        # lay-out and the registration.
        started_at = time.perf_counter()
        store = config.store
        dataset = StoredDataset.hold(
            DatasetWriter(
                num_buckets=max(config.execution.num_partitions, 1),
                selectivity_threshold=store.selectivity_threshold if store.use_extvp else 0.0,
                include_oo=store.include_oo,
            ).lay_out(graph)
        )
        session = cls(StoreView(Catalog(), dataset.manifest), config=config)
        session._adopt(dataset)
        session.load_seconds = time.perf_counter() - started_at
        return session

    @classmethod
    def from_ntriples(cls, document: Union[str, Iterable[str]], **kwargs) -> "S2RDFSession":
        """Parse an N-Triples document and build a session for it."""
        return cls.from_graph(parse_ntriples(document), **kwargs)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_dataset(self, path: str, overwrite: bool = False) -> DatasetWriteReport:
        """Persist the session's layout to a columnar dataset directory.

        Every VP table (and the triples table) is written as hash-bucketed,
        dictionary + RLE encoded column segments with zone maps, every ExtVP
        table as bitmaps over its VP table's rows; the manifest carries all
        statistics (an ExtVP correlation it does not list is empty), so
        :meth:`open_dataset` restores a fully query-ready session without
        touching the original graph.  The bucket count is the session's
        ``num_partitions``.

        A session built from a graph writes the image it serves; any other
        (a connected one, or one saved before) first lays out anew, as a
        build, the triples its stored ``triples`` table holds — completely,
        before anything is cleared, so ``path`` may be the very directory it
        was opened from.  A build decides ExtVP materialisation, so a
        correlation an append left materialised against the rule is decided
        anew.  Either way the session then serves the dataset at ``path``:
        process workers serving the store before (its term ids and cached
        segments) are stopped, and the next served query starts new ones.
        """
        with self._store_lock.write_locked():
            with self.tracer.span("store.save", category="store", path=path) as span:
                held = self._dataset
                image = held.image if held is not None else None
                if image is None:
                    stored = self.layout.catalog.scan(TRIPLES_TABLE).relation.rows
                    held, image = None, self._lay_out(Triple(*row) for row in stored)
                report = DatasetWriter.commit(image, path, overwrite=overwrite)
                if held is None:
                    held = StoredDataset.hold(image)
                    self._adopt(held)
                held.committed(path)
                span.set(tables=report.table_count, bytes=report.total_bytes)
            self.dataset_path = path
            self._journal_epoch = 0  # A fresh manifest starts at epoch 0.
            with self._runtime_lock:
                pool, self._worker_pool = self._worker_pool, None
            if pool is not None:
                pool.close()
            if self.journal is not None:
                # Migrate to the dataset's persistent journal, carrying over
                # any records this session already collected in memory (their
                # timestamps are preserved; pre-save records keep epoch=None).
                pending = self.journal.records() if not self.journal.persistent else []
                self.journal.close()
                self.journal = open_dataset_journal(path)
                for record in pending:
                    self.journal.append(record)
        self.metrics.inc("s2rdf_store_saves_total", help="Full dataset writes")
        self.metrics.inc(
            "s2rdf_store_bytes_written_total",
            report.total_bytes,
            help="Bytes written to the dataset store (saves + appends + compactions)",
        )
        self.metrics.observe("s2rdf_store_save_ms", report.write_seconds * 1000.0)
        return report

    @classmethod
    def open_dataset(
        cls,
        path: str,
        num_partitions: Optional[int] = None,
        config: Optional[SessionConfig] = None,
        **knobs: object,
    ) -> "S2RDFSession":
        """Cold-start a session from a dataset written by :meth:`save_dataset`.

        No N-Triples parsing and no ExtVP rebuilding happens: statistics come
        from the manifest and table rows stay on disk until a query scans
        them (with projection + equality-predicate pushdown and zone-map
        segment pruning).  ``num_partitions`` defaults to the stored bucket
        count, so a session that writes the dataset anew keeps its bucketing;
        a passed ``config`` is never written to.  With ``tracing_enabled``
        the cold open itself appears on the trace timeline as a
        ``store.open`` span.  Like :meth:`from_graph`, accepts
        either ``config=`` or flat knobs; ``execution_mode="process"`` starts
        the dataset's partition worker pool eagerly, before any query thread
        exists (the fork-safe moment to spawn workers).
        """
        if config is not None and knobs:
            raise TypeError("pass either config= or flat knobs, not both")
        tracing = bool(
            config.observability.tracing_enabled
            if config is not None
            else knobs.get("tracing_enabled", False)
        )
        tracer = Tracer(enabled=True) if tracing else NULL_TRACER
        with tracer.span("store.open", category="store", path=path) as span:
            layout, load_report, dataset = _open_stored_dataset(path, tracer=tracer)
            span.set(
                tables=load_report.table_count,
                dictionary_terms=load_report.dictionary_terms,
            )
        if config is None:
            # The stored layout dictates what was materialised; the bucket
            # count defaults to the stored one.
            knobs["selectivity_threshold"] = layout.selectivity_threshold
            knobs["include_oo"] = layout.include_oo
            knobs["num_partitions"] = (
                num_partitions if num_partitions is not None else load_report.num_buckets
            )
            config = SessionConfig.from_flat(**knobs)
        elif num_partitions is not None:
            # The caller may reuse ``config`` for another session: copy, never write.
            config = SessionConfig(
                execution=dataclasses.replace(config.execution, num_partitions=num_partitions),
                store=config.store,
                observability=config.observability,
                serving=config.serving,
            )
        session = cls(layout, config=config, tracer=tracer)
        session.load_report = load_report
        session.load_seconds = load_report.load_seconds
        session.dataset_path = path
        session._dataset = dataset
        session._journal_epoch = load_report.append_epoch
        if session.journal is not None:
            session.journal = open_dataset_journal(path)
        session.metrics.inc(
            "s2rdf_store_cold_opens_total", help="Dataset cold opens performed"
        )
        session.metrics.observe(
            "s2rdf_store_open_ms",
            load_report.load_seconds * 1000.0,
            help="Cold-open latency",
        )
        if config.execution.execution_mode == "process":
            pool = session._process_pool()
            if pool is not None:
                pool.start()
        return session

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def append_triples(self, triples: Iterable[Triple]) -> DatasetAppendReport:
        """Append new triples to the session's persisted dataset.

        The triples are written as *delta segments* — hash-bucketed,
        RLE-encoded column pages with their own zone maps — without rewriting
        any existing segment or renumbering a single dictionary id.  VP
        tables and the base triples table are extended; every ExtVP
        correlation the batch reaches (only those are evaluated) gets its
        statistics updated and, where its
        rows changed, the bitmaps that select them written anew behind the
        deltas.  The touched tables are re-registered in the session's
        catalog so the very next query sees the merged base + delta data —
        while every other table keeps its decoded rows.  Triples already present in the dataset
        are skipped (the dataset models a triple *set*).

        Requires a session that was persisted: either opened with
        :meth:`open_dataset` or saved with :meth:`save_dataset`.
        """
        with self._store_lock.write_locked():
            with self.tracer.span("store.append", category="store") as span:
                dataset, report = self._mutate_store(
                    lambda dataset: DatasetAppender(dataset).append(triples)
                )
                span.set(
                    triples=report.triples_appended,
                    delta_segments=report.delta_segments,
                    bytes=report.bytes_written,
                )
                self._register_touched(dataset, report.touched_tables)
        self.metrics.inc("s2rdf_store_appends_total", help="Delta appends performed")
        self.metrics.inc("s2rdf_store_bytes_written_total", report.bytes_written)
        self.metrics.observe("s2rdf_store_append_ms", report.append_seconds * 1000.0)
        if report.triples_appended:
            # Write amplification of the append path: bytes written to the
            # store per logical triple appended.
            self.metrics.observe(
                "s2rdf_append_bytes_per_triple",
                report.bytes_written / report.triples_appended,
                help="Append write amplification (bytes written per triple)",
            )
        return report

    def compact(self, compaction_threshold: Optional[int] = None) -> CompactionReport:
        """Merge accumulated delta segments back into full base segments.

        Table files with at least ``compaction_threshold`` delta segments
        (defaulting to the session's ``compaction_threshold`` knob), or with
        bitmaps an append superseded, are rewritten bucket by bucket with
        tightened zone maps; query results are unchanged, but scans touch
        fewer segments afterwards and no dead byte is left.
        """
        threshold = (
            compaction_threshold
            if compaction_threshold is not None
            else self.config.store.compaction_threshold
        )
        with self._store_lock.write_locked():
            with self.tracer.span("store.compact", category="store") as span:
                dataset, report = self._mutate_store(
                    DatasetCompactor(compaction_threshold=threshold).compact
                )
                span.set(
                    tables=report.tables_compacted,
                    delta_rows=report.delta_rows_merged,
                    bytes=report.bytes_written,
                )
                self._register_touched(dataset, report.touched_tables)
        self.metrics.inc("s2rdf_store_compactions_total", help="Compaction runs")
        self.metrics.inc("s2rdf_store_bytes_written_total", report.bytes_written)
        self.metrics.observe("s2rdf_store_compact_ms", report.compact_seconds * 1000.0)
        if report.delta_rows_merged:
            # Write amplification of compaction: bytes rewritten per delta
            # row folded back into a base segment.
            self.metrics.observe(
                "s2rdf_compact_bytes_per_row",
                report.bytes_written / report.delta_rows_merged,
                help="Compaction write amplification (bytes written per merged delta row)",
            )
        return report

    def _require_dataset_path(self) -> str:
        if self.dataset_path is None:
            raise RuntimeError(
                "session has no persisted dataset; call save_dataset() or open_dataset() first"
            )
        return self.dataset_path

    def _resident_dataset(self) -> StoredDataset:
        """The opened store state a mutation may work on in place.

        The resident copy is trusted only while ``MANIFEST.json`` and
        ``MANIFEST.log`` are still the very files (inode, size, mtime) this
        session last read or wrote;
        after anyone else's commit the store is re-read and everything
        re-registered.
        """
        dataset = self._dataset
        if dataset is None or not dataset.is_current():
            dataset = self._refresh_from_store()
        return dataset

    def _mutate_store(self, operation):
        """Run one append/compaction on the resident dataset.

        Returns ``(dataset, report)``; the caller passes what the report says
        was touched to :meth:`_register_touched`.
        """
        self._require_dataset_path()
        dataset = self._resident_dataset()
        try:
            return dataset, operation(dataset)
        except BaseException:
            # The resident state (and the manifest the view reads) may be
            # half-updated while the disk holds a committed state: re-read it.
            self._dataset = None
            self._refresh_from_store()
            raise

    def _register_touched(self, dataset: StoredDataset, tables: List[str]) -> None:
        """Re-register only what a committed mutation touched.

        That may be nothing although something was committed — a compaction
        that only moved bytes — and is nothing for a no-op, which committed
        nothing: the manifest's epoch tells the two apart.
        """
        if tables:
            with self.tracer.span("store.refresh", category="store"):
                _register_store_changes(self.layout, dataset, tables)
        if dataset.manifest.append_epoch != self._journal_epoch:
            self._store_changed(dataset)

    def _refresh_from_store(self) -> StoredDataset:
        """Re-read the store and re-register every table (the full path)."""
        assert self.dataset_path is not None
        with self.tracer.span("store.refresh", category="store"):
            dataset = _refresh_stored_dataset(self.layout, self.dataset_path)
        self._store_changed(dataset)
        return dataset

    def _store_changed(self, dataset: StoredDataset) -> None:
        self._dataset = dataset
        # Plans were chosen from the statistics that just moved; the parsed
        # templates they hang off are statistics-free and stay.
        self._templates.invalidate_plans()
        self.metrics.inc(
            "s2rdf_plan_cache_invalidations_total",
            help="Store changes that dropped the compiled-plan cache",
        )
        # The journal epoch advances only here — after the mutation's manifest
        # commit — so a record written mid-append (before the commit) still
        # carries the pre-append epoch it actually executed against.
        self._journal_epoch = dataset.manifest.append_epoch

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def parse(self, query_text: str) -> Query:
        """``parse_query(query_text)``, the grammar run once per query template."""
        parsed, hit = self._templates.parse(query_text)
        self._count_parse(hit)
        return parsed

    def compile(self, query: Union[str, Query]) -> CompiledQuery:
        """The plan for ``query``, chosen once per query template and store state.

        Only queries :meth:`parse` produced (or texts) go through the template
        cache; any other ``Query`` object is compiled from scratch.
        """
        parsed = self.parse(query) if isinstance(query, str) else query
        compiled, hit = self._templates.compile(parsed, self.compiler, self.layout.catalog)
        if hit is not None:
            self._count_compile(hit)
        return compiled

    def _count_parse(self, hit: bool) -> None:
        self.metrics.inc(_TEMPLATE_CACHE_COUNTERS[hit])

    def _count_compile(self, hit: bool) -> None:
        self.metrics.inc(_PLAN_CACHE_COUNTERS[hit])

    def explain(self, query: Union[str, Query]) -> str:
        """Return the generated SQL for a query without executing it."""
        return self.compile(query).sql()

    def query(self, query: Union[str, Query]) -> QueryResult:
        """Parse, compile and execute a SPARQL query."""
        return self._run(query)[1]

    def serve(self, serving: Optional["ServingConfig"] = None) -> "QueryScheduler":
        """A :class:`~repro.serve.scheduler.QueryScheduler` over this session.

        The scheduler adds submit/await semantics, admission control and
        cross-query sharing; its knobs come from ``config.serving`` unless a
        :class:`~repro.core.config.ServingConfig` is passed explicitly.
        """
        from repro.serve.scheduler import QueryScheduler

        return QueryScheduler(self, serving=serving)

    def explain_analyze(self, query: Union[str, Query]) -> ExplainAnalyzeResult:
        """Execute ``query`` and render its physical plan with observations.

        Each operator is annotated with estimated vs. observed rows (stale
        statistics show up as mis-estimates) and elapsed wall-clock time.
        The returned object carries both the rendered report (``str(...)``)
        and the full :class:`~repro.core.results.QueryResult`.
        """
        record, result = self._run(query, analyze=True)
        executor = self.executor
        estimates = executor.last_estimates
        # Analyzed, the plan is estimated as it runs: the estimates hold it.
        tree = render_explain_analyze(estimates.plan, executor.last_node_stats, estimates)
        phases = ", ".join(f"{name}={ms:.2f} ms" for name, ms in result.phase_ms.items())
        cached = {True: "hit", False: "miss", None: "not cached (Query object given)"}
        lines = [
            "== Physical Plan (analyzed) ==",
            tree,
            "",
            f"Template cache: parse={cached[record.parse_hit]}, "
            f"compile={cached[record.compile_hit]}",
            f"Phases: {phases}",
            f"Wall clock: {result.wall_clock_ms:.2f} ms",
        ]
        return ExplainAnalyzeResult(result=result, text="\n".join(lines))

    def _run(
        self, query: Union[str, Query], analyze: bool = False, queue_ms: Optional[float] = None
    ) -> Tuple[QueryRecord, QueryResult]:
        """The traced query pipeline: bind → plan → execute → render.

        A text is bound to its template and constants, its template's cached
        plan is taken, and the executor runs that plan as it is, with the
        constants as a binding and with the row estimates the template cache
        keeps with it.  A ``Query`` object is compiled through
        :meth:`compile` and runs without a binding.  ``analyze`` has the
        executor estimate the very tree it runs instead and record per-node
        observations (``explain_analyze`` draws both).  ``queue_ms`` is what
        the query waited in a scheduler's admission queue.

        The whole pipeline holds the store lock's *read* side: concurrent
        queries proceed together, but an ``append_triples``/``compact`` on
        another thread waits for in-flight queries and queries wait for it —
        so every query (and its journal record) sees exactly one manifest
        epoch.
        """
        with self._store_lock.read_locked():
            with self.tracer.span("query", category="query") as root:
                record = self._evaluate(query, analyze)
                with self.tracer.span("render", category="query"):
                    result = self._finish(record, queue_ms)
                root.set(rows=len(result))
        return record, result

    def _evaluate(self, query: Union[str, Query], analyze: bool = False) -> QueryRecord:
        """Parse, compile and execute: the pipeline up to the root, as the
        record :meth:`_finish` makes the rest of.

        The caller holds the store lock's read side, or is a worker, which
        nothing mutates under.
        """
        epoch = self._journal_epoch
        phase_ms: Dict[str, float] = {}
        start = phase_start = time.perf_counter()
        with self.tracer.span("parse", category="query"):
            if isinstance(query, str):
                match = self._templates.lookup(query)
                parse_hit = match.hit
            else:
                parse_hit = None
        phase_ms["parse"] = (time.perf_counter() - phase_start) * 1000.0

        phase_start = time.perf_counter()
        with self.tracer.span("compile", category="query"):
            if parse_hit is None:
                compiled, compile_hit = self._templates.compile(
                    query, self.compiler, self.layout.catalog
                )
                binding = None
                sql = compiled.plan.to_sql
            else:
                # The slots' spellings go to ids here, through the plan
                # entry's memo; a slot a hit cannot take is parsed in full.
                match, compiled, skeleton, binding, compile_hit = self._templates.bind(
                    query, match, self.compiler, self.layout.catalog, self._dataset.dictionary
                )
                parse_hit = match.hit
                sql = partial(skeleton.render, binding.terms)
        phase_ms["compile"] = (time.perf_counter() - phase_start) * 1000.0

        executor = self.executor
        metrics = ExecutionMetrics()
        phase_start = time.perf_counter()
        with self.tracer.span("execute", category="query"):
            root = executor.run(
                compiled.plan, metrics, None if analyze else compiled.estimates, binding, analyze
            )
        end = time.perf_counter()
        execute_ms = (end - phase_start) * 1000.0
        # Obtaining the row estimates (taking the cached ones, or the
        # estimator's walk) happens inside the executor's run; split it out
        # so the phase dict matches the span structure.
        plan_ms = min(executor.last_plan_ms, execute_ms)
        phase_ms["plan"] = plan_ms
        phase_ms["execute"] = execute_ms - plan_ms
        if parse_hit is None:
            template, fingerprint = self.template_of(query)
        else:
            template, fingerprint = match.template.template, match.template.fingerprint
        return QueryRecord(
            root=root,
            metrics=metrics,
            phase_ms=phase_ms,
            wall_ms=(end - start) * 1000.0,
            statically_empty=compiled.statically_empty,
            selected_tables=compiled.selected_tables,
            estimated_rows=executor.last_estimates.root_rows,
            sql=sql,
            epoch=epoch,
            template=template,
            fingerprint=fingerprint,
            parse_hit=parse_hit,
            compile_hit=compile_hit,
            join_ms=executor.last_join_ms,
        )

    def _finish(
        self,
        record: QueryRecord,
        queue_ms: Optional[float] = None,
        dispatch_ms: Optional[float] = None,
    ) -> QueryResult:
        """The :class:`QueryResult` of an evaluated query, counted in the
        registry and journaled.

        Every query ends here: a direct one with the record its own
        :meth:`_evaluate` made, a served one with the record a process
        worker sent.  Lowering the root to term rows is timed as its own
        ``lower`` phase and counts into the wall clock.  ``queue_ms``
        and ``dispatch_ms`` are what serving added: the wait in the admission
        queue and the hop to a worker.
        """
        start = time.perf_counter()
        relation = self._lower(record.root)
        lower_ms = (time.perf_counter() - start) * 1000.0
        phase_ms = dict(record.phase_ms)
        phase_ms["lower"] = lower_ms
        metrics = record.metrics
        sql = record.sql
        result = QueryResult(
            relation=relation,
            metrics=metrics,
            wall_clock_ms=record.wall_ms + lower_ms,
            statically_empty=record.statically_empty,
            phase_ms=phase_ms,
            selected_tables=record.selected_tables,
            epoch=record.epoch,
            # Rendered on first read, holding neither the plan's per-BGP
            # compilation details nor a rebuilt plan; a worker sends the text.
            sql_renderer=None if isinstance(sql, str) else sql,
        )
        if isinstance(sql, str):
            result.sql = sql

        counts = [
            ("s2rdf_queries_total", 1),
            ("s2rdf_input_tuples_total", metrics.input_tuples),
            ("s2rdf_output_tuples_total", metrics.output_tuples),
        ]
        if record.parse_hit is not None:
            counts.append((_TEMPLATE_CACHE_COUNTERS[record.parse_hit], 1))
        if record.compile_hit is not None:
            counts.append((_PLAN_CACHE_COUNTERS[record.compile_hit], 1))
        observations = [("s2rdf_query_wall_ms", result.wall_clock_ms)]
        segments = metrics.store_segments_scanned + metrics.store_segments_pruned
        if segments:
            observations.append(
                ("s2rdf_segment_prune_ratio", metrics.store_segments_pruned / segments)
            )
        observations += [("s2rdf_join_critical_path_ms", ms) for ms in record.join_ms]
        self.metrics.update(counts, observations, _QUERY_METRICS_HELP)

        journal = self.journal
        if journal is not None:
            estimated = None if record.estimated_rows == UNKNOWN_ROWS else record.estimated_rows
            rows = len(relation)
            journal.append(
                JournalRecord(
                    fingerprint=record.fingerprint,
                    template=record.template,
                    # The epoch the query actually read (captured at pipeline
                    # start under the read lock), not whatever the store
                    # advanced to by the time this record is written.
                    epoch=record.epoch,
                    queue_ms=queue_ms,
                    dispatch_ms=dispatch_ms,
                    rows=rows,
                    wall_ms=result.wall_clock_ms,
                    phase_ms=dict(phase_ms),
                    scanned_tables=dict(metrics.scanned_tables),
                    estimated_rows=estimated,
                    estimate_q_error=q_error(estimated, rows),
                    segments_scanned=metrics.store_segments_scanned,
                    segments_pruned=metrics.store_segments_pruned,
                    statically_empty=record.statically_empty,
                )
            )
        return result

    def _lower(self, root: Union[ColumnBatch, Relation, Tuple]) -> Relation:
        """The root's rows: an id batch decoded through its own dictionary's
        memo, or one a worker sent through this session's memo and the lines
        sent with it.

        Shipped lines are of ids this session's dictionary does not hold yet:
        they decode into a memo of the reply's own, never into the session's,
        which keeps raising ``KeyError`` for them until its own commit
        covers them.
        """
        if isinstance(root, Relation):
            return root
        if isinstance(root, ColumnBatch):
            return root.to_relation()
        columns, ids, lines = root
        known = self._dataset.dictionary.terms
        terms = known
        if lines:

            def source(term_id: int) -> Term:
                line = lines.get(term_id)
                return known[term_id] if line is None else decode_term_line(line)

            terms = TermMemo(source)
        return ColumnBatch.adopt(columns, ids, terms.__getitem__).to_relation()

    @staticmethod
    def template_of(parsed: Query) -> Tuple[str, str]:
        """The journal's ``(template, fingerprint)`` of a parsed query.

        Rendered once per template for the queries :meth:`parse` produced,
        per call for any other ``Query`` object.
        """
        binding = parsed.template_binding
        if binding is not None and binding.describes(parsed):
            return binding.template.template, binding.template.fingerprint
        template = template_text(parsed)
        return template, fingerprint_text(template)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release every runtime resource this session acquired.

        Closes the process worker pool (when process mode started one) and
        the journal's file handle.  Idempotent; the context-manager form calls
        it on exit.
        """
        with self._runtime_lock:
            pool = self._worker_pool
            self._worker_pool = None
        if pool is not None:
            pool.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "S2RDFSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def storage_summary(self) -> dict:
        """Tuple and table counts of the layout (Table 2 data), from the
        manifest: no table is read."""
        layout = self.layout
        with self._store_lock.read_locked():
            summary = layout.size_summary()
            summary["table_counts"] = layout.table_counts()
        summary["load_seconds"] = self.load_seconds
        return summary
