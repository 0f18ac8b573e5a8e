"""The S2RDF session — the library's main public API.

A session owns the data layout (VP + ExtVP over a graph), compiles SPARQL
queries to SQL plans, executes them on the relational engine and attaches a
simulated Spark-cluster runtime derived from the execution metrics.

.. code-block:: python

    session = S2RDFSession.from_graph(graph, selectivity_threshold=0.25)
    result = session.query("SELECT * WHERE { ?x wsdbm:follows ?y . ?y wsdbm:likes ?z }")
    print(result.sql)
    print(result.simulated_runtime_ms)

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
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

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
from repro.engine.cluster import SparkCostModel
from repro.engine.metrics import ExecutionMetrics
from repro.engine.plan import PlanExecutor
from repro.engine.storage import ParquetSizeModel
from repro.engine.strategies import UNKNOWN_ROWS
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
from repro.rdf.triple import Triple
from repro.sparql.algebra import Query
from repro.store.format import DatasetImage
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

#: Milliseconds a query waited in the scheduler's admission queue before this
#: thread started executing it.  The scheduler sets this around its call into
#: :meth:`S2RDFSession.query`; :meth:`S2RDFSession._journal_query` reads it so
#: the journal separates queue wait from execution without the session ever
#: knowing about the scheduler.
_QUEUE_WAIT_MS: ContextVar[Optional[float]] = ContextVar("s2rdf_queue_wait_ms", default=None)


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


class _QueryRun(NamedTuple):
    """What one trip through the query pipeline produced."""

    result: QueryResult
    parsed: Query
    compiled: CompiledQuery
    #: Whether the template cache answered the parse / the compile
    #: (``None``: a ``Query`` object was handed in, nothing to look up).
    parse_hit: Optional[bool]
    compile_hit: Optional[bool]


class S2RDFSession:
    """SPARQL query processing over an ExtVP (or VP) layout."""

    def __init__(
        self,
        layout: StoreView,
        config: Optional[SessionConfig] = None,
        cost_model: Optional[SparkCostModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.layout = layout
        # Config invariants (num_partitions >= 1, ...) are enforced by
        # the config dataclasses' own __post_init__ at construction time.
        self.config = config or SessionConfig()
        self.cost_model = cost_model or SparkCostModel()
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
        #: Executors are *per thread* (instance state like the last physical
        #: plan is not shareable between concurrent queries) over the one
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
        #: each mutation's manifest swap (see :meth:`_refresh_from_store`).
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
            runtime = PlanExecutor(
                self.layout.catalog, tracer=self.tracer, metrics_registry=self.metrics
            )
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
            "work_scale": execution.work_scale,
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
        cost_model: Optional[SparkCostModel] = None,
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
        session = cls(StoreView(Catalog(), dataset.manifest), config=config, cost_model=cost_model)
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
        anew.  Either way the session then serves the dataset at ``path``.
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
        cost_model: Optional[SparkCostModel] = None,
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
        session = cls(layout, config=config, cost_model=cost_model, tracer=tracer)
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

        The resident copy is trusted only while ``MANIFEST.json`` is still
        the very file (inode, size, mtime) this session last read or wrote;
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
        # The journal epoch advances only here — after the mutation's atomic
        # manifest swap — so a record written mid-append (before the swap)
        # still carries the pre-append epoch it actually executed against.
        self._journal_epoch = dataset.manifest.append_epoch

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def parse(self, query_text: str) -> Query:
        """``parse_query(query_text)``, the grammar run once per query template."""
        return self._parse(query_text)[0]

    def compile(self, query: Union[str, Query]) -> CompiledQuery:
        """The plan for ``query``, chosen once per query template and store state.

        Only queries :meth:`parse` produced (or texts) go through the template
        cache; any other ``Query`` object is compiled from scratch.
        """
        parsed = self.parse(query) if isinstance(query, str) else query
        return self._compile(parsed)[0]

    def _parse(self, query_text: str) -> Tuple[Query, bool]:
        parsed, hit = self._templates.parse(query_text)
        self.metrics.inc(
            "s2rdf_template_cache_hits_total" if hit else "s2rdf_template_cache_misses_total"
        )
        return parsed, hit

    def _compile(self, parsed: Query) -> Tuple[CompiledQuery, Optional[bool]]:
        compiled, hit = self._templates.compile(parsed, self.compiler, self.layout.catalog)
        if hit is not None:
            self.metrics.inc(
                "s2rdf_plan_cache_hits_total" if hit else "s2rdf_plan_cache_misses_total"
            )
        return compiled, hit

    def explain(self, query: Union[str, Query]) -> str:
        """Return the generated SQL for a query without executing it."""
        return self.compile(query).sql()

    def query(self, query: Union[str, Query]) -> QueryResult:
        """Parse, compile and execute a SPARQL query."""
        return self._run(query).result

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
        statistics show up as mis-estimates), the join strategy Spark would
        pick, and elapsed wall-clock time.  The returned object
        carries both the rendered report (``str(...)``) and the full
        :class:`~repro.core.results.QueryResult`.
        """
        run = self._run(query, fresh_physical=True)
        result = run.result
        executor = self.executor
        tree = render_explain_analyze(
            run.compiled.plan, executor.last_node_stats, executor.last_physical_plan
        )
        phases = ", ".join(f"{name}={ms:.2f} ms" for name, ms in result.phase_ms.items())
        cached = {True: "hit", False: "miss", None: "not cached (Query object given)"}
        lines = [
            "== Physical Plan (analyzed) ==",
            tree,
            "",
            f"Template cache: parse={cached[run.parse_hit]}, compile={cached[run.compile_hit]}",
            f"Phases: {phases}",
            f"Wall clock: {result.wall_clock_ms:.2f} ms; "
            f"simulated cluster runtime: {result.simulated_runtime_ms:.2f} ms",
        ]
        return ExplainAnalyzeResult(result=result, text="\n".join(lines))

    def _run(self, query: Union[str, Query], fresh_physical: bool = False) -> _QueryRun:
        """The traced query pipeline: parse → compile → plan → execute → render.

        The executor runs the plan with the join annotation the template cache
        keeps with it; ``fresh_physical`` has it annotate the very tree it runs
        instead (``explain_analyze`` draws that tree, and a rebound hit's
        nodes are not the ones the cached annotation is keyed by).

        The whole pipeline holds the store lock's *read* side: concurrent
        queries proceed together, but an ``append_triples``/``compact`` on
        another thread waits for in-flight queries and queries wait for it —
        so every query (and its journal record) sees exactly one manifest
        epoch.
        """
        with self._store_lock.read_locked():
            return self._run_locked(query, fresh_physical)

    def _run_locked(self, query: Union[str, Query], fresh_physical: bool = False) -> _QueryRun:
        total_start = time.perf_counter()
        epoch = self._journal_epoch
        phase_ms: Dict[str, float] = {}
        with self.tracer.span("query", category="query") as root:
            phase_start = time.perf_counter()
            with self.tracer.span("parse", category="query"):
                parsed, parse_hit = self._parse(query) if isinstance(query, str) else (query, None)
            phase_ms["parse"] = (time.perf_counter() - phase_start) * 1000.0

            phase_start = time.perf_counter()
            with self.tracer.span("compile", category="query"):
                compiled, compile_hit = self._compile(parsed)
            phase_ms["compile"] = (time.perf_counter() - phase_start) * 1000.0

            execution = self.config.execution
            executor = self.executor
            metrics = ExecutionMetrics()
            phase_start = time.perf_counter()
            with self.tracer.span("execute", category="query"):
                relation = executor.execute(
                    compiled.plan, metrics, None if fresh_physical else compiled.physical
                )
            execute_ms = (time.perf_counter() - phase_start) * 1000.0
            # Obtaining the join annotation (taking the cached one, or the
            # costing pass) happens inside executor.execute(); split it out
            # so the phase dict matches the span structure.
            plan_ms = min(executor.last_plan_ms, execute_ms)
            phase_ms["plan"] = plan_ms
            phase_ms["execute"] = execute_ms - plan_ms

            with self.tracer.span("render", category="query"):
                scaled_metrics = (
                    metrics.scaled(execution.work_scale)
                    if execution.work_scale != 1.0
                    else metrics
                )
                simulated = self.cost_model.runtime_ms(scaled_metrics)
                physical = executor.last_physical_plan
                result = QueryResult(
                    relation=relation,
                    # The plan alone renders the text; holding ``compiled.sql``
                    # would keep the per-BGP compilation details alive too.
                    sql_renderer=compiled.plan.to_sql,
                    metrics=metrics,
                    simulated_runtime_ms=simulated,
                    wall_clock_ms=(time.perf_counter() - total_start) * 1000.0,
                    statically_empty=compiled.statically_empty,
                    phase_ms=phase_ms,
                    selected_tables=compiled.selected_tables,
                    join_strategies=physical.describe(),
                    epoch=epoch,
                )
            root.set(rows=len(relation))
        self._record_query_metrics(result)
        # The journal's q-error compares the root estimate with the rows.
        self._journal_query(parsed, result, physical.root_rows)
        return _QueryRun(result, parsed, compiled, parse_hit, compile_hit)

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

    def _journal_query(self, parsed: Query, result: QueryResult, root_estimate: int) -> None:
        """Append one workload-journal record for an executed query."""
        journal = self.journal
        if journal is None:
            return
        template, fingerprint = self.template_of(parsed)
        metrics = result.metrics
        estimated = None if root_estimate == UNKNOWN_ROWS else root_estimate
        rows = len(result.relation)
        journal.append(
            JournalRecord(
                fingerprint=fingerprint,
                template=template,
                # The epoch the query actually read (captured at pipeline
                # start under the read lock), not whatever the store advanced
                # to by the time this record is written.
                epoch=result.epoch,
                queue_ms=_QUEUE_WAIT_MS.get(),
                rows=rows,
                wall_ms=result.wall_clock_ms,
                phase_ms=dict(result.phase_ms),
                scanned_tables=dict(metrics.scanned_tables),
                estimated_rows=estimated,
                estimate_q_error=q_error(estimated, rows),
                segments_scanned=metrics.store_segments_scanned,
                segments_pruned=metrics.store_segments_pruned,
                statically_empty=result.statically_empty,
            )
        )

    def _record_query_metrics(self, result: QueryResult) -> None:
        """Fold one query's execution metrics into the session registry."""
        metrics = result.metrics
        registry = self.metrics
        registry.inc("s2rdf_queries_total", help="Queries executed by this session")
        registry.inc("s2rdf_input_tuples_total", metrics.input_tuples)
        registry.inc("s2rdf_output_tuples_total", metrics.output_tuples)
        registry.observe("s2rdf_query_wall_ms", result.wall_clock_ms)
        segments = metrics.store_segments_scanned + metrics.store_segments_pruned
        if segments:
            registry.observe(
                "s2rdf_segment_prune_ratio",
                metrics.store_segments_pruned / segments,
                help="Fraction of store segments skipped by pruning, per query",
            )

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
        """Tuple counts and simulated HDFS size of the layout (Table 2 data).

        ``hdfs_bytes`` is what the paper's Parquet files would take
        (:class:`~repro.engine.storage.ParquetSizeModel`): one file per VP
        table and per materialised ExtVP table, each holding its rows in the
        order the store holds them.  It is computed on request, from the
        store, so an in-memory session and a connected one report the same
        number for the same dataset.
        """
        layout = self.layout
        size_model = ParquetSizeModel()
        with self._store_lock.read_locked():
            summary = layout.size_summary()
            stored = [layout.vp_table_name(predicate) for predicate in layout.predicates()]
            stored += [info.name for info in layout.statistics.materialized()]
            summary["hdfs_bytes"] = sum(
                size_model.estimate_bytes(layout.catalog.scan_batch(name).batch.to_relation())
                for name in stored
            )
            summary["table_counts"] = layout.table_counts()
        summary["load_seconds"] = self.load_seconds
        return summary
