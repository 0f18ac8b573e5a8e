"""Plan execution against a catalog (the native in-process engine).

The plan IR itself lives in :mod:`repro.engine.ops`; this module exports
:class:`PlanExecutor` and :class:`NodeExecution`.  :class:`PlanExecutor` is
the native engine: an :class:`~repro.engine.ops.OperationVisitor` whose
``visit_*`` hooks evaluate each operator against the stored tables of a
:class:`~repro.engine.catalog.Catalog` — scans yield dictionary-id batches,
decoded to terms once, at the root or at the first operator without a batch
kernel — recording :class:`~repro.engine.metrics.ExecutionMetrics` and, when
someone is looking, per-node observations for ``explain_analyze`` and the
tracer.  A plan runs as it is: a query that shares a cached plan with others
hands in its constants as a :class:`Binding` — each constant's term and its
encoded dictionary id — with the plan's prepared scans (:class:`PreparedScan`),
which scan the store for those ids.  Every plan it runs carries its operators'
row estimates (:class:`~repro.engine.estimates.RowEstimates`), handed in by
the caller or computed before the run; they are reported, never acted on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.catalog import Catalog, StoredTableProvider
from repro.engine.estimates import RowEstimates
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import (
    AggregateNode,
    DistinctNode,
    EmptyNode,
    FilterNode,
    LeftOuterJoinNode,
    LimitNode,
    NaturalJoinNode,
    Operation,
    OperationVisitor,
    OrderByNode,
    ProjectNode,
    SubqueryNode,
    TableScanNode,
    UnionNode,
)
from repro.engine.relation import Relation
from repro.engine.storage import NULL_ID
from repro.engine.vectorized import ColumnBatch
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rdf.terms import Term

#: What a scan bound to a constant needs: its dictionary id and its stable
#: hash (:meth:`~repro.store.format.StoredTermDictionary.encode`); ``None``
#: for a constant the store does not hold, which proves the scan empty.
EncodedTerm = Optional[Tuple[int, int]]


class PreparedScan:
    """One scan of a cached plan, with what depends only on the plan and the
    store generation worked out once.

    It holds the node's table handle, its checked column lists and output
    columns and, for a scan without conditions, the relabelled batch of the
    provider's cached scan — good for as long as the provider still hands
    out that scan.  A scan with conditions names each constant by the
    ``id`` of the term in the node's conditions; the query's
    :class:`Binding` supplies its encoded value.  It is data the plan's cache
    entry keeps, not an executor: :meth:`PlanExecutor.visit_subquery` runs it.
    """

    __slots__ = ("table", "columns", "output_columns", "decode_columns", "conditions", "_whole")

    def __init__(self, node: SubqueryNode, table: StoredTableProvider) -> None:
        self.table = table
        #: The columns to scan — a pattern without a variable keeps only its
        #: row count: one column — checked, with the ones the conditions
        #: decode, when there are conditions.
        self.columns: Sequence[str] = tuple([column for column, _ in node.projections]) or ("s",)
        self.decode_columns: List[str] = []
        if node.conditions:
            self.columns, self.decode_columns = table.scan_columns(
                self.columns, [column for column, _ in node.conditions]
            )
        self.output_columns = node.output_columns()
        #: ``(column, id(term))`` per equality condition.
        self.conditions = tuple([(column, id(term)) for column, term in node.conditions])
        #: ``(the provider's cached scan, its relabelled batch)``.
        self._whole: Optional[Tuple[Any, ColumnBatch]] = None

    def run(self, ids: Mapping[int, EncodedTerm]) -> Tuple[Any, ColumnBatch]:
        """The scan result and the node's batch, with the constants ``ids`` gives."""
        if not self.conditions:
            scan = self.table.scan_whole(self.columns)
            whole = self._whole
            if whole is None or whole[0] is not scan:
                whole = self._whole = (scan, _relabel(self.output_columns, scan.batch))
            return whole
        scan = self.table.scan_bound(
            self.columns,
            self.decode_columns,
            [(column, ids[key]) for column, key in self.conditions],
        )
        return scan, _relabel(self.output_columns, scan.batch)


def prepare_scans(
    plan: Operation, catalog: Catalog, constants: Iterable[Term]
) -> Dict[int, PreparedScan]:
    """The prepared form of ``plan``'s scans of stored tables, by ``id(node)``.

    A scan is prepared when every constant in its conditions is one of
    ``constants`` (the ones a :class:`Binding` carries); any other runs
    through the catalog.
    """
    slots = {id(term) for term in constants}
    prepared: Dict[int, PreparedScan] = {}
    for node in plan.walk():
        if type(node) is SubqueryNode and all(id(term) in slots for _, term in node.conditions):
            table = catalog.stored(node.table_name)
            if table is not None:
                prepared[id(node)] = PreparedScan(node, table)
    return prepared


class Binding:
    """One query's constants for a cached plan that its template's queries share.

    The plan's conditions hold the template's own terms; each is named by its
    ``id``.  ``terms`` maps it to this query's term: the SQL skeleton renders
    that, and an executor that scans terms (the row oracle) looks for it.
    ``ids`` maps it to the term's encoded value, which the prepared scans
    (``scans``, the plan entry's, by ``id(node)``) look for in the store.
    """

    __slots__ = ("terms", "ids", "scans")

    def __init__(
        self,
        terms: Mapping[int, Term],
        ids: Mapping[int, EncodedTerm],
        scans: Mapping[int, PreparedScan],
    ) -> None:
        self.terms = terms
        self.ids = ids
        self.scans = scans


def _relabel(output_columns: Tuple[str, ...], batch: ColumnBatch) -> ColumnBatch:
    """A subquery's batch from its scan's: the store scanned exactly its
    columns, in order, so the projection and rename are one relabelling."""
    if not output_columns:
        return batch.project(())
    return ColumnBatch.adopt(output_columns, batch.ids, batch.decode, selection=batch.selection)


@dataclass
class NodeExecution:
    """Observed execution of one plan node (keyed by ``id(node)``).

    ``elapsed_ms`` is *cumulative*: it includes the node's children, because
    operators materialize bottom-up inside their parent's frame.  Renderers
    (``explain_analyze``) subtract child times for self-time displays.
    """

    rows: int
    elapsed_ms: float
    #: True when the node produced an id :class:`ColumnBatch` (no row dicts).
    vectorized: bool = False


def _node_span_name(plan: Operation) -> str:
    if plan.is_scan:
        return f"scan {plan.table_name}"
    return type(plan).__name__.removesuffix("Node")


class PlanExecutor(OperationVisitor):
    """Executes logical plans against a catalog.

    Every table is a stored one, so every scan yields an id
    :class:`ColumnBatch` and every batch-capable operator above it stays on
    ids, decoded once at the root; operators without a kernel (OPTIONAL,
    aggregates, ORDER BY, multi-variable filters) lower batch -> rows at
    their boundary, and what sits above them runs on rows.

    Per-operator observation costs a span, a timing and a record per node,
    so it runs only when someone is looking: with the tracer enabled, or
    when ``execute(..., analyze=True)`` asks (``explain_analyze``), every
    operator runs in a tracer span and records a :class:`NodeExecution` into
    ``last_node_stats``, keyed by ``id(node)``.  Otherwise ``last_node_stats``
    stays empty; the :class:`~repro.engine.metrics.ExecutionMetrics` counters
    are recorded either way.  Instance state describes the last plan run, so
    an executor serves one thread.
    """

    def __init__(self, catalog: Catalog, tracer: Optional[Tracer] = None) -> None:
        self.catalog = catalog
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per-node observations of the most recently executed plan.
        self.last_node_stats: Dict[int, NodeExecution] = {}
        #: The row estimates of the most recently executed plan.
        self.last_estimates: Optional[RowEstimates] = None
        #: Milliseconds the last execute() spent obtaining them.
        self.last_plan_ms: float = 0.0
        #: Milliseconds each join of the most recently executed plan took.
        self.last_join_ms: List[float] = []
        #: Whether the running plan records per-node observations.
        self._observing = False

    def execute(
        self,
        plan: Operation,
        metrics: Optional[ExecutionMetrics] = None,
        estimates: Optional[RowEstimates] = None,
        binding: Optional[Binding] = None,
        analyze: bool = False,
    ) -> Relation:
        """Run ``plan``; ``estimates`` are its row estimates when the caller has them.

        The session hands in the estimates its template cache keeps with the
        plan; without them (a direct caller, a ``Query`` object,
        ``explain_analyze``) the estimator walks ``plan`` itself here.
        ``binding`` carries another query's constants for a cached plan,
        and its prepared scans.
        ``analyze`` records per-node observations without a tracer.
        """
        return self._lower(self.run(plan, metrics, estimates, binding, analyze))

    def run(
        self,
        plan: Operation,
        metrics: Optional[ExecutionMetrics] = None,
        estimates: Optional[RowEstimates] = None,
        binding: Optional[Binding] = None,
        analyze: bool = False,
    ) -> Union[ColumnBatch, Relation]:
        """:meth:`execute` without its last step: the root as it came out —
        an id :class:`ColumnBatch` above stored tables, or rows.

        The session runs queries this way and lowers the root when it
        finishes one; a process worker's ids are lowered by the process that
        asked, through its own dictionary (``ColumnBatch.to_relation``, as
        here).
        """
        metrics = metrics if metrics is not None else ExecutionMetrics()
        start = time.perf_counter()
        with self.tracer.span("physical-plan", category="query") as span:
            cached = estimates is not None
            if not cached:
                estimates = RowEstimates(plan, self.catalog)
            self.last_estimates = estimates
            span.set(cached=cached)
        self.last_plan_ms = (time.perf_counter() - start) * 1000.0
        self.last_node_stats = {}
        self._observing = analyze or self.tracer.enabled
        self.last_join_ms = []
        result = self._execute(plan, metrics, binding)
        metrics.output_tuples = len(result)
        return result

    @staticmethod
    def _lower(result: Any) -> Relation:
        """Decode an id batch to rows; row relations pass through untouched.

        At the root this is the single deferred-decoding boundary before
        result rendering."""
        if isinstance(result, ColumnBatch):
            return result.to_relation()
        return result

    def _record_scan(self, table_name: str, scan, metrics: ExecutionMetrics) -> None:
        """Record a scan; store-backed scans also report segment pruning."""
        metrics.record_scan(table_name, scan.rows_scanned)
        if scan.segments_scanned or scan.segments_pruned:
            metrics.record_segment_scan(scan.segments_scanned, scan.segments_pruned)
            if scan.segments_pruned:
                # Pruning decision, visible on the scan's span timeline.
                self.tracer.current().event(
                    "segment-pruning",
                    table=table_name,
                    segments_scanned=scan.segments_scanned,
                    segments_pruned=scan.segments_pruned,
                )

    # ------------------------------------------------------------------ #
    def _execute(
        self, plan: Operation, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        """Execute ``plan``; observed, inside a span, when someone is looking.

        Returns a :class:`Relation` or — above stored tables — a
        :class:`ColumnBatch`; both answer ``len``.
        """
        if self._observing:
            return self._execute_observed(plan, metrics, binding)
        result = plan.accept(self, metrics, binding)
        if type(result) is ColumnBatch:
            metrics.record_vectorized(len(result))
        return result

    def _execute_observed(
        self, plan: Operation, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        with self.tracer.span(_node_span_name(plan), category="operator") as span:
            start = time.perf_counter()
            result = plan.accept(self, metrics, binding)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            span.set(rows=len(result))
        is_batch = type(result) is ColumnBatch
        if is_batch:
            metrics.record_vectorized(len(result))
        self.last_node_stats[id(plan)] = NodeExecution(
            rows=len(result), elapsed_ms=elapsed_ms, vectorized=is_batch
        )
        return result

    # ------------------------------------------------------------------ #
    # Operator evaluation: one visitor hook per IR node.
    # ------------------------------------------------------------------ #
    def visit_empty(
        self, plan: EmptyNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Relation:
        return Relation.empty(plan.columns)

    def visit_table_scan(
        self, plan: TableScanNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> ColumnBatch:
        scan = self.catalog.scan_batch(plan.table_name, columns=plan.columns)
        self._record_scan(plan.table_name, scan, metrics)
        batch = scan.batch
        return batch.project(plan.columns) if plan.columns != batch.columns else batch

    def visit_subquery(
        self, plan: SubqueryNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> ColumnBatch:
        prepared = binding.scans.get(id(plan)) if binding is not None else None
        if prepared is not None:
            scan, batch = prepared.run(binding.ids)
        else:
            # A pattern without a variable keeps only its row count: scan one column.
            scan = self.catalog.scan_batch(
                plan.table_name,
                columns=[column for column, _ in plan.projections] or ["s"],
                conditions=self._conditions(plan, binding),
            )
            batch = _relabel(plan.output_columns(), scan.batch)
        self._record_scan(plan.table_name, scan, metrics)
        return batch

    @staticmethod
    def _conditions(plan: SubqueryNode, binding: Optional[Binding]) -> Optional[Dict[str, Any]]:
        """The scan's equality conditions, their terms resolved through ``binding``."""
        if not plan.conditions:
            return None
        if binding is None:
            return dict(plan.conditions)
        terms = binding.terms
        return {column: terms.get(id(term), term) for column, term in plan.conditions}

    def visit_natural_join(
        self, plan: NaturalJoinNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        left = self._execute(plan.left, metrics, binding)
        right = self._execute(plan.right, metrics, binding)
        left, right = self._align_join_inputs(left, right)
        start = time.perf_counter()
        result = left.natural_join(right, metrics)
        self._record_join_time(start, metrics)
        return result

    @classmethod
    def _align_join_inputs(cls, left: Any, right: Any) -> Any:
        """Two batches join on raw ids (a catalog's stored tables share one
        dictionary); a batch meeting rows — the output of an operator without
        a batch kernel, or an empty node — lowers to rows too."""
        if isinstance(left, ColumnBatch) and isinstance(right, ColumnBatch):
            return left, right
        return cls._lower(left), cls._lower(right)

    def visit_left_outer_join(
        self, plan: LeftOuterJoinNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Relation:
        left = self._lower(self._execute(plan.left, metrics, binding))
        right = self._lower(self._execute(plan.right, metrics, binding))
        start = time.perf_counter()
        joined = left.left_outer_join(right, metrics)
        self._record_join_time(start, metrics)
        if plan.expression is not None:
            right_only = set(plan.right.output_columns()) - set(plan.left.output_columns())

            def keep(row: Dict[str, Any]) -> bool:
                # The OPTIONAL filter only applies when the optional part matched.
                if all(row.get(c) is None for c in right_only):
                    return True
                mapping = {k: v for k, v in row.items() if v is not None}
                return plan.expression.evaluate_truth(mapping)

            joined = joined.select(keep)
        return joined

    def visit_union(
        self, plan: UnionNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        left = self._execute(plan.left, metrics, binding)
        right = self._execute(plan.right, metrics, binding)
        left, right = self._align_join_inputs(left, right)
        return left.union(right)

    def visit_filter(
        self, plan: FilterNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        child = self._execute(plan.child, metrics, binding)
        if isinstance(child, ColumnBatch):
            batch = self._filter_batch(plan, child)
            if batch is not None:
                return batch
            child = child.to_relation()
        return child.select(
            lambda row: plan.expression.evaluate_truth({k: v for k, v in row.items() if v is not None})
        )

    @staticmethod
    def _filter_batch(plan: FilterNode, child: ColumnBatch) -> Optional[ColumnBatch]:
        """Run a single-variable filter on ids, memoised per distinct id.

        Multi-variable expressions (``?x < ?y``) have no batch kernel yet and
        return ``None``, telling the caller to lower to the row path.
        """
        variables = {variable.name for variable in plan.expression.variables()}
        if len(variables) != 1:
            return None
        name = next(iter(variables))
        if name not in child.columns:
            return None
        decode = child.decode
        expression = plan.expression

        def verdict(term_id: int) -> bool:
            # NULL_ID = unbound: evaluated against the empty mapping, exactly
            # like the row path omitting None values.
            mapping = {} if term_id == NULL_ID else {name: decode(term_id)}
            return expression.evaluate_truth(mapping)

        return child.select_ids(name, verdict)

    def visit_project(
        self, plan: ProjectNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        child = self._execute(plan.child, metrics, binding)
        if isinstance(child, ColumnBatch):
            return child.pad_to(plan.columns).project(plan.columns)
        return self._pad_columns(child, plan.columns).project(plan.columns)

    def visit_distinct(
        self, plan: DistinctNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        return self._execute(plan.child, metrics, binding).distinct()

    def visit_order_by(
        self, plan: OrderByNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Relation:
        return self._lower(self._execute(plan.child, metrics, binding)).order_by(plan.keys)

    def visit_limit(
        self, plan: LimitNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Any:
        child = plan.child
        if child.is_sort and plan.limit is not None:
            # ORDER BY + LIMIT fuse into a heap-based top-k: the sort node is
            # skipped entirely and only ``limit + offset`` rows are kept.
            start = time.perf_counter()
            rows = self._lower(self._execute(child.child, metrics, binding))
            result = rows.top_k(child.keys, plan.limit, plan.offset)
            if self._observing:
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                self.last_node_stats[id(child)] = NodeExecution(
                    rows=len(result), elapsed_ms=elapsed_ms
                )
            return result
        return self._execute(child, metrics, binding).limit(plan.limit, plan.offset)

    def visit_aggregate(
        self, plan: AggregateNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Relation:
        child = self._lower(self._execute(plan.child, metrics, binding))
        needed = list(plan.group_keys) + [
            spec.column for spec in plan.aggregates if spec.column is not None
        ]
        return self._pad_columns(child, needed).aggregate(plan.group_keys, plan.aggregates)

    @staticmethod
    def _pad_columns(relation: Relation, columns) -> Relation:
        """Add missing columns as all-``None`` (unbound variables)."""
        missing = [c for c in columns if c not in relation.columns]
        if not missing:
            return relation
        padded_columns = list(relation.columns) + missing
        return Relation(
            padded_columns,
            (row + tuple(None for _ in missing) for row in relation.rows),
        )

    def _record_join_time(self, start: float, metrics: ExecutionMetrics) -> None:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        metrics.record_critical_path(elapsed_ms)
        self.last_join_ms.append(elapsed_ms)
