"""Partitioned parallel plan execution.

:class:`ParallelExecutor` is the runtime counterpart of the physical planner
in :mod:`repro.engine.runtime.strategies`.  It executes the same logical plans
as the serial :class:`~repro.engine.plan.PlanExecutor` (which it subclasses),
but every join annotated :class:`ShuffleHashJoin` re-partitions both inputs on
the join keys and joins the co-partitioned pairs on a
:class:`concurrent.futures.ThreadPoolExecutor`, while a
:class:`BroadcastHashJoin` ships the small build side to every partition of
the large side, exactly like Spark's exchange operators.  Results are merged
back into one relation, so the output is bag-equal to the serial executor's.

The machinery is paid for only when the data is big enough to use it: a join
whose materialized inputs together hold fewer than
:data:`~repro.engine.runtime.strategies.SMALL_JOIN_ROWS` rows runs as the
serial operator on the calling thread (:class:`SerialJoin`, reason ``small
input``) — in every mode, whatever the plan said — and a query made only of
such joins never creates the thread pool.

With ``adaptive_enabled`` (the default), execution is *adaptive* in the
Spark 3 sense: joins materialize bottom-up, so when a join is about to run,
its inputs are observed rather than estimated.  The
:class:`~repro.engine.runtime.adaptive.AdaptivePlanner` re-decides the join's
strategy from those observed sizes (demoting shuffles whose build side is
actually small, promoting broadcasts whose build side is actually huge),
splits skewed shuffle partitions into median-sized tasks, and feeds observed
table cardinalities back into the catalog so the *next* query's static plan
starts from truth.  Replans and skew splits are visible in
:class:`~repro.engine.metrics.ExecutionMetrics` (``aqe_replans``,
``aqe_skew_splits``) and in the physical plan's initial-vs-executed strategy
lists.

Byte-level exchange volume (shuffled vs. broadcast) and the per-join critical
path (the slowest partition task) are recorded in
:class:`~repro.engine.metrics.ExecutionMetrics`, giving the Spark cost model
observed shuffle volume instead of the former per-tuple guesswork.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog, ScanResult
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import LeftOuterJoinNode, NaturalJoinNode, PlanNode
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.engine.vectorized import ColumnBatch, PartitionedBatch, concat_batches
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.engine.runtime.adaptive import DEFAULT_SKEW_FACTOR, AdaptivePlanner, ReplanEvent
from repro.engine.runtime.partitioned import PartitionedRelation, estimated_bytes
from repro.engine.runtime.strategies import (
    DEFAULT_BROADCAST_MEMORY_LIMIT,
    DEFAULT_BROADCAST_THRESHOLD,
    BroadcastHashJoin,
    JoinStrategy,
    PhysicalPlan,
    SerialJoin,
    ShuffleHashJoin,
    is_small_join,
    plan_join_strategies,
)

#: One partition task: (result partition, comparisons made, elapsed ms).
_TaskResult = Tuple[Relation, int, float]


@dataclass
class ExchangeStats:
    """Observed I/O of one join's exchange (keyed by ``id(plan node)``)."""

    kind: str  # "shuffle" | "broadcast"
    transferred_bytes: int
    tasks: int
    critical_path_ms: float = 0.0


class ParallelExecutor(PlanExecutor):
    """Executes logical plans with partitioned, pooled join operators.

    Per join, at the materialisation boundary: observed inputs that are
    degenerate or small (see :meth:`_serial_reason`) run the inherited serial
    operator inline; otherwise the planned strategy — revised from observed
    sizes under AQE, then checked against the broadcast memory guard — picks
    the broadcast or shuffle exchange, whose partition tasks go to the thread
    pool (created on first use).
    """

    def __init__(
        self,
        catalog: Catalog,
        num_partitions: int = 4,
        broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
        max_workers: Optional[int] = None,
        adaptive_enabled: bool = True,
        skew_factor: float = DEFAULT_SKEW_FACTOR,
        tracer: Optional[Tracer] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        broadcast_memory_limit: int = DEFAULT_BROADCAST_MEMORY_LIMIT,
    ) -> None:
        super().__init__(catalog, tracer=tracer, metrics_registry=metrics_registry)
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if broadcast_memory_limit < 1:
            raise ValueError("broadcast_memory_limit must be >= 1")
        self.num_partitions = num_partitions
        self.broadcast_threshold = broadcast_threshold
        #: Hard cap on the observed materialized build side of a broadcast.
        #: Unlike ``broadcast_threshold`` (an estimate-driven *preference*),
        #: this is a memory-safety bound enforced in every mode, adaptive or
        #: not: exceeding it demotes the join to a shuffle.
        self.broadcast_memory_limit = broadcast_memory_limit
        self.max_workers = max_workers or min(num_partitions, max(1, os.cpu_count() or 1))
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Join-strategy annotations of the most recently executed plan.
        self.last_physical_plan: Optional[PhysicalPlan] = None
        #: Time spent in the physical-planning step of the last execute().
        self.last_plan_ms: float = 0.0
        #: Observed exchange I/O per join node of the last executed plan.
        self.last_exchange_stats: Dict[int, ExchangeStats] = {}
        #: Adaptive re-planning; ``None`` reproduces the static plan exactly.
        self.adaptive: Optional[AdaptivePlanner] = (
            AdaptivePlanner(catalog, broadcast_threshold, skew_factor=skew_factor)
            if adaptive_enabled
            else None
        )

    @property
    def adaptive_enabled(self) -> bool:
        return self.adaptive is not None

    # ------------------------------------------------------------------ #
    def execute(self, plan: PlanNode, metrics: Optional[ExecutionMetrics] = None) -> Relation:
        if self.adaptive is not None:
            self.adaptive.reset()
        self.last_exchange_stats = {}
        start = time.perf_counter()
        with self.tracer.span("physical-plan", category="query") as span:
            self.last_physical_plan = self.plan_physical(plan)
            span.set(joins=len(self.last_physical_plan.strategies()))
        self.last_plan_ms = (time.perf_counter() - start) * 1000.0
        return super().execute(plan, metrics)

    def plan_physical(self, plan: PlanNode) -> PhysicalPlan:
        """The physical-planning step: annotate every join with a strategy.

        Only adaptive executors consult the catalog's observed-cardinality
        cache: with ``adaptive_enabled=False`` the plan must depend on the
        static statistics alone, even when an adaptive session sharing this
        catalog already recorded observations.
        """
        return plan_join_strategies(
            plan, self.catalog, self.broadcast_threshold, use_observed=self.adaptive_enabled
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Scan hook: feed observed table sizes back into the catalog
    # ------------------------------------------------------------------ #
    def _record_scan(self, table_name: str, scan: ScanResult, metrics: ExecutionMetrics) -> None:
        super()._record_scan(table_name, scan, metrics)
        # A scan that pruned segments saw only part of the table, so its row
        # count is not a table-cardinality observation.
        if self.adaptive is not None and scan.segments_pruned == 0:
            self.adaptive.observe_scan(table_name, scan.rows_scanned)

    # ------------------------------------------------------------------ #
    # Join hooks
    # ------------------------------------------------------------------ #
    def _natural_join(
        self, plan: NaturalJoinNode, left: Relation, right: Relation, metrics: ExecutionMetrics
    ) -> Relation:
        return self._adaptive_join(plan, left, right, metrics, outer=False)

    def _left_outer_join(
        self, plan: LeftOuterJoinNode, left: Relation, right: Relation, metrics: ExecutionMetrics
    ) -> Relation:
        return self._adaptive_join(plan, left, right, metrics, outer=True)

    def _adaptive_join(
        self,
        plan: PlanNode,
        left: Relation,
        right: Relation,
        metrics: ExecutionMetrics,
        outer: bool,
    ) -> Relation:
        shared = [c for c in left.columns if c in right.columns]
        physical = self.last_physical_plan
        planned = physical.strategy_for(plan) if physical is not None else None

        serial_reason = self._serial_reason(left, right, shared)
        strategy = planned
        if serial_reason is None:
            if self.adaptive is not None and planned is not None:
                strategy, event = self.adaptive.revise(plan, planned, left, right)
                if event is not None:
                    metrics.record_replan()
                    # Replan decision, timestamped on the join operator's span.
                    self.tracer.current().event(
                        "aqe-replan",
                        initial=event.initial.name,
                        revised=event.revised.name,
                        reason=event.reason,
                    )
            if isinstance(strategy, SerialJoin):
                # Estimated small, observed larger, and no AQE to revise it:
                # static planning executes the plan as written.
                serial_reason = f"planned {strategy.reason}"
        if serial_reason is not None:
            if physical is not None and planned is not None:
                physical.record_executed(
                    plan, SerialJoin(tuple(shared), len(left), len(right), reason=serial_reason)
                )
            if outer:
                return super()._left_outer_join(plan, left, right, metrics)
            return super()._natural_join(plan, left, right, metrics)

        strategy = self._apply_broadcast_guard(plan, strategy, left, right, outer, metrics)
        if physical is not None and strategy is not None:
            physical.record_executed(plan, strategy)

        if isinstance(strategy, BroadcastHashJoin):
            # Only the non-preserved (right) side of an outer join may build.
            build_left = strategy.build_side == "left" and not outer
            return self._broadcast_join(
                plan, left, right, build_left=build_left, metrics=metrics, outer=outer
            )
        if outer:
            join = lambda l, r, scratch: l.left_outer_join(r, scratch)  # noqa: E731
        else:
            join = lambda l, r, scratch: l.natural_join(r, scratch)  # noqa: E731
        return self._shuffle_join(plan, left, right, shared, join=join, metrics=metrics, outer=outer)

    def _apply_broadcast_guard(
        self,
        plan: PlanNode,
        strategy: Optional["JoinStrategy"],
        left: Relation,
        right: Relation,
        outer: bool,
        metrics: ExecutionMetrics,
    ) -> Optional["JoinStrategy"]:
        """Demote a broadcast whose *observed* build side breaks the memory cap.

        The planners decide from estimates; this guard is the last check
        before dispatch, against the relation that actually materialized.  It
        runs in every mode (adaptive or not) — it is a memory-safety bound,
        not a cost decision.  Joins reaching this point always have shared
        keys (``_serial_reason`` sent cross joins down the serial path), so a
        shuffle substitute always exists.
        """
        if not isinstance(strategy, BroadcastHashJoin) or not strategy.keys:
            return strategy
        # Mirror the dispatch rule below: an outer join always builds right.
        build = left if (strategy.build_side == "left" and not outer) else right
        build_bytes = estimated_bytes(build)
        if build_bytes <= self.broadcast_memory_limit:
            return strategy
        demoted = ShuffleHashJoin(strategy.keys, len(left), len(right))
        metrics.record_guard_trip()
        reason = (
            f"broadcast memory guard: observed build side {build_bytes} B > "
            f"limit {self.broadcast_memory_limit} B"
        )
        if self.adaptive is not None:
            # Surface the demotion in explain_analyze like any AQE revision.
            self.adaptive.replan_events.append(
                ReplanEvent(strategy, demoted, reason, node_id=id(plan))
            )
        self.tracer.current().event(
            "broadcast-guard-trip",
            build_bytes=build_bytes,
            limit=self.broadcast_memory_limit,
        )
        self._observe("s2rdf_broadcast_guard_build_bytes", float(build_bytes))
        return demoted

    def _serial_reason(
        self, left: Relation, right: Relation, shared: Sequence[str]
    ) -> Optional[str]:
        """Why the *observed* inputs run on the calling thread, or ``None``.

        Checked at the materialisation boundary in every mode (adaptive or
        not): cross joins (no shared keys) cannot be hash-partitioned, an
        empty side makes the join trivial, and below
        :data:`~repro.engine.runtime.strategies.SMALL_JOIN_ROWS` any exchange
        costs more than the join — none of them builds a
        :class:`PartitionedRelation`, submits a pool task or merges.
        """
        if self.num_partitions <= 1:
            return "single partition"
        if not shared:
            return "cross join"
        if len(left) == 0 or len(right) == 0:
            return "empty input"
        if is_small_join(len(left), len(right)):
            return "small input"
        return None

    # ------------------------------------------------------------------ #
    # Physical operators
    # ------------------------------------------------------------------ #
    def _shuffle_join(
        self,
        plan: PlanNode,
        left: Relation,
        right: Relation,
        keys: Sequence[str],
        join: Callable[[Relation, Relation, ExecutionMetrics], Relation],
        metrics: ExecutionMetrics,
        outer: bool = False,
    ) -> Relation:
        """ShuffleHashJoin: co-partition both sides on the keys, join pairwise.

        A side whose scan came pre-bucketed from the dataset store on exactly
        these keys (and this partition count) is consumed as-is: its buckets
        are sliced out of the scan output and contribute zero shuffle bytes.

        Under adaptive execution, skewed partitions (larger than
        ``skew_factor ×`` the median) are subdivided into median-sized tasks
        before the pool runs them; aligned stored buckets and the
        *non-preserved* (right) side of an outer join are never split — only
        the preserved side can be chunked without fabricating rows.
        """
        with self.tracer.span(
            "shuffle-exchange", category="exchange", keys=",".join(keys)
        ) as exchange_span:
            left_parts, left_aligned = self._partition_input(left, keys)
            right_parts, right_aligned = self._partition_input(right, keys)
            assert left_parts.is_co_partitioned_with(right_parts)
            pairs: List[Tuple[Relation, Relation]] = list(
                zip(left_parts.partitions, right_parts.partitions)
            )
            if self.adaptive is not None:
                pairs, extra = self.adaptive.split_skewed(
                    pairs,
                    splittable_left=not left_aligned,
                    # Splitting the right side of an outer join would fabricate
                    # null-padded rows for left rows matched in another chunk.
                    splittable_right=not right_aligned and not outer,
                )
                if extra:
                    metrics.record_skew_split(extra)
                    exchange_span.event("aqe-skew-split", extra_tasks=extra)

            def task(indexed: Tuple[int, Tuple[Relation, Relation]]) -> _TaskResult:
                index, (left_part, right_part) = indexed
                scratch = ExecutionMetrics()
                with self.tracer.span(
                    "join-task", category="task", parent=exchange_span, partition=index
                ) as task_span:
                    start = time.perf_counter()
                    joined = join(left_part, right_part, scratch)
                    task_span.set(rows=len(joined))
                return joined, scratch.join_comparisons, (time.perf_counter() - start) * 1000.0

            results = self._run_tasks(task, list(enumerate(pairs)))
            shuffled = (0 if left_aligned else left_parts.estimated_bytes()) + (
                0 if right_aligned else right_parts.estimated_bytes()
            )
            metrics.record_shuffle(shuffled, tasks=len(results))
            exchange_span.set(transferred_bytes=shuffled, tasks=len(results))
            aligned = int(left_aligned) + int(right_aligned)
            if aligned:
                metrics.record_aligned_input(aligned)
            self.last_exchange_stats[id(plan)] = ExchangeStats(
                kind="shuffle", transferred_bytes=shuffled, tasks=len(results)
            )
            return self._merge(plan, left, right, results, metrics)

    def _partition_input(self, relation, keys: Sequence[str]):
        """Bucket one join input, reusing a matching stored layout when present.

        Id batches bucket into :class:`PartitionedBatch` (selection slicing —
        the "shuffle" moves index vectors, not rows); row relations keep the
        original :class:`PartitionedRelation` path.  Returns
        ``(partitioned, aligned)``.
        """
        tag = relation.partitioning
        aligned = (
            tag is not None
            and tag.keys == tuple(keys)
            and tag.num_partitions == self.num_partitions
        )
        if isinstance(relation, ColumnBatch):
            if aligned:
                return PartitionedBatch.from_prepartitioned(relation), True
            return PartitionedBatch.from_batch(relation, self.num_partitions, keys=keys), False
        if aligned:
            return PartitionedRelation.from_prepartitioned(relation), True
        return PartitionedRelation.from_relation(relation, self.num_partitions, keys=keys), False

    def _broadcast_join(
        self,
        plan: PlanNode,
        left: Relation,
        right: Relation,
        build_left: bool,
        metrics: ExecutionMetrics,
        outer: bool = False,
    ) -> Relation:
        """BroadcastHashJoin: split the probe side evenly, ship the build side whole.

        The probe (large) side never crosses the wire — each of its partitions
        joins against the full broadcast build side, preserving the serial
        operator's left-first column order.
        """
        with self.tracer.span(
            "broadcast-exchange", category="exchange", build="left" if build_left else "right"
        ) as exchange_span:
            build, probe = (left, right) if build_left else (right, left)
            if isinstance(probe, ColumnBatch):
                probe_parts = PartitionedBatch.from_batch(probe, self.num_partitions)
            else:
                probe_parts = PartitionedRelation.from_relation(probe, self.num_partitions)

            def task(indexed: Tuple[int, Relation]) -> _TaskResult:
                index, probe_part = indexed
                scratch = ExecutionMetrics()
                with self.tracer.span(
                    "join-task", category="task", parent=exchange_span, partition=index
                ) as task_span:
                    start = time.perf_counter()
                    if outer:
                        joined = probe_part.left_outer_join(build, scratch)
                    elif build_left:
                        joined = build.natural_join(probe_part, scratch)
                    else:
                        joined = probe_part.natural_join(build, scratch)
                    task_span.set(rows=len(joined))
                return joined, scratch.join_comparisons, (time.perf_counter() - start) * 1000.0

            results = self._run_tasks(task, list(enumerate(probe_parts.partitions)))
            broadcast = estimated_bytes(build) * probe_parts.num_partitions
            metrics.record_broadcast(broadcast, tasks=len(results))
            exchange_span.set(transferred_bytes=broadcast, tasks=len(results))
            self.last_exchange_stats[id(plan)] = ExchangeStats(
                kind="broadcast", transferred_bytes=broadcast, tasks=len(results)
            )
            return self._merge(plan, left, right, results, metrics)

    # ------------------------------------------------------------------ #
    def _run_tasks(self, task: Callable, items: List) -> List[_TaskResult]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="s2rdf-runtime"
            )
        return list(self._pool.map(task, items))

    @staticmethod
    def _output_columns(left: Relation, right: Relation) -> Tuple[str, ...]:
        return tuple(list(left.columns) + [c for c in right.columns if c not in left.columns])

    def _merge(
        self,
        plan: PlanNode,
        left,
        right,
        results: List[_TaskResult],
        metrics: ExecutionMetrics,
    ):
        """Concatenate partition outputs and record the aggregate join metrics.

        Batch-input joins produce batch partitions, which merge back into one
        :class:`ColumnBatch` so downstream operators stay on ids.
        """
        comparisons = 0
        slowest_ms = 0.0
        for _, partition_comparisons, elapsed_ms in results:
            comparisons += partition_comparisons
            slowest_ms = max(slowest_ms, elapsed_ms)
            self._observe("s2rdf_task_ms", elapsed_ms)
        if isinstance(left, ColumnBatch):
            merged = concat_batches([partition for partition, _, _ in results])
            output_rows = len(merged)
        else:
            columns = self._output_columns(left, right)
            rows: List = []
            for partition, _, _ in results:
                rows.extend(partition.rows)
            merged = Relation.adopt(columns, rows)
            output_rows = len(rows)
        metrics.record_join(len(left), len(right), comparisons, output_rows)
        metrics.record_critical_path(slowest_ms)
        self._observe("s2rdf_join_critical_path_ms", slowest_ms)
        exchange = self.last_exchange_stats.get(id(plan))
        if exchange is not None:
            exchange.critical_path_ms = slowest_ms
        return merged
