"""Physical join strategies and the planning step that picks them.

Spark SQL chooses between a shuffle hash/sort-merge join and a broadcast hash
join per join operator: when one side's estimated size is below
``spark.sql.autoBroadcastJoinThreshold`` (10 MB by default), that side is
shipped whole to every executor and no shuffle of the large side is needed;
otherwise both sides are re-partitioned on the join keys.  This module
reproduces that decision for the logical plans of
:mod:`repro.engine.ops`: :func:`plan_join_strategies` walks a plan bottom-up,
estimates per-operator cardinalities from catalog statistics and annotates
every :class:`~repro.engine.ops.NaturalJoinNode` /
:class:`~repro.engine.ops.LeftOuterJoinNode` with a
:class:`ShuffleHashJoin`, :class:`BroadcastHashJoin` or — when both inputs
together are under :data:`SMALL_JOIN_ROWS` — :class:`SerialJoin` decision: at
that size any exchange costs more than the join it feeds.

Two planning realities, both learned the hard way:

* A table *without* statistics must never be treated as empty.  The original
  planner estimated unknown inputs at 0 rows and broadcast them
  unconditionally — a 0-byte broadcast of a potentially huge table.
  :data:`UNKNOWN_ROWS` is the conservative sentinel: an unknown side is never
  broadcastable, so the join shuffles unless the *other* side is provably
  small.  Under adaptive execution the runtime later replaces the guess with
  the observed size (see :mod:`repro.engine.runtime.adaptive`).
* The plan annotation is an *intent*, not a record of what ran: the executor
  runs the serial operator whenever the *observed* inputs call for it (small,
  single partition, cross join, empty) and — with AQE — revises the strategy
  from observed sizes.
  :class:`PhysicalPlan` therefore tracks the initial and the executed strategy
  per join, so ``counts(executed=True)`` always reconciles with the
  ``shuffle_joins`` / ``broadcast_joins`` execution metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.catalog import Catalog
from repro.engine.ops import (
    AggregateNode,
    EmptyNode,
    LimitNode,
    Operation as PlanNode,
    OperationVisitor,
    SubqueryNode,
    TableScanNode,
    UnionNode,
)
from repro.engine.runtime.partitioned import BYTES_PER_VALUE

#: Spark's default ``spark.sql.autoBroadcastJoinThreshold``.
DEFAULT_BROADCAST_THRESHOLD = 10 * 1024 * 1024

#: Hard cap on the *observed* materialized size of a broadcast build side.
#: The broadcast threshold above is advisory and estimate-driven; this limit
#: is the memory-safety backstop checked by the executor against the build
#: relation that actually materialized — a broadcast whose build side exceeds
#: it is demoted to a shuffle regardless of what any planner decided
#: (analogous to driver/executor memory limits bounding Spark broadcasts).
DEFAULT_BROADCAST_MEMORY_LIMIT = 256 * 1024 * 1024

#: Joins whose two inputs together hold fewer rows than this run as the serial
#: operator on the calling thread: no partitioning, no pool task, no merge.
#: Chosen by measurement on ``benchmarks/suite`` (sf=3 store, 2 partitions,
#: one 10 s run per cell at reference speed; ``0`` partitions every join, as
#: before the rule existed):
#:
#: ======  =======================================  ======================================
#: bound   ``basic_selective`` queries/s            ``scan_heavy`` queries/s
#:         (partitioned joins of 705, replans)      (partitioned joins of 449, replans)
#: ======  =======================================  ======================================
#: 0       604  (385, 158)                          203  (381, 101)
#: 256     716  (1, 0)                              249  (74, 0)
#: 1 024   723  (0, 0)                              247  (13, 1)
#: 4 096   745  (0, 0)                              261  (2, 0)
#: 16 384  734  (0, 0)                              258  (0, 0)
#: ======  =======================================  ======================================
#:
#: Everything from 256 up is within run-to-run spread (~3 %) of everything
#: else; 1 024 is the smallest bound that inlines every ``basic_selective``
#: join while ``scan_heavy`` still runs 13 partitioned joins per pass, so the
#: benchmark keeps a workload on each side of the rule.  Tests that need the
#: partitioned operators on hand-sized inputs patch this constant (the
#: ``force_partitioned_joins`` fixture in ``tests/conftest.py``); it is
#: deliberately not a session knob.
SMALL_JOIN_ROWS = 1024

#: Cardinality sentinel for inputs the catalog knows nothing about.  An
#: unknown side is treated as arbitrarily large for broadcast decisions
#: (never broadcast), the exact opposite of the old 0-row default.
UNKNOWN_ROWS = -1


def _format_rows(rows: int) -> str:
    return "?" if rows == UNKNOWN_ROWS else str(rows)


@dataclass(frozen=True)
class JoinStrategy:
    """A physical join decision for one logical join node."""

    #: Shared join key columns (empty for a cross join).
    keys: Tuple[str, ...]
    #: Input cardinalities that drove the decision: catalog estimates for the
    #: initial plan (:data:`UNKNOWN_ROWS` when statistics are missing),
    #: observed row counts for strategies revised or recorded at run time.
    left_rows: int
    right_rows: int

    @property
    def name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        raise NotImplementedError

    def same_decision(self, other: "JoinStrategy") -> bool:
        """True when ``other`` encodes the same physical choice (ignoring rows)."""
        return self.name == other.name and getattr(self, "build_side", None) == getattr(
            other, "build_side", None
        )


@dataclass(frozen=True)
class ShuffleHashJoin(JoinStrategy):
    """Re-partition both sides on the join keys, join partition-wise."""

    def describe(self) -> str:
        keys = ", ".join(self.keys) if self.keys else "<cross>"
        return (
            f"ShuffleHashJoin(keys=[{keys}], left~{_format_rows(self.left_rows)} rows, "
            f"right~{_format_rows(self.right_rows)} rows)"
        )


@dataclass(frozen=True)
class BroadcastHashJoin(JoinStrategy):
    """Ship the small (build) side to every partition of the other side."""

    build_side: str = "right"  # "left" or "right"

    def describe(self) -> str:
        keys = ", ".join(self.keys) if self.keys else "<cross>"
        return (
            f"BroadcastHashJoin(build={self.build_side}, keys=[{keys}], "
            f"left~{_format_rows(self.left_rows)} rows, right~{_format_rows(self.right_rows)} rows)"
        )


@dataclass(frozen=True)
class SerialJoin(JoinStrategy):
    """The serial operator on the calling thread: no exchange at all.

    Planned (``reason="small input"``) when both inputs together are under
    :data:`SMALL_JOIN_ROWS`, and recorded by the executor whenever a join ran
    serially — small observed inputs, a single-partition runtime, a cross
    join, or an empty side.  Recording it as the *executed* strategy keeps
    :meth:`PhysicalPlan.counts` honest: a join annotated ``BroadcastHashJoin``
    that never broadcast anything does not inflate the broadcast column.
    """

    reason: str = ""

    def describe(self) -> str:
        keys = ", ".join(self.keys) if self.keys else "<cross>"
        return (
            f"SerialJoin(keys=[{keys}], reason={self.reason or 'fallback'}, "
            f"left~{_format_rows(self.left_rows)} rows, right~{_format_rows(self.right_rows)} rows)"
        )


class PhysicalPlan:
    """Join-strategy annotations for one logical plan.

    Nodes are identified by object identity, which is safe because the
    annotations never outlive the compiled plan they were derived from.

    Every join carries two annotations: the *initial* strategy chosen by the
    static planner from catalog estimates, and (once the plan has run) the
    *executed* strategy the runtime actually applied — which differs when
    adaptive execution replanned the join from observed sizes or when the
    executor fell back to the serial operator.
    """

    def __init__(self) -> None:
        self._node_order: List[int] = []
        self._initial: Dict[int, JoinStrategy] = {}
        self._executed: Dict[int, JoinStrategy] = {}

    def annotate(self, node: PlanNode, strategy: JoinStrategy) -> None:
        node_id = id(node)
        if node_id not in self._initial:
            self._node_order.append(node_id)
        self._initial[node_id] = strategy

    def record_executed(self, node: PlanNode, strategy: JoinStrategy) -> None:
        """Record the strategy the runtime actually applied to ``node``."""
        self._executed[id(node)] = strategy

    def strategy_for(self, node: PlanNode) -> Optional[JoinStrategy]:
        """The initial (statically planned) strategy for ``node``."""
        return self._initial.get(id(node))

    def executed_strategy_for(self, node: PlanNode) -> Optional[JoinStrategy]:
        return self._executed.get(id(node))

    def strategies(self) -> List[JoinStrategy]:
        """Initial join strategies in bottom-up planning order."""
        return [self._initial[node_id] for node_id in self._node_order]

    def executed_strategies(self) -> List[JoinStrategy]:
        """Executed strategies in planning order (initial where nothing ran)."""
        return [
            self._executed.get(node_id, self._initial[node_id])
            for node_id in self._node_order
        ]

    def replans(self) -> List[Tuple[JoinStrategy, JoinStrategy]]:
        """All ``(initial, executed)`` pairs whose physical decision differs.

        Includes both AQE revisions (shuffle demoted to broadcast, broadcast
        promoted to shuffle, build side flipped) and serial fallbacks.
        """
        out: List[Tuple[JoinStrategy, JoinStrategy]] = []
        for node_id in self._node_order:
            executed = self._executed.get(node_id)
            if executed is not None and not executed.same_decision(self._initial[node_id]):
                out.append((self._initial[node_id], executed))
        return out

    def describe(self, executed: bool = False) -> List[str]:
        chosen = self.executed_strategies() if executed else self.strategies()
        return [strategy.describe() for strategy in chosen]

    def counts(self, executed: bool = False) -> Dict[str, int]:
        counts: Dict[str, int] = {"ShuffleHashJoin": 0, "BroadcastHashJoin": 0}
        chosen = self.executed_strategies() if executed else self.strategies()
        for strategy in chosen:
            counts[strategy.name] = counts.get(strategy.name, 0) + 1
        return counts


class _RowEstimator(OperationVisitor):
    """Cardinality estimation as a visitor over the plan IR.

    Unary operators default to their child's estimate via
    :meth:`generic_visit`; only the nodes with a sharper rule override it.
    Every node is visited exactly once, children first — so, given a
    :class:`PhysicalPlan`, the same walk annotates each join from the two
    estimates it has just computed (:func:`plan_join_strategies`).
    """

    def __init__(self, physical: Optional["PhysicalPlan"] = None, threshold: int = 0) -> None:
        self.physical = physical
        self.threshold = threshold

    def generic_visit(self, node: PlanNode, catalog: Catalog, use_observed: bool) -> int:
        children = node.children()
        if len(children) == 1:
            # Filters, projections, distinct and sorts keep the child estimate.
            return self.visit(children[0], catalog, use_observed)
        return 0

    def visit_empty(self, node: EmptyNode, catalog: Catalog, use_observed: bool) -> int:
        return 0

    def visit_table_scan(self, node: TableScanNode, catalog: Catalog, use_observed: bool) -> int:
        return _base_rows(node.table_name, catalog, use_observed)

    def visit_subquery(self, node: SubqueryNode, catalog: Catalog, use_observed: bool) -> int:
        rows = _base_rows(node.table_name, catalog, use_observed)
        if rows == UNKNOWN_ROWS:
            # Selections cannot refine an unknown base cardinality.
            return UNKNOWN_ROWS
        statistics = catalog.statistics(node.table_name)
        for column, _ in node.conditions:
            distinct = 0
            if statistics is not None:
                distinct = statistics.distinct_subjects if column == "s" else statistics.distinct_objects
            rows = rows // max(1, distinct) if distinct else max(1, rows // 10)
        return rows

    def _visit_join(self, node: PlanNode, catalog: Catalog, use_observed: bool) -> int:
        left = self.visit(node.left, catalog, use_observed)
        right = self.visit(node.right, catalog, use_observed)
        if self.physical is not None:
            left_columns = node.left.output_columns()
            right_columns = node.right.output_columns()
            self.physical.annotate(
                node,
                choose_join_strategy(
                    tuple(c for c in left_columns if c in right_columns),
                    left,
                    right,
                    _estimated_bytes(left, len(left_columns)),
                    _estimated_bytes(right, len(right_columns)),
                    self.threshold,
                    outer=node.is_outer_join,
                ),
            )
        if UNKNOWN_ROWS in (left, right):
            return UNKNOWN_ROWS
        return max(left, right)

    visit_natural_join = _visit_join
    visit_left_outer_join = _visit_join

    def visit_union(self, node: UnionNode, catalog: Catalog, use_observed: bool) -> int:
        left = self.visit(node.left, catalog, use_observed)
        right = self.visit(node.right, catalog, use_observed)
        if UNKNOWN_ROWS in (left, right):
            return UNKNOWN_ROWS
        return left + right

    def visit_limit(self, node: LimitNode, catalog: Catalog, use_observed: bool) -> int:
        child_rows = self.visit(node.child, catalog, use_observed)
        if node.limit is None:
            return child_rows
        # LIMIT bounds even an unknown input.
        return node.limit if child_rows == UNKNOWN_ROWS else min(child_rows, node.limit)

    def visit_aggregate(self, node: AggregateNode, catalog: Catalog, use_observed: bool) -> int:
        # Grouping cannot grow the input, so the child estimate is the bound;
        # implicit grouping always yields exactly one row.
        child_rows = self.visit(node.child, catalog, use_observed)
        return child_rows if node.group_keys else 1


_ROW_ESTIMATOR = _RowEstimator()


def estimate_rows(node: PlanNode, catalog: Catalog, use_observed: bool = True) -> int:
    """Bottom-up cardinality estimate from catalog statistics.

    Deliberately simple, in the spirit of Spark's pre-CBO size estimation:
    base cardinalities come from table statistics, equality selections divide
    by the distinct count of the constrained column, joins take the larger
    input (conservative for FK-style RDF joins) and unions add up.

    With ``use_observed`` (the default), observed cardinalities recorded by
    adaptive execution (:meth:`~repro.engine.catalog.Catalog.record_observed`)
    take precedence over static statistics, so repeated queries plan from
    truth even when the statistics are stale.  Non-adaptive executors pass
    ``use_observed=False`` so their plans depend on the static statistics
    alone — an ``adaptive_enabled=False`` session is reproducible even when
    an adaptive session already populated the shared catalog's cache.  A
    table with neither statistics nor a usable observation estimates to
    :data:`UNKNOWN_ROWS` — *not* 0 — and unknown propagates up through joins
    and unions.
    """
    return _ROW_ESTIMATOR.visit(node, catalog, use_observed)


def _base_rows(table_name: str, catalog: Catalog, use_observed: bool) -> int:
    if use_observed:
        observed = catalog.observed_rows(table_name)
        if observed is not None:
            return observed
    statistics = catalog.statistics(table_name)
    return statistics.row_count if statistics is not None else UNKNOWN_ROWS


def _estimated_bytes(rows: int, columns: int) -> Optional[int]:
    """Estimated exchange size; ``None`` when the cardinality is unknown."""
    if rows == UNKNOWN_ROWS:
        return None
    return rows * max(1, columns) * BYTES_PER_VALUE


def plan_join_strategies(
    plan: PlanNode,
    catalog: Catalog,
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
    use_observed: bool = True,
) -> PhysicalPlan:
    """Annotate every join in ``plan`` with a physical strategy.

    Below :data:`SMALL_JOIN_ROWS` estimated input rows the join is planned
    without an exchange (:class:`SerialJoin`); above it the decision rule
    mirrors Spark SQL: broadcast when the candidate build
    side's estimated size is *known* and at or below ``broadcast_threshold``,
    shuffle otherwise.  An unknown-size side is never a broadcast candidate.
    For a left outer join only the right side is broadcastable (broadcasting
    the preserved side would lose unmatched rows); a join without shared keys
    degenerates to a broadcast nested-loop join of the smaller (or only
    known-size) side, as in Spark.  ``use_observed`` means what it means to
    :func:`estimate_rows` (non-adaptive executors pass ``False``).  One
    bottom-up walk: each subtree is estimated once, whatever the plan depth.
    """
    physical = PhysicalPlan()
    _RowEstimator(physical, broadcast_threshold).visit(plan, catalog, use_observed)
    return physical


def _fits(size_bytes: Optional[int], threshold: int) -> bool:
    return size_bytes is not None and size_bytes <= threshold


def _smaller_side(left_bytes: Optional[int], right_bytes: Optional[int]) -> str:
    """Pick a build side preferring known-and-smaller; ties go left."""
    if left_bytes is None and right_bytes is None:
        return "left"
    if left_bytes is None:
        return "right"
    if right_bytes is None:
        return "left"
    return "left" if left_bytes <= right_bytes else "right"


def is_small_join(left_rows: int, right_rows: int) -> bool:
    """True when both (known) inputs together are under :data:`SMALL_JOIN_ROWS`."""
    return (
        left_rows != UNKNOWN_ROWS
        and right_rows != UNKNOWN_ROWS
        and left_rows + right_rows < SMALL_JOIN_ROWS
    )


def choose_join_strategy(
    keys: Tuple[str, ...],
    left_rows: int,
    right_rows: int,
    left_bytes: Optional[int],
    right_bytes: Optional[int],
    threshold: int,
    outer: bool,
) -> JoinStrategy:
    """The one serial/broadcast/shuffle decision rule, shared by both planners.

    The static planner calls this with *estimated* sizes (:data:`UNKNOWN_ROWS`
    / ``None`` for unknown cardinalities); the adaptive planner calls it with
    *observed* sizes at the join's materialization boundary.  Keeping a single
    rule guarantees an adaptive revision is exactly what the static planner
    would have chosen with perfect statistics — any future change to the
    decision (e.g. a broadcast memory guard) applies to both automatically.

    Three outcomes, cheapest first: no exchange (:class:`SerialJoin`) when
    both inputs together are small, a broadcast when one side fits the
    threshold, a shuffle otherwise.
    """
    if is_small_join(left_rows, right_rows):
        return SerialJoin(keys, left_rows, right_rows, reason="small input")
    if outer:
        # Only the non-preserved (right) side is broadcastable: broadcasting
        # the preserved side would lose unmatched rows.
        if _fits(right_bytes, threshold) or not keys:
            return BroadcastHashJoin(keys, left_rows, right_rows, build_side="right")
        return ShuffleHashJoin(keys, left_rows, right_rows)
    if not keys:
        # A cross join has no shuffle alternative: broadcast the side most
        # likely to be small (the only known side, or the smaller estimate).
        return BroadcastHashJoin(
            keys, left_rows, right_rows, build_side=_smaller_side(left_bytes, right_bytes)
        )
    if _fits(left_bytes, threshold) or _fits(right_bytes, threshold):
        build_side = _smaller_side(
            left_bytes if _fits(left_bytes, threshold) else None,
            right_bytes if _fits(right_bytes, threshold) else None,
        )
        return BroadcastHashJoin(keys, left_rows, right_rows, build_side=build_side)
    return ShuffleHashJoin(keys, left_rows, right_rows)
