"""Spark's join choice, kept as a costing pass over the plan IR.

Spark SQL chooses between a shuffle hash/sort-merge join and a broadcast hash
join per join operator: when one side's estimated size is below
``spark.sql.autoBroadcastJoinThreshold`` (10 MB by default), that side is
shipped whole to every executor and no shuffle of the large side is needed;
otherwise both sides are re-partitioned on the join keys.  S2RDF leaves that
decision to Spark; this module reproduces it for the logical plans of
:mod:`repro.engine.ops` as a pure annotation: :func:`plan_join_strategies`
walks a plan bottom-up, estimates per-operator cardinalities from the
catalog's static statistics and annotates every
:class:`~repro.engine.ops.NaturalJoinNode` /
:class:`~repro.engine.ops.LeftOuterJoinNode` with a :class:`ShuffleHashJoin`
or :class:`BroadcastHashJoin`.  Nothing executes differently because of it:
the executor runs every join in process, and the annotation says which join
Spark would have run.

A table *without* statistics must never be treated as empty: estimated at 0
rows it would be broadcast unconditionally — a 0-byte broadcast of a
potentially huge table.  :data:`UNKNOWN_ROWS` is the conservative sentinel:
an unknown side is never broadcastable, so the join shuffles unless the
*other* side is provably small.
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

#: Spark's default ``spark.sql.autoBroadcastJoinThreshold``.
DEFAULT_BROADCAST_THRESHOLD = 10 * 1024 * 1024

#: Rough serialized size of one term value (pointer + small dictionary-encoded
#: payload), mirroring Spark's serialized row sizes.
BYTES_PER_VALUE = 24

#: Cardinality sentinel for inputs the catalog knows nothing about.  An
#: unknown side is treated as arbitrarily large for broadcast decisions
#: (never broadcast), the exact opposite of a 0-row default.
UNKNOWN_ROWS = -1


def _format_rows(rows: int) -> str:
    return "?" if rows == UNKNOWN_ROWS else str(rows)


@dataclass(frozen=True)
class JoinStrategy:
    """A physical join decision for one logical join node."""

    #: Shared join key columns (empty for a cross join).
    keys: Tuple[str, ...]
    #: Estimated input cardinalities that drove the decision
    #: (:data:`UNKNOWN_ROWS` when statistics are missing).
    left_rows: int
    right_rows: int

    def describe(self) -> str:
        raise NotImplementedError


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


class PhysicalPlan:
    """Spark's physical view of one logical plan: a row estimate for every
    operator and a strategy for every join, from one bottom-up walk.

    Nodes are identified by object identity.  The annotation holds the plan
    it was computed from, so those identities stay unique while it lives.  It
    depends on the plan's shape and the catalog's statistics, never on a
    constant, so the template cache computes it once per plan entry and hands
    it to every query that entry answers; such a query runs that very tree,
    its constants bound at run time.  A copy ``session.compile`` hands out
    has the constants rebound into it, and the nodes above a constant are new
    objects: :meth:`strategy_for` and :meth:`rows_for` answer only for the
    tree the annotation was computed from, while :meth:`describe` and
    :attr:`root_rows` hold for every rebound copy.
    """

    def __init__(self, plan: PlanNode) -> None:
        self.plan = plan
        self._strategies: Dict[int, JoinStrategy] = {}
        self._rows: Dict[int, int] = {}
        self._described: Optional[Tuple[str, ...]] = None

    def annotate(self, node: PlanNode, strategy: JoinStrategy) -> None:
        self._strategies[id(node)] = strategy
        self._described = None

    def strategy_for(self, node: PlanNode) -> Optional[JoinStrategy]:
        return self._strategies.get(id(node))

    def rows_for(self, node: PlanNode) -> Optional[int]:
        """The estimated rows of ``node`` (:data:`UNKNOWN_ROWS` without statistics)."""
        return self._rows.get(id(node))

    @property
    def root_rows(self) -> int:
        """The estimated rows of the whole plan, :func:`estimate_rows` of its root."""
        return self._rows[id(self.plan)]

    def strategies(self) -> List[JoinStrategy]:
        """Join strategies in bottom-up planning order."""
        return list(self._strategies.values())

    def describe(self) -> List[str]:
        """One line per join, bottom-up; rendered once per annotation."""
        described = self._described
        if described is None:
            described = self._described = tuple(
                [strategy.describe() for strategy in self._strategies.values()]
            )
        return list(described)


class _RowEstimator(OperationVisitor):
    """Cardinality estimation as a visitor over the plan IR.

    Unary operators default to their child's estimate via
    :meth:`generic_visit`; only the nodes with a sharper rule override it.
    Every node is visited exactly once, children first — so, given a
    :class:`PhysicalPlan`, the same walk records every node's estimate and
    annotates each join from the two estimates it has just computed
    (:func:`plan_join_strategies`).
    """

    def __init__(self, physical: Optional[PhysicalPlan] = None) -> None:
        self.physical = physical

    def visit(self, node: PlanNode, catalog: Catalog) -> int:
        rows = node.accept(self, catalog)
        if self.physical is not None:
            self.physical._rows[id(node)] = rows
        return rows

    def generic_visit(self, node: PlanNode, catalog: Catalog) -> int:
        children = node.children()
        if len(children) == 1:
            # Filters, projections, distinct and sorts keep the child estimate.
            return self.visit(children[0], catalog)
        return 0

    def visit_empty(self, node: EmptyNode, catalog: Catalog) -> int:
        return 0

    def visit_table_scan(self, node: TableScanNode, catalog: Catalog) -> int:
        return _base_rows(node.table_name, catalog)

    def visit_subquery(self, node: SubqueryNode, catalog: Catalog) -> int:
        rows = _base_rows(node.table_name, catalog)
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

    def _visit_join(self, node: PlanNode, catalog: Catalog) -> int:
        left = self.visit(node.left, catalog)
        right = self.visit(node.right, catalog)
        if self.physical is not None:
            left_columns = node.left.output_columns()
            right_columns = node.right.output_columns()
            self.physical.annotate(
                node,
                choose_join_strategy(
                    tuple(c for c in left_columns if c in right_columns),
                    left,
                    right,
                    estimated_bytes(left, len(left_columns)),
                    estimated_bytes(right, len(right_columns)),
                    outer=node.is_outer_join,
                ),
            )
        if UNKNOWN_ROWS in (left, right):
            return UNKNOWN_ROWS
        return max(left, right)

    visit_natural_join = _visit_join
    visit_left_outer_join = _visit_join

    def visit_union(self, node: UnionNode, catalog: Catalog) -> int:
        left = self.visit(node.left, catalog)
        right = self.visit(node.right, catalog)
        if UNKNOWN_ROWS in (left, right):
            return UNKNOWN_ROWS
        return left + right

    def visit_limit(self, node: LimitNode, catalog: Catalog) -> int:
        child_rows = self.visit(node.child, catalog)
        if node.limit is None:
            return child_rows
        # LIMIT bounds even an unknown input.
        return node.limit if child_rows == UNKNOWN_ROWS else min(child_rows, node.limit)

    def visit_aggregate(self, node: AggregateNode, catalog: Catalog) -> int:
        # Grouping cannot grow the input, so the child estimate is the bound;
        # implicit grouping always yields exactly one row.
        child_rows = self.visit(node.child, catalog)
        return child_rows if node.group_keys else 1


_ROW_ESTIMATOR = _RowEstimator()


def estimate_rows(node: PlanNode, catalog: Catalog) -> int:
    """Bottom-up cardinality estimate from catalog statistics.

    Deliberately simple, in the spirit of Spark's pre-CBO size estimation:
    base cardinalities come from table statistics, equality selections divide
    by the distinct count of the constrained column, joins take the larger
    input (conservative for FK-style RDF joins) and unions add up.  A table
    without statistics estimates to :data:`UNKNOWN_ROWS` — *not* 0 — and
    unknown propagates up through joins and unions.
    """
    return _ROW_ESTIMATOR.visit(node, catalog)


def _base_rows(table_name: str, catalog: Catalog) -> int:
    statistics = catalog.statistics(table_name)
    return statistics.row_count if statistics is not None else UNKNOWN_ROWS


def estimated_bytes(rows: int, columns: int) -> Optional[int]:
    """Estimated serialized size of ``rows`` rows; ``None`` when the cardinality is unknown."""
    if rows == UNKNOWN_ROWS:
        return None
    return rows * max(1, columns) * BYTES_PER_VALUE


def fits_broadcast(size_bytes: Optional[int]) -> bool:
    """Spark's rule: a side of known size at or under the threshold is broadcast."""
    return size_bytes is not None and size_bytes <= DEFAULT_BROADCAST_THRESHOLD


def plan_join_strategies(plan: PlanNode, catalog: Catalog) -> PhysicalPlan:
    """Annotate every join in ``plan`` with the strategy Spark would pick.

    Broadcast when the candidate build side's estimated size is *known* and
    fits :data:`DEFAULT_BROADCAST_THRESHOLD`, shuffle otherwise.  An
    unknown-size side is never a broadcast candidate.  For a left outer join
    only the right side is broadcastable (broadcasting the preserved side
    would lose unmatched rows); a join without shared keys degenerates to a
    broadcast nested-loop join of the smaller (or only known-size) side, as
    in Spark.  One bottom-up walk: each subtree is estimated once, whatever
    the plan depth, and the annotation keeps every operator's estimate too.
    """
    physical = PhysicalPlan(plan)
    _RowEstimator(physical).visit(plan, catalog)
    return physical


def _smaller_side(left_bytes: Optional[int], right_bytes: Optional[int]) -> str:
    """Pick a build side preferring known-and-smaller; ties go left."""
    if left_bytes is None and right_bytes is None:
        return "left"
    if left_bytes is None:
        return "right"
    if right_bytes is None:
        return "left"
    return "left" if left_bytes <= right_bytes else "right"


def choose_join_strategy(
    keys: Tuple[str, ...],
    left_rows: int,
    right_rows: int,
    left_bytes: Optional[int],
    right_bytes: Optional[int],
    outer: bool,
) -> JoinStrategy:
    """Spark's broadcast/shuffle rule for one join, from estimated sizes.

    ``left_bytes`` / ``right_bytes`` are ``None`` for unknown cardinalities.
    """
    if outer:
        # Only the non-preserved (right) side is broadcastable: broadcasting
        # the preserved side would lose unmatched rows.
        if fits_broadcast(right_bytes) or not keys:
            return BroadcastHashJoin(keys, left_rows, right_rows, build_side="right")
        return ShuffleHashJoin(keys, left_rows, right_rows)
    if not keys:
        # A cross join has no shuffle alternative: broadcast the side most
        # likely to be small (the only known side, or the smaller estimate).
        return BroadcastHashJoin(
            keys, left_rows, right_rows, build_side=_smaller_side(left_bytes, right_bytes)
        )
    left_fits, right_fits = fits_broadcast(left_bytes), fits_broadcast(right_bytes)
    if left_fits or right_fits:
        build_side = _smaller_side(
            left_bytes if left_fits else None, right_bytes if right_fits else None
        )
        return BroadcastHashJoin(keys, left_rows, right_rows, build_side=build_side)
    return ShuffleHashJoin(keys, left_rows, right_rows)
