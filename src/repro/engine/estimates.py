"""Cardinality estimates over the plan IR, from the catalog's static statistics.

:class:`RowEstimates` walks a plan bottom-up once and keeps every operator's
estimated rows: the journal records the root's (``estimated_rows`` and its
q-error against the rows the query returned) and ``explain_analyze`` draws
each operator's next to what it produced.  Nothing executes differently
because of them.

A table *without* statistics is never estimated as empty: :data:`UNKNOWN_ROWS`
is the sentinel, and it propagates up through joins and unions (only a LIMIT
bounds it).
"""

from __future__ import annotations

from typing import Dict, Optional

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

#: Cardinality sentinel for inputs the catalog knows nothing about, the
#: opposite of a 0-row default.
UNKNOWN_ROWS = -1


class RowEstimates:
    """The estimated rows of every operator of one plan, from one bottom-up walk.

    Nodes are identified by object identity.  The estimates hold the plan
    they were computed from, so those identities stay unique while they
    live.  They depend on the plan's shape and the catalog's statistics,
    never on a constant, so the template cache computes them once per plan
    entry and hands them to every query that entry answers; such a query
    runs that very tree, its constants bound at run time.  A copy
    ``session.compile`` hands out has the constants rebound into it, and the
    nodes above a constant are new objects: :meth:`rows_for` answers only
    for the tree the estimates were computed from, while :attr:`root_rows`
    holds for every rebound copy.
    """

    def __init__(self, plan: PlanNode, catalog: Catalog) -> None:
        self.plan = plan
        self._rows: Dict[int, int] = {}
        #: The estimated rows of the whole plan, :func:`estimate_rows` of its root.
        self.root_rows = _RowEstimator(self._rows).visit(plan, catalog)

    def rows_for(self, node: PlanNode) -> Optional[int]:
        """The estimated rows of ``node`` (:data:`UNKNOWN_ROWS` without statistics)."""
        return self._rows.get(id(node))


class _RowEstimator(OperationVisitor):
    """Cardinality estimation as a visitor over the plan IR.

    Unary operators default to their child's estimate via
    :meth:`generic_visit`; only the nodes with a sharper rule override it.
    Every node is visited exactly once, children first, and its estimate is
    recorded into ``rows`` when one is given (:class:`RowEstimates`).
    """

    def __init__(self, rows: Optional[Dict[int, int]] = None) -> None:
        self.rows = rows

    def visit(self, node: PlanNode, catalog: Catalog) -> int:
        rows = node.accept(self, catalog)
        if self.rows is not None:
            self.rows[id(node)] = rows
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
