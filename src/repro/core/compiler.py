"""Full SPARQL-to-SQL compiler (Sec. 6 of the paper).

BGPs are compiled through :func:`repro.core.bgp.compile_bgp`; the remaining
SPARQL 1.0 operators map to their relational counterparts: ``FILTER`` to a
selection, ``OPTIONAL`` to a left outer join, ``UNION`` to a bag union,
``DISTINCT`` / ``ORDER BY`` / ``LIMIT`` / ``OFFSET`` to their SQL equivalents
and the ``SELECT`` clause to a projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.bgp import BGPCompilationResult, compile_bgp
from repro.core.table_selection import TableSelector
from repro.engine.strategies import PhysicalPlan
from repro.obs.trace import NULL_TRACER, Tracer
from repro.engine.ops import (
    AggregateNode,
    AggregateSpec,
    DistinctNode,
    FilterNode,
    LeftOuterJoinNode,
    LimitNode,
    NaturalJoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    UnionNode,
)
from repro.sparql.algebra import (
    BGP,
    Distinct,
    Filter,
    Join,
    LeftJoin,
    OrderBy,
    OrderCondition,
    PatternVisitor,
    Projection,
    Query,
    Slice,
    Union,
)
from repro.sparql.expressions import VariableExpression


@dataclass
class CompiledQuery:
    """A compiled query: the root plan plus per-BGP compilation details."""

    plan: PlanNode
    bgp_results: List[BGPCompilationResult] = field(default_factory=list)
    #: Spark's join annotation of the plan, when the template cache keeps one
    #: for it (see :class:`~repro.engine.strategies.PhysicalPlan`); a derived
    #: value, so not part of equality.
    physical: Optional[PhysicalPlan] = field(default=None, compare=False, repr=False)

    @property
    def statically_empty(self) -> bool:
        """True when statistics prove every BGP empty (e.g. both UNION branches).

        A single empty branch of a UNION does not make the query empty, so all
        BGPs must be statically empty, and an absence of BGPs proves nothing.
        """
        return bool(self.bgp_results) and all(result.statically_empty for result in self.bgp_results)

    @property
    def selected_tables(self) -> List[str]:
        tables: List[str] = []
        for result in self.bgp_results:
            tables.extend(result.selected_tables)
        return tables

    def sql(self) -> str:
        return self.plan.to_sql()


class QueryCompiler(PatternVisitor):
    """Compiles parsed SPARQL queries into logical plans.

    The pattern lowering is a :class:`~repro.sparql.algebra.PatternVisitor`:
    each algebra operator dispatches to its ``visit_*`` hook, which compiles
    children via :meth:`~repro.sparql.algebra.PatternVisitor.visit` and wraps
    them in the corresponding plan IR node.  Per-BGP compilation details are
    threaded through the visit as the ``bgp_results`` accumulator.
    """

    def __init__(
        self,
        selector: TableSelector,
        optimize_join_order: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.selector = selector
        self.optimize_join_order = optimize_join_order
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------ #
    def compile(self, query: Query) -> CompiledQuery:
        bgp_results: List[BGPCompilationResult] = []
        plan = self.visit(query.pattern, bgp_results)

        if query.aggregates or query.group_by:
            plan = AggregateNode(
                plan,
                tuple(v.name for v in query.group_by),
                tuple(
                    AggregateSpec(
                        function=binding.function,
                        column=binding.variable.name if binding.variable is not None else None,
                        alias=binding.alias.name,
                        distinct=binding.distinct,
                    )
                    for binding in query.aggregates
                ),
            )
        if query.order_by:
            keys = self._order_keys(query.order_by)
            if keys:
                plan = OrderByNode(plan, keys)
        if query.select_variables:
            plan = ProjectNode(plan, tuple(v.name for v in query.select_variables))
        if query.distinct:
            # DISTINCT applies to the projected solutions (SPARQL algebra:
            # Distinct(Project(...))); our distinct preserves the sort order.
            plan = DistinctNode(plan)
        if query.limit is not None or query.offset:
            plan = LimitNode(plan, query.limit, query.offset)
        return CompiledQuery(plan=plan, bgp_results=bgp_results)

    # ------------------------------------------------------------------ #
    # Algebra visitor hooks
    # ------------------------------------------------------------------ #
    def visit_bgp(self, node: BGP, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        with self.tracer.span(
            "table-selection", category="compile", patterns=len(node.patterns)
        ) as span:
            result = compile_bgp(node, self.selector, self.optimize_join_order)
            span.set(
                selected_tables=list(result.selected_tables),
                statically_empty=result.statically_empty,
            )
        bgp_results.append(result)
        return result.plan

    def visit_filter(self, node: Filter, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        return FilterNode(self.visit(node.pattern, bgp_results), node.expression)

    def visit_join(self, node: Join, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        left = self.visit(node.left, bgp_results)
        right = self.visit(node.right, bgp_results)
        return NaturalJoinNode(left, right)

    def visit_left_join(self, node: LeftJoin, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        left = self.visit(node.left, bgp_results)
        right = self.visit(node.right, bgp_results)
        return LeftOuterJoinNode(left, right, node.expression)

    def visit_union(self, node: Union, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        left = self.visit(node.left, bgp_results)
        right = self.visit(node.right, bgp_results)
        return UnionNode(left, right)

    def visit_projection(self, node: Projection, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        child = self.visit(node.pattern, bgp_results)
        if node.variables_list:
            return ProjectNode(child, tuple(v.name for v in node.variables_list))
        return child

    def visit_distinct(self, node: Distinct, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        return DistinctNode(self.visit(node.pattern, bgp_results))

    def visit_order_by(self, node: OrderBy, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        child = self.visit(node.pattern, bgp_results)
        keys = self._order_keys(node.conditions)
        return OrderByNode(child, keys) if keys else child

    def visit_slice(self, node: Slice, bgp_results: List[BGPCompilationResult]) -> PlanNode:
        return LimitNode(self.visit(node.pattern, bgp_results), node.limit, node.offset)

    @staticmethod
    def _order_keys(conditions: Tuple[OrderCondition, ...]) -> Tuple[Tuple[str, bool], ...]:
        keys: List[Tuple[str, bool]] = []
        for condition in conditions:
            if isinstance(condition.expression, VariableExpression):
                keys.append((condition.expression.variable.name, condition.ascending))
        return tuple(keys)
