"""EXPLAIN ANALYZE rendering: the executed plan, annotated with observations.

``S2RDFSession.explain_analyze`` executes a query and feeds this module the
logical plan, the per-node observations captured by the executor, and the
row estimates the executor computed for that very tree before running it
(one walk, every operator's estimate).  The renderer draws the operator tree
with, per operator:

* estimated vs. observed rows (``est=?`` when statistics were missing —
  exactly the inputs that make a static estimate miss);
* elapsed wall-clock milliseconds (cumulative over the operator's subtree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.engine.ops import (
    AggregateNode,
    DistinctNode,
    EmptyNode,
    FilterNode,
    LimitNode,
    Operation as PlanNode,
    OperationVisitor,
    OrderByNode,
    ProjectNode,
    SubqueryNode,
    UnionNode,
)
from repro.engine.plan import NodeExecution
from repro.engine.estimates import UNKNOWN_ROWS, RowEstimates


@dataclass
class ExplainAnalyzeResult:
    """The outcome of ``explain_analyze``: the query result plus the report."""

    result: Any  # QueryResult; untyped to keep obs free of core imports.
    text: str

    def __str__(self) -> str:
        return self.text


def _format_rows(rows: Optional[int]) -> str:
    if rows is None or rows == UNKNOWN_ROWS:
        return "?"
    return str(rows)


class _NodeLabeler(OperationVisitor):
    """One-line operator labels for the explain tree."""

    def generic_visit(self, node: PlanNode) -> str:
        return type(node).__name__

    def visit_table_scan(self, node) -> str:
        return f"Scan {node.table_name}"

    def visit_subquery(self, node: SubqueryNode) -> str:
        label = f"Scan {node.table_name}"
        if node.conditions:
            conditions = ", ".join(column for column, _ in node.conditions)
            label += f" [pushdown: {conditions}]"
        return label

    def visit_empty(self, node: EmptyNode) -> str:
        return "Empty (statically pruned)"

    def _visit_join(self, node) -> str:
        left = node.left.output_columns()
        right = node.right.output_columns()
        keys = [c for c in left if c in right]
        kind = "LeftOuterJoin" if node.is_outer_join else "Join"
        return f"{kind} [{', '.join(keys)}]" if keys else f"{kind} [cross]"

    visit_natural_join = _visit_join
    visit_left_outer_join = _visit_join

    def visit_project(self, node: ProjectNode) -> str:
        return f"Project [{', '.join(node.columns)}]"

    def visit_filter(self, node: FilterNode) -> str:
        return f"Filter [{node.expression.to_sql()}]"

    def visit_union(self, node: UnionNode) -> str:
        return "Union"

    def visit_distinct(self, node: DistinctNode) -> str:
        return "Distinct"

    def visit_order_by(self, node: OrderByNode) -> str:
        keys = ", ".join(f"{c} {'ASC' if asc else 'DESC'}" for c, asc in node.keys)
        return f"OrderBy [{keys}]"

    def visit_limit(self, node: LimitNode) -> str:
        parts = []
        if node.limit is not None:
            parts.append(f"LIMIT {node.limit}")
        if node.offset:
            parts.append(f"OFFSET {node.offset}")
        return f"Limit [{' '.join(parts) or 'all'}]"

    def visit_aggregate(self, node: AggregateNode) -> str:
        specs = ", ".join(spec.describe() for spec in node.aggregates)
        if node.group_keys:
            return f"Aggregate [group by {', '.join(node.group_keys)}; {specs}]"
        return f"Aggregate [{specs}]"


_LABELER = _NodeLabeler()


def _node_label(node: PlanNode) -> str:
    return _LABELER.visit(node)


def render_explain_analyze(
    plan: PlanNode, node_stats: Dict[int, NodeExecution], estimates: RowEstimates
) -> str:
    """Draw the annotated operator tree, root first; ``estimates`` are ``plan``'s."""
    lines: List[str] = []

    def annotate(node: PlanNode) -> str:
        est = _format_rows(estimates.rows_for(node))
        execution = node_stats.get(id(node))
        if execution is None:
            return f"(est={est} rows, not executed)"
        marker = ", vectorized" if getattr(execution, "vectorized", False) else ""
        return (
            f"(est={est} rows, actual={execution.rows} rows, "
            f"{execution.elapsed_ms:.2f} ms{marker})"
        )

    def walk(node: PlanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        lines.append(f"{prefix}{connector}{_node_label(node)}  {annotate(node)}")
        detail_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        children = list(node.children())
        for index, child in enumerate(children):
            walk(child, detail_prefix, index == len(children) - 1, False)

    walk(plan, "", True, True)
    return "\n".join(lines)
