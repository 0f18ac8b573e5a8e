"""The plan IR: an immutable operation tree with a visitor protocol.

Every logical query plan is a tree of :class:`Operation` nodes — leaves scan
catalog tables, unary nodes transform one input, binary nodes combine two.
The design follows ``lsst-dm/daf_relation``: nodes are frozen dataclasses,
traversal is generic (:meth:`Operation.walk`, :meth:`Operation.transform`),
and *behaviour* lives in :class:`OperationVisitor` subclasses, never in the
tree.  The executor (:mod:`repro.engine.plan`), Spark's join-strategy
annotation (:mod:`repro.engine.strategies`), cardinality estimation,
``explain_analyze`` and the display SQL text rendered here are all visitors
over this one tree.

Nodes carry class-level capability flags (``is_join``, ``is_outer_join``,
``is_scan``) so visitors can branch on what a node *is* without resorting to
``isinstance`` ladders outside this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, List, Mapping, Optional, Tuple

from repro.sparql.expressions import Expression

__all__ = [
    "AggregateNode",
    "AggregateSpec",
    "BinaryOperation",
    "DistinctNode",
    "EmptyNode",
    "FilterNode",
    "LeafOperation",
    "LeftOuterJoinNode",
    "LimitNode",
    "NaturalJoinNode",
    "Operation",
    "OperationVisitor",
    "OrderByNode",
    "PlanNode",
    "ProjectNode",
    "SparkSqlRenderer",
    "SqlSkeleton",
    "SubqueryNode",
    "TableScanNode",
    "UnaryOperation",
    "UnionNode",
    "count_joins",
    "plan_depth",
]

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class Operation:
    """Base class of all logical plan operators (immutable nodes)."""

    #: Capability flags; engines branch on these instead of node classes.
    is_join = False
    is_outer_join = False
    is_scan = False
    is_sort = False

    def children(self) -> Tuple["Operation", ...]:
        return ()

    def output_columns(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        """Double-dispatch into ``visitor``; implemented per concrete node."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Generic traversal.
    # ------------------------------------------------------------------ #
    def walk(self) -> Iterator["Operation"]:
        """Pre-order iteration over the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def transform(self, fn) -> "Operation":
        """Bottom-up rebuild: ``fn`` maps each node (with already-rebuilt
        children) to its replacement.  Untouched subtrees keep their identity,
        which matters because executors annotate plans by ``id(node)``."""
        return fn(self)

    def to_sql(self, indent: int = 0) -> str:
        """Render the plan as the Spark SQL text the paper shows (Fig. 6/11)."""
        return SPARK_SQL.visit(self, indent)


#: Backwards-compatible alias — the pre-IR code base called the root class
#: ``PlanNode`` and plenty of callers (and docs) still do.
PlanNode = Operation


class LeafOperation(Operation):
    """An operation with no inputs (scans and the static-empty marker)."""


@dataclass(frozen=True)
class UnaryOperation(Operation):
    """An operation over a single input relation."""

    child: Operation

    def children(self) -> Tuple[Operation, ...]:
        return (self.child,)

    def output_columns(self) -> Tuple[str, ...]:
        return self.child.output_columns()

    def transform(self, fn) -> Operation:
        child = self.child.transform(fn)
        node = self if child is self.child else replace(self, child=child)
        return fn(node)


@dataclass(frozen=True)
class BinaryOperation(Operation):
    """An operation combining two input relations."""

    left: Operation
    right: Operation

    def children(self) -> Tuple[Operation, ...]:
        return (self.left, self.right)

    def output_columns(self) -> Tuple[str, ...]:
        left = self.left.output_columns()
        right = [c for c in self.right.output_columns() if c not in left]
        return tuple(list(left) + right)

    def transform(self, fn) -> Operation:
        left = self.left.transform(fn)
        right = self.right.transform(fn)
        node = self
        if left is not self.left or right is not self.right:
            node = replace(self, left=left, right=right)
        return fn(node)

    def shared_columns(self) -> Tuple[str, ...]:
        """Join keys: columns occurring on both sides."""
        right = self.right.output_columns()
        return tuple(c for c in self.left.output_columns() if c in right)


# ---------------------------------------------------------------------- #
# Leaves.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TableScanNode(LeafOperation):
    """Scan a whole catalog table."""

    table_name: str
    columns: Tuple[str, ...]

    is_scan = True

    def output_columns(self) -> Tuple[str, ...]:
        return self.columns

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_table_scan(self, *args)


@dataclass(frozen=True)
class SubqueryNode(LeafOperation):
    """The TP2SQL building block: project/rename + equality selections.

    ``projections`` maps physical column names (``s``/``o``/``p``) to variable
    names; ``conditions`` are equality selections on physical columns.
    """

    table_name: str
    projections: Tuple[Tuple[str, str], ...]
    conditions: Tuple[Tuple[str, Any], ...] = ()

    is_scan = True

    def output_columns(self) -> Tuple[str, ...]:
        return tuple(alias for _, alias in self.projections)

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_subquery(self, *args)


@dataclass(frozen=True)
class EmptyNode(LeafOperation):
    """A node known to produce no rows (statistics short-circuit)."""

    columns: Tuple[str, ...] = ()

    def output_columns(self) -> Tuple[str, ...]:
        return self.columns

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_empty(self, *args)


# ---------------------------------------------------------------------- #
# Binary operations.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class NaturalJoinNode(BinaryOperation):
    is_join = True

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_natural_join(self, *args)


@dataclass(frozen=True)
class LeftOuterJoinNode(BinaryOperation):
    expression: Optional[Expression] = None

    is_join = True
    is_outer_join = True

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_left_outer_join(self, *args)


@dataclass(frozen=True)
class UnionNode(BinaryOperation):
    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_union(self, *args)


# ---------------------------------------------------------------------- #
# Unary operations.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FilterNode(UnaryOperation):
    expression: Expression

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_filter(self, *args)


@dataclass(frozen=True)
class ProjectNode(UnaryOperation):
    columns: Tuple[str, ...]

    def output_columns(self) -> Tuple[str, ...]:
        return self.columns

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_project(self, *args)


@dataclass(frozen=True)
class DistinctNode(UnaryOperation):
    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_distinct(self, *args)


@dataclass(frozen=True)
class OrderByNode(UnaryOperation):
    keys: Tuple[Tuple[str, bool], ...]

    is_sort = True

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_order_by(self, *args)


@dataclass(frozen=True)
class LimitNode(UnaryOperation):
    limit: Optional[int]
    offset: int = 0

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_limit(self, *args)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a GROUP BY: ``function(column) AS alias``.

    ``column`` is ``None`` for ``COUNT(*)``.  ``distinct`` dedups the
    argument *terms* before aggregating (``COUNT(DISTINCT ?x)``).
    """

    function: str
    column: Optional[str]
    alias: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.function!r}")
        if self.column is None and self.function != "count":
            raise ValueError(f"{self.function}(*) is not defined")

    def describe(self) -> str:
        argument = f"?{self.column}" if self.column is not None else "*"
        if self.distinct:
            argument = f"DISTINCT {argument}"
        return f"{self.function}({argument}) AS ?{self.alias}"


@dataclass(frozen=True)
class AggregateNode(UnaryOperation):
    """GROUP BY ``group_keys`` computing ``aggregates`` per group.

    With no ``group_keys`` the whole input is one implicit group and exactly
    one row is produced (SPARQL's bare-aggregate form).
    """

    group_keys: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]

    def output_columns(self) -> Tuple[str, ...]:
        return self.group_keys + tuple(spec.alias for spec in self.aggregates)

    def accept(self, visitor: "OperationVisitor", *args: Any) -> Any:
        return visitor.visit_aggregate(self, *args)


# ---------------------------------------------------------------------- #
# The visitor protocol.
# ---------------------------------------------------------------------- #
class OperationVisitor:
    """Double-dispatch over the operation tree.

    Subclasses override the ``visit_*`` hooks they care about; unhandled
    nodes fall through to :meth:`generic_visit`.  Extra positional arguments
    passed to :meth:`visit` are forwarded untouched, so stateless visitors
    can thread context (metrics, indent levels, catalogs) without instance
    state.
    """

    def visit(self, node: Operation, *args: Any) -> Any:
        return node.accept(self, *args)

    def generic_visit(self, node: Operation, *args: Any) -> Any:
        raise TypeError(f"{type(self).__name__} cannot handle {type(node).__name__}")

    def visit_table_scan(self, node: TableScanNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_subquery(self, node: SubqueryNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_empty(self, node: EmptyNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_natural_join(self, node: NaturalJoinNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_left_outer_join(self, node: LeftOuterJoinNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_union(self, node: UnionNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_filter(self, node: FilterNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_project(self, node: ProjectNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_distinct(self, node: DistinctNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_order_by(self, node: OrderByNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_limit(self, node: LimitNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)

    def visit_aggregate(self, node: AggregateNode, *args: Any) -> Any:
        return self.generic_visit(node, *args)


# ---------------------------------------------------------------------- #
# Generic tree measures (shared by tests, benchmarks and reporting).
# ---------------------------------------------------------------------- #
def plan_depth(node: Operation) -> int:
    """Height of the plan tree (used in tests and ablation reporting)."""
    children = node.children()
    if not children:
        return 1
    return 1 + max(plan_depth(child) for child in children)


def count_joins(node: Operation) -> int:
    """Number of join operators in a plan."""
    return sum(1 for n in node.walk() if n.is_join)


# ---------------------------------------------------------------------- #
# The display SQL dialect (Spark SQL text, as in the paper's figures).
# ---------------------------------------------------------------------- #
def _sql_value(value: Any) -> str:
    if hasattr(value, "n3"):
        return "'" + value.n3().replace("'", "''") + "'"
    if isinstance(value, (int, float)):
        return str(value)
    return "'" + str(value).replace("'", "''") + "'"


def _indent(text: str, indent: int) -> str:
    # "\n" only: str.splitlines() also breaks at "\r", "\x0b", "\u2028" ...,
    # which a constant's N3 keeps as they are, inside its quotes.
    prefix = "  " * indent
    return "\n".join(prefix + line for line in text.split("\n"))


class SparkSqlRenderer(OperationVisitor):
    """Renders a plan as indented Spark-style SQL text (display dialect).

    This is the human-facing rendering used by ``QueryResult.sql`` and the
    paper-style figures; nothing executes it.
    """

    def visit_table_scan(self, node: TableScanNode, indent: int = 0) -> str:
        return _indent(f"SELECT {', '.join(node.columns)} FROM {node.table_name}", indent)

    def visit_subquery(self, node: SubqueryNode, indent: int = 0) -> str:
        select_list = ", ".join(f"{column} AS {alias}" for column, alias in node.projections)
        sql = f"SELECT {select_list or 1} FROM {node.table_name}"
        if node.conditions:
            rendered = " AND ".join(
                f"{column} = {self.constant(value, indent)}" for column, value in node.conditions
            )
            sql += f" WHERE {rendered}"
        return _indent(sql, indent)

    def constant(self, value: Any, indent: int) -> str:
        """A scan's equality constant, written at nesting depth ``indent``."""
        return _sql_value(value)

    def visit_empty(self, node: EmptyNode, indent: int = 0) -> str:
        return _indent("SELECT * FROM (VALUES ) AS empty -- statically empty", indent)

    def visit_natural_join(self, node: NaturalJoinNode, indent: int = 0) -> str:
        shared = node.shared_columns()
        using = f" USING ({', '.join(shared)})" if shared else " -- cross join"
        return (
            _indent("SELECT * FROM (", indent)
            + "\n"
            + self.visit(node.left, indent + 1)
            + "\n"
            + _indent(") AS lhs JOIN (", indent)
            + "\n"
            + self.visit(node.right, indent + 1)
            + "\n"
            + _indent(f") AS rhs{using}", indent)
        )

    def visit_left_outer_join(self, node: LeftOuterJoinNode, indent: int = 0) -> str:
        shared = node.shared_columns()
        using = f" USING ({', '.join(shared)})" if shared else ""
        condition = f" -- filter: {node.expression.to_sql()}" if node.expression is not None else ""
        return (
            _indent("SELECT * FROM (", indent)
            + "\n"
            + self.visit(node.left, indent + 1)
            + "\n"
            + _indent(") AS lhs LEFT OUTER JOIN (", indent)
            + "\n"
            + self.visit(node.right, indent + 1)
            + "\n"
            + _indent(f") AS rhs{using}{condition}", indent)
        )

    def visit_union(self, node: UnionNode, indent: int = 0) -> str:
        return (
            self.visit(node.left, indent)
            + "\n"
            + _indent("UNION ALL", indent)
            + "\n"
            + self.visit(node.right, indent)
        )

    def visit_filter(self, node: FilterNode, indent: int = 0) -> str:
        return (
            _indent("SELECT * FROM (", indent)
            + "\n"
            + self.visit(node.child, indent + 1)
            + "\n"
            + _indent(f") AS filtered WHERE {node.expression.to_sql()}", indent)
        )

    def visit_project(self, node: ProjectNode, indent: int = 0) -> str:
        return (
            _indent(f"SELECT {', '.join(node.columns)} FROM (", indent)
            + "\n"
            + self.visit(node.child, indent + 1)
            + "\n"
            + _indent(") AS projected", indent)
        )

    def visit_distinct(self, node: DistinctNode, indent: int = 0) -> str:
        return (
            _indent("SELECT DISTINCT * FROM (", indent)
            + "\n"
            + self.visit(node.child, indent + 1)
            + "\n"
            + _indent(") AS dedup", indent)
        )

    def visit_order_by(self, node: OrderByNode, indent: int = 0) -> str:
        rendered = ", ".join(
            f"{column} {'ASC' if ascending else 'DESC'}" for column, ascending in node.keys
        )
        return (
            _indent("SELECT * FROM (", indent)
            + "\n"
            + self.visit(node.child, indent + 1)
            + "\n"
            + _indent(f") AS ordered ORDER BY {rendered}", indent)
        )

    def visit_limit(self, node: LimitNode, indent: int = 0) -> str:
        clause = ""
        if node.limit is not None:
            clause += f" LIMIT {node.limit}"
        if node.offset:
            clause += f" OFFSET {node.offset}"
        return (
            _indent("SELECT * FROM (", indent)
            + "\n"
            + self.visit(node.child, indent + 1)
            + "\n"
            + _indent(f") AS sliced{clause}", indent)
        )

    def visit_aggregate(self, node: AggregateNode, indent: int = 0) -> str:
        rendered = []
        rendered.extend(node.group_keys)
        for spec in node.aggregates:
            argument = spec.column if spec.column is not None else "*"
            if spec.distinct:
                argument = f"DISTINCT {argument}"
            rendered.append(f"{spec.function.upper()}({argument}) AS {spec.alias}")
        group = f" GROUP BY {', '.join(node.group_keys)}" if node.group_keys else ""
        return (
            _indent(f"SELECT {', '.join(rendered)} FROM (", indent)
            + "\n"
            + self.visit(node.child, indent + 1)
            + "\n"
            + _indent(f") AS grouped{group}", indent)
        )


#: Shared stateless renderer instance behind ``Operation.to_sql``.
SPARK_SQL = SparkSqlRenderer()


# ---------------------------------------------------------------------- #
# SQL skeletons: one rendering per cached plan, filled per query.
# ---------------------------------------------------------------------- #
#: Written where a scan constant goes while a skeleton is rendered.
_SLOT = "\x00"


class _SlotRenderer(SparkSqlRenderer):
    """Writes :data:`_SLOT` for every scan constant, noting each constant and
    its depth in text order."""

    def __init__(self) -> None:
        self.slots: List[Tuple[Any, int]] = []

    def constant(self, value: Any, indent: int) -> str:
        self.slots.append((value, indent))
        return _SLOT


class _BoundRenderer(SparkSqlRenderer):
    """Writes each scan constant as ``binding`` resolves it."""

    def __init__(self, binding: Optional[Mapping[int, Any]]) -> None:
        self.binding = binding or {}

    def constant(self, value: Any, indent: int) -> str:
        return _sql_value(self.binding.get(id(value), value))


class SqlSkeleton:
    """A plan's SQL text, cut at its scans' constants.

    A cached plan runs with other constants as a *binding* (``id(constant in
    the plan) -> the value to use instead``), and its text differs from the
    plan's own only where those constants are written.  So the plan is
    rendered once, on the first :meth:`render`, with a marker in each
    constant's place, and split there; every later call joins the fragments
    with the constants of its binding — the very text of the plan rebuilt
    with them.  A plan whose text holds the marker elsewhere (a NUL in a
    FILTER literal) is rendered whole, through the binding, every time.
    """

    __slots__ = ("plan", "_cut")

    def __init__(self, plan: Operation) -> None:
        self.plan = plan
        #: (fragments, (constant, indent) per slot), or ``None`` before the
        #: first render; fragments are ``None`` when the cut failed.
        self._cut: Optional[Tuple[Optional[List[str]], List[Tuple[Any, int]]]] = None

    def render(self, binding: Optional[Mapping[int, Any]] = None) -> str:
        """The text of the plan with ``binding``'s constants in it."""
        cut = self._cut
        if cut is None:
            renderer = _SlotRenderer()
            fragments: Optional[List[str]] = renderer.visit(self.plan, 0).split(_SLOT)
            if len(fragments) != len(renderer.slots) + 1:
                fragments = None
            cut = self._cut = (fragments, renderer.slots)
        fragments, slots = cut
        if fragments is None:
            return _BoundRenderer(binding).visit(self.plan, 0)
        parts = [fragments[0]]
        for (constant, indent), fragment in zip(slots, fragments[1:]):
            if binding is not None:
                constant = binding.get(id(constant), constant)
            value = _sql_value(constant)
            if "\n" in value:  # _indent puts the depth after every line break
                value = value.replace("\n", "\n" + "  " * indent)
            parts.append(value)
            parts.append(fragment)
        return "".join(parts)
