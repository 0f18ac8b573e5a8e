"""SQLite oracle: lowers plan IR trees to parameterized SQL and runs them.

The engine (:mod:`repro.engine.plan`) evaluates plans in-process.  This
module is an independent evaluator of the same IR for the tests: a
:class:`~repro.engine.ops.OperationVisitor` that
lowers each operator to a SQL fragment, plus a :class:`SqliteExecutor` that
loads the referenced catalog tables into an in-memory ``sqlite3`` database
and runs the lowered statement.  It exists to *cross-check* the native
operators — the differential harness asserts bag-equality between both
engines on generated workloads — so fidelity to native semantics trumps SQL
elegance throughout.

Encoding
--------
RDF terms are stored as their N3 surface text (``IRI.n3()`` is injective, so
SQL equality/grouping/DISTINCT on the text column coincides with term
identity), unbound variables as ``NULL``.  Result cells are decoded back via
:func:`~repro.rdf.terms.term_from_string`; aggregate outputs are plain
numbers in both engines and pass through unchanged.

Expression semantics
--------------------
SPARQL filter evaluation errors (unbound variable, type mismatch, division
by zero) must reject the row, exactly like
:meth:`~repro.sparql.expressions.Expression.evaluate_truth`.  The lowering
maps "error" to SQL ``NULL``: registered UDFs (``rdf_value``, ``rdf_cmp``,
``rdf_arith``, ...) return ``NULL`` on any error or ``NULL`` input, and every
truth position is wrapped in ``COALESCE(rdf_ebv(...), 0)`` so errors become
``FALSE``.  Ordering matches :meth:`Relation.order_by`: each key is rendered
as ``(col IS NULL) dir, col dir`` — N3 text sorts like the native
``_sortable`` key (numbers first, then terms by their N3 text) because
SQLite orders numbers before text and compares text bytewise (UTF-8 byte
order is code-point order).
"""

from __future__ import annotations

import re
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import (
    AggregateNode,
    AggregateSpec,
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
from repro.engine.plan import NodeExecution
from repro.engine.relation import Relation, aggregate_value
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rdf.terms import Term, term_from_string
from repro.sparql.expressions import (
    Arithmetic,
    And,
    Bound,
    Comparison,
    Expression,
    ExpressionVisitor,
    FunctionCall,
    Not,
    Or,
    TermExpression,
    VariableExpression,
    _ARITHMETIC_OPS,
    _COMPARISON_OPS,
    _term_value,
)

__all__ = ["SqliteExecutor", "register_rdf_functions", "to_sqlite_sql"]


def _quote(name: str) -> str:
    """Quote an identifier for SQLite (tables, columns, aliases)."""
    return '"' + str(name).replace('"', '""') + '"'


def _encode(value: Any) -> Any:
    """Encode a relation cell for storage: terms as N3 text, None as NULL."""
    if value is None:
        return None
    if isinstance(value, Term):
        return value.n3()
    return value


def _decode(value: Any) -> Any:
    """Decode a result cell: N3 text back to a term, numbers unchanged."""
    if isinstance(value, str):
        return term_from_string(value)
    return value


# ---------------------------------------------------------------------- #
# Registered SQL functions.  Scalar UDFs receive already-evaluated SQL
# values; ``NULL`` stands for "evaluation error" and is propagated.
# ---------------------------------------------------------------------- #
def _udf_value(encoded: Any) -> Any:
    """``rdf_value(col)``: the comparable Python value of a stored term."""
    if encoded is None:
        return None
    decoded = _decode(encoded)
    if isinstance(decoded, Term):
        return _term_value(decoded)
    return decoded


def _udf_ebv(value: Any) -> Optional[int]:
    """Effective boolean value; idempotent on 0/1/NULL truth renders."""
    if value is None:
        return None
    return int(bool(value))


def _udf_cmp(operator: str, left: Any, right: Any) -> Optional[int]:
    if left is None or right is None:
        return None
    try:
        return int(_COMPARISON_OPS[operator](left, right))
    except TypeError:
        return None  # mixed-type order comparison errors, as in evaluate()


def _udf_arith(operator: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    try:
        return _ARITHMETIC_OPS[operator](left, right)
    except (TypeError, ZeroDivisionError):
        return None


def _udf_regex(*args: Any) -> Optional[int]:
    if len(args) < 2 or any(argument is None for argument in args):
        return None
    flags = 0
    if len(args) > 2 and "i" in str(args[2]):
        flags = re.IGNORECASE
    return int(re.search(str(args[1]), str(args[0]), flags) is not None)


def _udf_str(value: Any) -> Optional[str]:
    if value is None:
        return None
    return str(value)


class _RdfAggregate:
    """Base of the custom aggregates; defers to :func:`aggregate_value`.

    ``NULL`` arguments are skipped in ``step`` (native aggregation excludes
    ``None`` cells) and ``DISTINCT`` is left to SQLite, which dedups the
    encoded N3 text — the same equivalence classes as native term identity.
    """

    function = ""

    def __init__(self) -> None:
        self._values: List[Any] = []

    def step(self, value: Any) -> None:
        if value is not None:
            self._values.append(value)

    def finalize(self) -> Any:
        decoded = [_decode(value) for value in self._values]
        return _encode(aggregate_value(self.function, decoded, False))


class _RdfSum(_RdfAggregate):
    function = "sum"


class _RdfAvg(_RdfAggregate):
    function = "avg"


class _RdfMin(_RdfAggregate):
    function = "min"


class _RdfMax(_RdfAggregate):
    function = "max"


class _RdfCountDistinctRows:
    """``COUNT(DISTINCT *)``: distinct full rows, ``NULL`` cells included."""

    def __init__(self) -> None:
        self._rows: Set[Tuple[Any, ...]] = set()

    def step(self, *values: Any) -> None:
        self._rows.add(values)

    def finalize(self) -> int:
        return len(self._rows)


def register_rdf_functions(connection: sqlite3.Connection) -> None:
    """Install the RDF helper functions on a SQLite connection."""
    connection.create_function("rdf_value", 1, _udf_value, deterministic=True)
    connection.create_function("rdf_ebv", 1, _udf_ebv, deterministic=True)
    connection.create_function("rdf_cmp", 3, _udf_cmp, deterministic=True)
    connection.create_function("rdf_arith", 3, _udf_arith, deterministic=True)
    connection.create_function("rdf_regex", -1, _udf_regex, deterministic=True)
    connection.create_function("rdf_str", 1, _udf_str, deterministic=True)
    connection.create_aggregate("rdf_sum", 1, _RdfSum)
    connection.create_aggregate("rdf_avg", 1, _RdfAvg)
    connection.create_aggregate("rdf_min", 1, _RdfMin)
    connection.create_aggregate("rdf_max", 1, _RdfMax)
    connection.create_aggregate("rdf_count_distinct_rows", -1, _RdfCountDistinctRows)


# ---------------------------------------------------------------------- #
# Expression lowering.
# ---------------------------------------------------------------------- #
class _SqliteExpression(ExpressionVisitor):
    """Renders a filter expression as a SQL *value* (term-value domain).

    Every render yields the same Python value ``evaluate()`` would produce,
    or ``NULL`` where ``evaluate()`` would raise.  Truth positions wrap the
    value in ``COALESCE(rdf_ebv(...), 0)`` — since ``rdf_ebv`` is idempotent
    on 0/1/NULL, one value renderer covers both value and truth contexts.
    """

    def __init__(self, columns: Sequence[str], params: List[Any]) -> None:
        self.columns = set(columns)
        self.params = params

    def value(self, expression: Expression) -> str:
        return self.visit(expression)

    def truth(self, expression: Expression) -> str:
        return f"COALESCE(rdf_ebv({self.value(expression)}), 0)"

    # -- leaves ---------------------------------------------------------- #
    def visit_variable(self, expression: VariableExpression) -> str:
        name = expression.variable.name
        if name in self.columns:
            return f"rdf_value({_quote(name)})"
        return "NULL"  # unbound variable: evaluation error

    def visit_term(self, expression: TermExpression) -> str:
        self.params.append(_term_value(expression.term))
        return "?"

    # -- operators ------------------------------------------------------- #
    def visit_comparison(self, expression: Comparison) -> str:
        left = self.value(expression.left)
        right = self.value(expression.right)
        return f"rdf_cmp('{expression.operator}', {left}, {right})"

    def visit_arithmetic(self, expression: Arithmetic) -> str:
        left = self.value(expression.left)
        right = self.value(expression.right)
        return f"rdf_arith('{expression.operator}', {left}, {right})"

    def visit_and(self, expression: And) -> str:
        return f"({self.truth(expression.left)} AND {self.truth(expression.right)})"

    def visit_or(self, expression: Or) -> str:
        return f"({self.truth(expression.left)} OR {self.truth(expression.right)})"

    def visit_not(self, expression: Not) -> str:
        return f"(NOT {self.truth(expression.operand)})"

    def visit_bound(self, expression: Bound) -> str:
        name = expression.variable.name
        if name in self.columns:
            return f"({_quote(name)} IS NOT NULL)"
        return "0"

    def visit_function_call(self, expression: FunctionCall) -> str:
        name = expression.name.lower()
        if name == "regex" and len(expression.arguments) >= 2:
            rendered = ", ".join(self.value(a) for a in expression.arguments[:3])
            return f"rdf_regex({rendered})"
        if name == "str" and expression.arguments:
            return f"rdf_str({self.value(expression.arguments[0])})"
        if name == "bound" and expression.arguments:
            argument = expression.arguments[0]
            if isinstance(argument, VariableExpression):
                return self.visit_bound(Bound(argument.variable))
        return "NULL"  # unsupported function: evaluation error


# ---------------------------------------------------------------------- #
# Plan lowering.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Fragment:
    """A lowered subtree: SQL text, bind parameters, output schema.

    ``order`` is the *pending* sort: ``ORDER BY`` inside a subquery does not
    survive SQL operators above it (``SELECT DISTINCT`` in particular), so
    sort keys propagate up the fragments and are applied where they matter —
    at the first ``LIMIT`` above them, and once more at the statement root.
    """

    sql: str
    params: Tuple[Any, ...]
    columns: Tuple[str, ...]
    order: Tuple[Tuple[str, bool], ...] = ()


def _render_order(keys: Sequence[Tuple[str, bool]]) -> str:
    if not keys:
        return ""
    rendered = []
    for column, ascending in keys:
        direction = "ASC" if ascending else "DESC"
        # Mirrors Relation.order_by's (value is None, _sortable(value)) key:
        # NULLs last ascending, first descending.
        rendered.append(f"({_quote(column)} IS NULL) {direction}, {_quote(column)} {direction}")
    return " ORDER BY " + ", ".join(rendered)


class _SqliteLowering(OperationVisitor):
    """Lowers an operation tree to a :class:`_Fragment` bottom-up."""

    # -- leaves ---------------------------------------------------------- #
    def visit_table_scan(self, node: TableScanNode) -> _Fragment:
        select = ", ".join(_quote(c) for c in node.columns) or "NULL"
        return _Fragment(
            f"SELECT {select} FROM {_quote(node.table_name)}", (), node.columns
        )

    def visit_subquery(self, node: SubqueryNode) -> _Fragment:
        select = ", ".join(
            f"{_quote(column)} AS {_quote(alias)}" for column, alias in node.projections
        )
        sql = f"SELECT {select or 'NULL'} FROM {_quote(node.table_name)}"
        params: List[Any] = []
        if node.conditions:
            predicates = []
            for column, value in node.conditions:
                predicates.append(f"{_quote(column)} = ?")
                params.append(_encode(value))
            sql += " WHERE " + " AND ".join(predicates)
        return _Fragment(sql, tuple(params), node.output_columns())

    def visit_empty(self, node: EmptyNode) -> _Fragment:
        select = ", ".join(f"NULL AS {_quote(c)}" for c in node.columns) or "NULL"
        return _Fragment(f"SELECT {select} WHERE 0", (), node.columns)

    # -- joins ----------------------------------------------------------- #
    def _join(self, node, keyword: str) -> Tuple[_Fragment, Tuple[str, ...]]:
        left = self.visit(node.left)
        right = self.visit(node.right)
        shared = tuple(c for c in left.columns if c in right.columns)
        select = [f"l.{_quote(c)} AS {_quote(c)}" for c in left.columns]
        select += [
            f"r.{_quote(c)} AS {_quote(c)}" for c in right.columns if c not in shared
        ]
        # IS is SQLite's null-safe equality; the native hash join matches
        # None keys against None keys, so plain = would diverge.
        on = " AND ".join(f"l.{_quote(c)} IS r.{_quote(c)}" for c in shared) or "1"
        columns = left.columns + tuple(c for c in right.columns if c not in shared)
        sql = (
            f"SELECT {', '.join(select) or 'NULL'} FROM ({left.sql}) AS l "
            f"{keyword} ({right.sql}) AS r ON {on}"
        )
        fragment = _Fragment(sql, left.params + right.params, columns)
        return fragment, tuple(c for c in right.columns if c not in left.columns)

    def visit_natural_join(self, node: NaturalJoinNode) -> _Fragment:
        fragment, _ = self._join(node, "JOIN")
        return fragment

    def visit_left_outer_join(self, node: LeftOuterJoinNode) -> _Fragment:
        fragment, right_only = self._join(node, "LEFT JOIN")
        if node.expression is None or not right_only:
            # With no right-only column the native filter keeps every row
            # (it cannot distinguish matched from unmatched rows).
            return fragment
        expression_params: List[Any] = []
        renderer = _SqliteExpression(fragment.columns, expression_params)
        predicate = renderer.truth(node.expression)
        null_test = " AND ".join(f"{_quote(c)} IS NULL" for c in right_only)
        sql = (
            f"SELECT * FROM ({fragment.sql}) AS t "
            f"WHERE ({null_test}) OR {predicate}"
        )
        return _Fragment(sql, fragment.params + tuple(expression_params), fragment.columns)

    def visit_union(self, node: UnionNode) -> _Fragment:
        left = self.visit(node.left)
        right = self.visit(node.right)
        columns = left.columns + tuple(c for c in right.columns if c not in left.columns)

        def side(fragment: _Fragment) -> str:
            items = [
                f"{_quote(c)} AS {_quote(c)}" if c in fragment.columns else f"NULL AS {_quote(c)}"
                for c in columns
            ]
            select = ", ".join(items) or "NULL"
            return f"SELECT {select} FROM ({fragment.sql}) AS t"

        sql = f"{side(left)} UNION ALL {side(right)}"
        return _Fragment(sql, left.params + right.params, columns)

    # -- unary operators -------------------------------------------------- #
    def visit_filter(self, node: FilterNode) -> _Fragment:
        child = self.visit(node.child)
        expression_params: List[Any] = []
        renderer = _SqliteExpression(child.columns, expression_params)
        predicate = renderer.truth(node.expression)
        sql = f"SELECT * FROM ({child.sql}) AS t WHERE {predicate}"
        return _Fragment(sql, child.params + tuple(expression_params), child.columns, child.order)

    def visit_project(self, node: ProjectNode) -> _Fragment:
        child = self.visit(node.child)
        unique: List[str] = []
        for column in node.columns:
            if column not in unique:
                unique.append(column)
        items = [
            f"{_quote(c)} AS {_quote(c)}" if c in child.columns else f"NULL AS {_quote(c)}"
            for c in unique
        ]
        select = ", ".join(items) or "NULL"
        # Sort keys survive only while their columns do; truncate at the
        # first dropped key, as any key after it can no longer break ties
        # the same way.
        order: List[Tuple[str, bool]] = []
        for column, ascending in child.order:
            if column not in unique:
                break
            order.append((column, ascending))
        sql = f"SELECT {select} FROM ({child.sql}) AS t"
        return _Fragment(sql, child.params, tuple(unique), tuple(order))

    def visit_distinct(self, node: DistinctNode) -> _Fragment:
        child = self.visit(node.child)
        sql = f"SELECT DISTINCT * FROM ({child.sql}) AS t"
        return _Fragment(sql, child.params, child.columns, child.order)

    def visit_order_by(self, node: OrderByNode) -> _Fragment:
        # Pure pass-through: the sort becomes pending and is rendered where
        # it is observable (LIMIT and the statement root).
        child = self.visit(node.child)
        return _Fragment(child.sql, child.params, child.columns, tuple(node.keys) + child.order)

    def visit_limit(self, node: LimitNode) -> _Fragment:
        child = self.visit(node.child)
        order_clause = _render_order(child.order)
        sql = f"SELECT * FROM ({child.sql}) AS t{order_clause} LIMIT ? OFFSET ?"
        limit = -1 if node.limit is None else node.limit
        return _Fragment(
            sql, child.params + (limit, node.offset), child.columns, child.order
        )

    def visit_aggregate(self, node: AggregateNode) -> _Fragment:
        child = self.visit(node.child)
        items = []
        for key in node.group_keys:
            reference = _quote(key) if key in child.columns else "NULL"
            items.append(f"{reference} AS {_quote(key)}")
        for spec in node.aggregates:
            items.append(f"{self._aggregate_call(spec, child.columns)} AS {_quote(spec.alias)}")
        select = ", ".join(items) or "NULL"
        group = ""
        if node.group_keys:
            group = " GROUP BY " + ", ".join(_quote(k) for k in node.group_keys)
        sql = f"SELECT {select} FROM ({child.sql}) AS t{group}"
        return _Fragment(sql, child.params, node.output_columns())

    @staticmethod
    def _aggregate_call(spec: AggregateSpec, columns: Tuple[str, ...]) -> str:
        if spec.function == "count" and spec.column is None and spec.distinct:
            references = ", ".join(_quote(c) for c in columns) or "NULL"
            call = f"rdf_count_distinct_rows({references})"
            # Custom aggregates yield NULL over zero rows (finalize is never
            # consulted); the implicit empty group must still count 0.
            return f"CASE WHEN COUNT(*) = 0 THEN 0 ELSE {call} END"
        reference = "NULL"
        if spec.column is not None and spec.column in columns:
            reference = _quote(spec.column)
        if spec.function == "count":
            if spec.column is None:
                return "COUNT(*)"
            return f"COUNT(DISTINCT {reference})" if spec.distinct else f"COUNT({reference})"
        argument = f"DISTINCT {reference}" if spec.distinct else reference
        call = f"rdf_{spec.function}({argument})"
        if spec.function in ("sum", "avg"):
            # SPARQL sums/averages the empty group to 0, never NULL.
            return f"CASE WHEN COUNT(*) = 0 THEN 0 ELSE {call} END"
        return call


_LOWERING = _SqliteLowering()


def to_sqlite_sql(plan: Operation) -> Tuple[str, Tuple[Any, ...]]:
    """Lower a plan to one executable SQLite statement plus bind parameters."""
    fragment = _LOWERING.visit(plan)
    sql = fragment.sql
    if fragment.order:
        sql = f"SELECT * FROM ({sql}) AS t{_render_order(fragment.order)}"
    return sql, fragment.params


# ---------------------------------------------------------------------- #
# The executor.
# ---------------------------------------------------------------------- #
class SqliteExecutor:
    """Executes logical plans by lowering them to SQL on in-memory SQLite.

    Catalog tables referenced by a plan's scan nodes are loaded lazily on
    first use (terms encoded as N3 text) and cached for the lifetime of the
    connection; :meth:`invalidate` drops the cache after dataset updates.
    The public surface mirrors :class:`~repro.engine.plan.PlanExecutor`
    (``execute``/``last_node_stats``), so a test runs one plan on both.
    """

    def __init__(
        self,
        catalog: Catalog,
        tracer: Optional[Tracer] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.catalog = catalog
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = metrics_registry
        self._connection: Optional[sqlite3.Connection] = None
        self._loaded: Dict[str, int] = {}
        #: Observations of the most recent statement, keyed by ``id(node)``.
        #: SQLite executes the whole statement at once, so only the root
        #: node carries an observation.
        self.last_node_stats: Dict[int, NodeExecution] = {}
        #: The last lowered statement, for EXPLAIN-style introspection.
        self.last_sql: Optional[str] = None

    # ------------------------------------------------------------------ #
    def connection(self) -> sqlite3.Connection:
        if self._connection is None:
            # ``check_same_thread=False``: each executor instance serves one
            # thread's queries, but the owning session invalidates and closes
            # every instance from whichever thread mutates or closes the
            # store (always with no query in flight on this connection).
            self._connection = sqlite3.connect(":memory:", check_same_thread=False)
            register_rdf_functions(self._connection)
        return self._connection

    def invalidate(self) -> None:
        """Drop all loaded tables (call after the underlying store changed)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        self._loaded.clear()

    def close(self) -> None:
        self.invalidate()

    # ------------------------------------------------------------------ #
    def _ensure_table(self, name: str) -> None:
        if name in self._loaded:
            return
        relation = self.catalog.table(name)
        connection = self.connection()
        # Untyped columns get no affinity, so N3 text is stored verbatim.
        columns = ", ".join(_quote(c) for c in relation.columns) or _quote("__void")
        connection.execute(f"CREATE TABLE {_quote(name)} ({columns})")
        if relation.columns:
            placeholders = ", ".join("?" for _ in relation.columns)
            connection.executemany(
                f"INSERT INTO {_quote(name)} VALUES ({placeholders})",
                (tuple(_encode(value) for value in row) for row in relation.rows),
            )
        self._loaded[name] = len(relation)

    def execute(self, plan: Operation, metrics: Optional[ExecutionMetrics] = None) -> Relation:
        metrics = metrics if metrics is not None else ExecutionMetrics()
        self.last_node_stats = {}
        scans = [node for node in plan.walk() if node.is_scan]
        with self.tracer.span("sqlite-load", category="operator", tables=len(scans)):
            for node in scans:
                self._ensure_table(node.table_name)
        fragment = _LOWERING.visit(plan)
        sql = fragment.sql
        if fragment.order:
            sql = f"SELECT * FROM ({sql}) AS t{_render_order(fragment.order)}"
        self.last_sql = sql
        start = time.perf_counter()
        with self.tracer.span("sqlite-execute", category="operator") as span:
            cursor = self.connection().execute(sql, fragment.params)
            columns = fragment.columns
            width = len(columns)
            rows = [tuple(_decode(value) for value in row[:width]) for row in cursor.fetchall()]
            span.set(rows=len(rows))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        for node in scans:
            metrics.record_scan(node.table_name, self._loaded[node.table_name])
        relation = Relation(columns, rows)
        metrics.output_tuples = len(relation)
        self.last_node_stats[id(plan)] = NodeExecution(rows=len(relation), elapsed_ms=elapsed_ms)
        if self.registry is not None:
            self.registry.observe("s2rdf_sqlite_statement_ms", elapsed_ms)
        return relation
