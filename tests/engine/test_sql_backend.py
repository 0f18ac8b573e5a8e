"""Unit tests for the sqlite oracle (`sqlite_oracle.py` beside this file):
statement shapes, the rdf_* UDF error semantics and executor
caching/invalidation."""

import sqlite3

import pytest

from engine.extvp_reference import reference_layout
from engine.sqlite_oracle import SqliteExecutor, register_rdf_functions, to_sqlite_sql
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    LimitNode,
    OrderByNode,
    SubqueryNode,
)
from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Variable
from repro.rdf.triple import Triple
from repro.sparql.expressions import Comparison, TermExpression, VariableExpression


def bag(relation):
    return sorted(map(repr, relation.rows))


def small_graph() -> Graph:
    return Graph(
        [
            Triple.of("A", "follows", "B"),
            Triple.of("B", "follows", "C"),
            Triple.of("B", "follows", "D"),
            Triple.of("C", "follows", "D"),
            Triple.of("A", "likes", "I1"),
            Triple.of("A", "likes", "I2"),
            Triple.of("C", "likes", "I2"),
        ]
    )


@pytest.fixture(scope="module")
def layout():
    """The graph's tables as relations of terms, what the oracle reads."""
    return reference_layout(small_graph())


def scan(table: str = "vp_follows") -> SubqueryNode:
    return SubqueryNode(table_name=table, projections=(("s", "x"), ("o", "y")))


class TestLowering:
    def test_scan_with_condition_is_parameterized(self):
        node = SubqueryNode(
            table_name="vp_follows",
            projections=(("s", "x"),),
            conditions=(("o", IRI("D")),),
        )
        sql, params = to_sqlite_sql(node)
        assert '"o" = ?' in sql
        assert params == ("<D>",)  # encoded N3 text, never inlined

    def test_filter_truth_is_error_guarded(self):
        predicate = Comparison(
            "<", VariableExpression(Variable("y")), TermExpression(IRI("C"))
        )
        sql, _ = to_sqlite_sql(FilterNode(child=scan(), expression=predicate))
        assert "COALESCE(rdf_ebv(" in sql  # error -> NULL -> FALSE

    def test_order_is_deferred_to_the_statement_root(self):
        node = LimitNode(
            child=OrderByNode(child=scan(), keys=(("y", False),)), limit=2
        )
        sql, params = to_sqlite_sql(node)
        assert 'ORDER BY ("y" IS NULL) DESC, "y" DESC' in sql
        assert "LIMIT ?" in sql and params[-2:] == (2, 0)

    def test_pending_order_survives_to_root_without_limit(self):
        sql, _ = to_sqlite_sql(OrderByNode(child=scan(), keys=(("x", True),)))
        assert sql.rstrip().endswith('ORDER BY ("x" IS NULL) ASC, "x" ASC')


class TestUdfSemantics:
    @pytest.fixture()
    def connection(self):
        connection = sqlite3.connect(":memory:")
        register_rdf_functions(connection)
        yield connection
        connection.close()

    def one(self, connection, expression, params=()):
        return connection.execute(f"SELECT {expression}", params).fetchone()[0]

    def test_comparison_type_error_is_null(self, connection):
        assert self.one(connection, "rdf_cmp('<', 1, 'text')") is None
        assert self.one(connection, "rdf_cmp('<', 1, 2)") == 1

    def test_null_operands_propagate(self, connection):
        assert self.one(connection, "rdf_cmp('=', NULL, 1)") is None
        assert self.one(connection, "rdf_arith('+', NULL, 1)") is None

    def test_division_by_zero_is_null(self, connection):
        assert self.one(connection, "rdf_arith('/', 1, 0)") is None

    def test_ebv_coalesce_rejects_errors(self, connection):
        assert self.one(connection, "COALESCE(rdf_ebv(rdf_cmp('<', 1, 'x')), 0)") == 0

    def test_regex_flags(self, connection):
        assert self.one(connection, "rdf_regex('Hello', 'hello')") == 0
        assert self.one(connection, "rdf_regex('Hello', 'hello', 'i')") == 1
        assert self.one(connection, "rdf_regex(NULL, 'x')") is None

    def test_empty_group_aggregates(self, connection):
        connection.execute("CREATE TABLE t (v)")
        # sqlite never calls a custom aggregate's finalize over zero rows, so
        # the lowering guards SUM/AVG with COUNT(*) — SPARQL's empty SUM is 0.
        assert self.one(connection, "rdf_sum(v) FROM t") is None  # raw UDF
        node = AggregateNode(
            child=SubqueryNode(table_name="empty", projections=(("s", "x"),)),
            group_keys=(),
            aggregates=(AggregateSpec(function="sum", column="x", alias="total"),),
        )
        sql, _ = to_sqlite_sql(node)
        assert "CASE WHEN COUNT(*) = 0 THEN 0 ELSE" in sql


class TestExecutor:
    def test_matches_native_executor(self, layout):
        plan = scan()
        with S2RDFSession.from_graph(small_graph(), selectivity_threshold=1.0) as session:
            native = session.executor.execute(plan, ExecutionMetrics())
        executor = SqliteExecutor(layout.catalog)
        try:
            result = executor.execute(plan, ExecutionMetrics())
            assert result.columns == native.columns
            assert bag(result) == bag(native)
        finally:
            executor.close()

    def test_scan_metrics_and_node_stats(self, layout):
        executor = SqliteExecutor(layout.catalog)
        try:
            plan = scan()
            metrics = ExecutionMetrics()
            result = executor.execute(plan, metrics)
            assert metrics.output_tuples == len(result)
            assert "vp_follows" in metrics.scanned_tables
            stats = executor.last_node_stats[id(plan)]
            assert stats.rows == len(result)
        finally:
            executor.close()

    def test_tables_load_once_until_invalidated(self, layout):
        executor = SqliteExecutor(layout.catalog)
        try:
            executor.execute(scan(), ExecutionMetrics())
            assert "vp_follows" in executor._loaded
            connection = executor._connection
            executor.execute(scan(), ExecutionMetrics())
            assert executor._connection is connection  # cached, not rebuilt
            executor.invalidate()
            assert executor._loaded == {} and executor._connection is None
            executor.execute(scan(), ExecutionMetrics())  # reloads cleanly
            assert "vp_follows" in executor._loaded
        finally:
            executor.close()
