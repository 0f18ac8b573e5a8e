"""Unit tests for logical plans, the catalog and metrics."""

import pytest

from repro.core.session import S2RDFSession
from repro.engine.catalog import Catalog, TableNotFoundError
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import (
    DistinctNode,
    EmptyNode,
    FilterNode,
    LeftOuterJoinNode,
    LimitNode,
    NaturalJoinNode,
    OrderByNode,
    ProjectNode,
    SubqueryNode,
    TableScanNode,
    UnionNode,
    count_joins,
    plan_depth,
)
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triple import Triple
from repro.sparql.expressions import Comparison, TermExpression, VariableExpression


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.register("follows", Relation(("s", "o"), [(IRI("A"), IRI("B")), (IRI("B"), IRI("C"))]))
    catalog.register("likes", Relation(("s", "o"), [(IRI("A"), IRI("I1")), (IRI("C"), IRI("I2"))]))
    catalog.register(
        "ages", Relation(("s", "o"), [(IRI("A"), Literal("30")), (IRI("B"), Literal("10"))])
    )
    return catalog


@pytest.fixture
def executor():
    """The engine over the ``catalog`` fixture's rows, stated as triples and
    served from the store image of a session built from them."""
    triples = [
        Triple.of("A", "follows", "B"),
        Triple.of("B", "follows", "C"),
        Triple.of("A", "likes", "I1"),
        Triple.of("C", "likes", "I2"),
        Triple(IRI("A"), IRI("ages"), Literal("30")),
        Triple(IRI("B"), IRI("ages"), Literal("10")),
    ]
    return PlanExecutor(S2RDFSession.from_graph(Graph(triples)).layout.catalog)


class TestCatalog:
    def test_register_and_lookup(self, catalog):
        assert "follows" in catalog
        assert len(catalog.table("follows")) == 2

    def test_missing_table(self, catalog):
        with pytest.raises(TableNotFoundError):
            catalog.table("nope")

    def test_statistics(self, catalog):
        statistics = catalog.statistics("follows")
        assert statistics.row_count == 2
        assert statistics.distinct_subjects == 2

    def test_statistics_only_registration(self, catalog):
        catalog.register_statistics_only("ghost", 0, 0.0)
        assert "ghost" not in catalog
        assert catalog.statistics("ghost").is_empty

    def test_totals(self, catalog):
        assert catalog.total_tuples() == 6
        assert catalog.table_count() == 3

    def test_drop(self, catalog):
        catalog.drop("ages")
        assert "ages" not in catalog


class TestPlanExecution:
    def test_table_scan(self, executor):
        result = executor.execute(TableScanNode("vp_follows", ("s", "o")))
        assert len(result) == 2

    def test_subquery_projection_and_rename(self, executor):
        node = SubqueryNode("vp_follows", projections=(("s", "x"), ("o", "y")))
        result = executor.execute(node)
        assert result.columns == ("x", "y")

    def test_subquery_condition(self, executor):
        node = SubqueryNode("vp_follows", projections=(("o", "y"),), conditions=(("s", IRI("A")),))
        result = executor.execute(node)
        assert result.rows == [(IRI("B"),)]

    def test_natural_join_node(self, executor):
        left = SubqueryNode("vp_follows", projections=(("s", "x"), ("o", "y")))
        right = SubqueryNode("vp_likes", projections=(("s", "y"), ("o", "w")))
        result = executor.execute(NaturalJoinNode(left, right))
        assert set(result.columns) == {"x", "y", "w"}

    def test_left_outer_join_node(self, executor):
        left = SubqueryNode("vp_follows", projections=(("s", "x"), ("o", "y")))
        right = SubqueryNode("vp_ages", projections=(("s", "y"), ("o", "age")))
        result = executor.execute(LeftOuterJoinNode(left, right))
        assert len(result) == 2
        ages = dict(zip(result.column_values("y"), result.column_values("age")))
        assert ages[IRI("C")] is None

    def test_left_outer_join_with_filter_expression(self, executor):
        left = SubqueryNode("vp_follows", projections=(("s", "x"), ("o", "y")))
        right = SubqueryNode("vp_ages", projections=(("s", "y"), ("o", "age")))
        expression = Comparison(">", VariableExpression(Variable("age")), TermExpression(Literal("20")))
        result = executor.execute(LeftOuterJoinNode(left, right, expression))
        ages = dict(zip(result.column_values("y"), result.column_values("age")))
        # B's age (10) fails the filter so the optional part is dropped but the row survives?
        # No: per SPARQL semantics the row is removed because the optional matched and the filter failed.
        assert IRI("C") in ages  # unmatched optional stays
        assert all(a is None or a == Literal("30") for a in ages.values())

    def test_filter_node(self, executor):
        scan = SubqueryNode("vp_ages", projections=(("s", "x"), ("o", "age")))
        expression = Comparison(">", VariableExpression(Variable("age")), TermExpression(Literal("20")))
        result = executor.execute(FilterNode(scan, expression))
        assert len(result) == 1

    def test_union_distinct_order_limit(self, executor):
        scan = SubqueryNode("vp_follows", projections=(("s", "x"),))
        union = UnionNode(scan, scan)
        distinct = DistinctNode(union)
        ordered = OrderByNode(distinct, (("x", True),))
        limited = LimitNode(ordered, 1)
        assert len(executor.execute(union)) == 4
        assert len(executor.execute(distinct)) == 2
        assert executor.execute(limited).rows == [(IRI("A"),)]

    def test_project_node_pads_missing_columns(self, executor):
        scan = SubqueryNode("vp_follows", projections=(("s", "x"),))
        result = executor.execute(ProjectNode(scan, ("x", "missing")))
        assert result.columns == ("x", "missing")
        assert all(row[1] is None for row in result.rows)

    def test_empty_node(self, executor):
        result = executor.execute(EmptyNode(("a", "b")))
        assert len(result) == 0
        assert result.columns == ("a", "b")

    def test_metrics_recorded(self, executor):
        metrics = ExecutionMetrics()
        left = SubqueryNode("vp_follows", projections=(("s", "x"), ("o", "y")))
        right = SubqueryNode("vp_likes", projections=(("s", "y"), ("o", "w")))
        executor.execute(NaturalJoinNode(left, right), metrics)
        assert metrics.table_scans == 2
        assert metrics.joins == 1
        assert metrics.input_tuples == 4

    def test_plan_helpers(self):
        left = SubqueryNode("follows", projections=(("s", "x"),))
        right = SubqueryNode("likes", projections=(("s", "x"),))
        plan = NaturalJoinNode(left, right)
        assert count_joins(plan) == 1
        assert plan_depth(plan) == 2

    def test_to_sql_contains_tables_and_aliases(self):
        node = SubqueryNode("vp_likes", projections=(("s", "x"), ("o", "w")), conditions=(("o", IRI("I2")),))
        sql = node.to_sql()
        assert "FROM vp_likes" in sql
        assert "s AS x" in sql
        assert "WHERE" in sql


class TestMetrics:
    def test_merge(self):
        first = ExecutionMetrics(input_tuples=5, joins=1)
        second = ExecutionMetrics(input_tuples=3, joins=2)
        first.merge(second)
        assert first.input_tuples == 8
        assert first.joins == 3

    def test_scaled(self):
        metrics = ExecutionMetrics(input_tuples=10, shuffled_tuples=4, join_comparisons=2, joins=3, stages=5)
        scaled = metrics.scaled(10.0)
        assert scaled.input_tuples == 100
        assert scaled.shuffled_tuples == 40
        assert scaled.joins == 3  # structural counters unchanged
        assert scaled.stages == 5

    def test_scaled_contract_regression(self):
        # The scaling contract: data-proportional counters (incl. the
        # per-table map) scale; structural counters and observed wall-clock
        # timings (critical_path_ms) are copied unchanged.
        metrics = ExecutionMetrics(
            input_tuples=10,
            critical_path_ms=12.5,
            joins=2,
            vectorized_batches=3,
        )
        metrics.scanned_tables = {"vp_follows": 10, "vp_likes": 4}
        scaled = metrics.scaled(3.0)
        assert scaled.critical_path_ms == 12.5  # measured time, never scaled
        assert scaled.joins == 2
        assert scaled.vectorized_batches == 3
        assert scaled.scanned_tables == {"vp_follows": 30, "vp_likes": 12}
        # The original is untouched (scaled() returns a copy).
        assert metrics.scanned_tables == {"vp_follows": 10, "vp_likes": 4}

    def test_as_dict_keys(self):
        keys = set(ExecutionMetrics().as_dict())
        assert {"input_tuples", "shuffled_tuples", "join_comparisons", "output_tuples"} <= keys

    def test_as_dict_includes_scanned_tables_and_aqe_counters(self):
        metrics = ExecutionMetrics(store_segments_pruned=4)
        metrics.record_scan("vp_follows", 7)
        report = metrics.as_dict()
        assert report["scanned_tables"] == {"vp_follows": 7}
        assert report["store_segments_pruned"] == 4
        # The benchmark suite's per-layer probe reads these three by name.
        assert report["aqe_replans"] == report["shuffled_bytes"] == report["broadcast_bytes"] == 0
        # The report owns its map: mutating it must not leak back.
        report["scanned_tables"]["vp_follows"] = 0
        assert metrics.scanned_tables == {"vp_follows": 7}

    def test_merge_and_copy_cover_aqe_counters(self):
        first = ExecutionMetrics(aqe_replans=1, shuffled_bytes=10, broadcast_bytes=100)
        second = ExecutionMetrics(aqe_replans=2, shuffled_bytes=20, broadcast_bytes=200)
        first.merge(second)
        assert (first.aqe_replans, first.shuffled_bytes, first.broadcast_bytes) == (3, 30, 300)
        clone = first.copy()
        assert (clone.aqe_replans, clone.shuffled_bytes, clone.broadcast_bytes) == (3, 30, 300)
        # Bytes scale with the data; a replan count is structural.
        scaled = first.scaled(2.0)
        assert (scaled.aqe_replans, scaled.shuffled_bytes, scaled.broadcast_bytes) == (3, 60, 600)
