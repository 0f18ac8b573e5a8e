"""Spark's join choice as a costing pass: static estimates, the broadcast /
shuffle rule, the unknown-statistics sentinel, and the annotation the
executor reports without running anything differently."""

import pytest

from repro.core.session import S2RDFSession
from repro.engine.catalog import Catalog, ScanResult, TableStatistics
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import LeftOuterJoinNode, LimitNode, NaturalJoinNode, SubqueryNode, TableScanNode
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.engine.strategies import (
    BYTES_PER_VALUE,
    DEFAULT_BROADCAST_THRESHOLD,
    UNKNOWN_ROWS,
    BroadcastHashJoin,
    ShuffleHashJoin,
    choose_join_strategy,
    estimate_rows,
    estimated_bytes,
    fits_broadcast,
    plan_join_strategies,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple

#: Far above what :data:`DEFAULT_BROADCAST_THRESHOLD` lets Spark broadcast.
HUGE = 10_000_000


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@pytest.fixture()
def catalog():
    triples = [Triple(IRI(f"u{i}"), IRI("follows"), IRI(f"u{(i * 7) % 40}")) for i in range(160)]
    triples += [Triple(IRI(f"u{i}"), IRI("likes"), IRI(f"p{i % 5}")) for i in range(0, 160, 3)]
    # The tables a session built from the triples serves from its store image.
    return S2RDFSession.from_graph(Graph(triples)).layout.catalog


@pytest.fixture()
def join_plan():
    return NaturalJoinNode(
        SubqueryNode("vp_follows", (("s", "x"), ("o", "y"))),
        SubqueryNode("vp_likes", (("s", "y"), ("o", "z"))),
    )


def claim_rows(catalog: Catalog, name: str, row_count: int) -> None:
    """Overwrite a table's statistics with another cardinality (keeps the rows)."""
    catalog.register_statistics_only(name, row_count, 1.0)


class TestUnknownCardinality:
    """Missing statistics must be conservative, never a 0-row broadcast."""

    def test_missing_statistics_estimate_is_unknown(self, catalog):
        catalog.remove_statistics("vp_follows")
        assert estimate_rows(TableScanNode("vp_follows", ("s", "o")), catalog) == UNKNOWN_ROWS

    def test_unknown_propagates_through_joins(self, catalog, join_plan):
        catalog.remove_statistics("vp_follows")
        assert estimate_rows(join_plan, catalog) == UNKNOWN_ROWS

    def test_limit_bounds_unknown(self, catalog, join_plan):
        catalog.remove_statistics("vp_follows")
        assert estimate_rows(LimitNode(join_plan, 7), catalog) == 7

    def test_subquery_conditions_cannot_refine_unknown(self, catalog):
        catalog.remove_statistics("vp_likes")
        node = SubqueryNode("vp_likes", (("o", "z"),), conditions=(("s", IRI("u3")),))
        assert estimate_rows(node, catalog) == UNKNOWN_ROWS

    def test_unknown_side_is_never_broadcast(self, catalog, join_plan):
        # Estimated at 0 rows, a stats-less table would be broadcast
        # unconditionally; it must shuffle instead.
        catalog.remove_statistics("vp_follows")
        catalog.remove_statistics("vp_likes")
        (strategy,) = plan_join_strategies(join_plan, catalog).strategies()
        assert isinstance(strategy, ShuffleHashJoin)

    def test_known_small_side_still_broadcasts(self, catalog, join_plan):
        # Unknown left, tiny known right: the known side is a safe build side.
        catalog.remove_statistics("vp_follows")
        (strategy,) = plan_join_strategies(join_plan, catalog).strategies()
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.build_side == "right"
        assert strategy.left_rows == UNKNOWN_ROWS
        assert "left~? rows" in strategy.describe()

    def test_keyless_join_prefers_known_build_side(self, catalog):
        plan = NaturalJoinNode(
            SubqueryNode("vp_follows", (("s", "a"), ("o", "b"))),
            SubqueryNode("vp_likes", (("s", "c"), ("o", "d"))),
        )
        claim_rows(catalog, "vp_follows", HUGE)
        catalog.remove_statistics("vp_likes")
        (strategy,) = plan_join_strategies(plan, catalog).strategies()
        # A cross join must broadcast something; the known side is the only
        # defensible candidate, however large.
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.build_side == "left"


class TestSparkRule:
    def test_estimate_rows_from_statistics(self, catalog, join_plan):
        assert estimate_rows(TableScanNode("vp_follows", ("s", "o")), catalog) == 160
        # The join estimate is the larger input (conservative FK heuristic).
        assert estimate_rows(join_plan, catalog) == 160

    def test_broadcast_below_threshold(self, catalog, join_plan):
        (strategy,) = plan_join_strategies(join_plan, catalog).strategies()
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.build_side == "right"  # likes is the smaller side
        assert strategy.keys == ("y",)

    def test_shuffle_above_threshold(self, catalog, join_plan):
        claim_rows(catalog, "vp_follows", HUGE)
        claim_rows(catalog, "vp_likes", HUGE)
        (strategy,) = plan_join_strategies(join_plan, catalog).strategies()
        assert isinstance(strategy, ShuffleHashJoin)
        assert strategy.keys == ("y",)

    def test_threshold_cutover_is_exact(self):
        # A side broadcasts at exactly the threshold and not one byte above it.
        over = DEFAULT_BROADCAST_THRESHOLD + 1
        at = choose_join_strategy(("y",), 1, 1, over, DEFAULT_BROADCAST_THRESHOLD, outer=False)
        above = choose_join_strategy(("y",), 1, 1, over, over, outer=False)
        assert isinstance(at, BroadcastHashJoin) and at.build_side == "right"
        assert isinstance(above, ShuffleHashJoin)

    def test_left_outer_join_only_broadcasts_right(self, catalog):
        # The preserved (left) side must not be broadcast, however small: with
        # a huge right side the join shuffles.
        plan = LeftOuterJoinNode(
            SubqueryNode("vp_likes", (("s", "x"), ("o", "y"))),
            SubqueryNode("vp_follows", (("s", "x"), ("o", "z"))),
        )
        broadcast = plan_join_strategies(plan, catalog).strategies()[0]
        assert isinstance(broadcast, BroadcastHashJoin) and broadcast.build_side == "right"
        claim_rows(catalog, "vp_follows", HUGE)
        shuffle = plan_join_strategies(plan, catalog).strategies()[0]
        assert isinstance(shuffle, ShuffleHashJoin)

    def test_cross_join_degenerates_to_broadcast(self, catalog):
        plan = NaturalJoinNode(
            SubqueryNode("vp_follows", (("s", "a"), ("o", "b"))),
            SubqueryNode("vp_likes", (("s", "c"), ("o", "d"))),
        )
        claim_rows(catalog, "vp_follows", HUGE)
        claim_rows(catalog, "vp_likes", HUGE)
        (strategy,) = plan_join_strategies(plan, catalog).strategies()
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.keys == ()

    def test_estimated_bytes_scales_with_rows(self):
        assert estimated_bytes(100, 2) == 100 * estimated_bytes(1, 2) == 100 * 2 * BYTES_PER_VALUE
        assert estimated_bytes(10, 0) == estimated_bytes(10, 1)  # a row is never free
        assert estimated_bytes(UNKNOWN_ROWS, 2) is None
        assert not fits_broadcast(None)
        assert fits_broadcast(0)

    def test_describe(self, catalog, join_plan):
        claim_rows(catalog, "vp_follows", HUGE)
        claim_rows(catalog, "vp_likes", HUGE)
        physical = plan_join_strategies(join_plan, catalog)
        assert physical.describe() == [
            f"ShuffleHashJoin(keys=[y], left~{HUGE} rows, right~{HUGE} rows)"
        ]


class TestExecutorAnnotation:
    def test_execute_reports_the_plan_and_moves_no_bytes(self, catalog, join_plan):
        metrics = ExecutionMetrics()
        executor = PlanExecutor(catalog)
        executor.execute(join_plan, metrics)
        assert executor.last_physical_plan.describe() == plan_join_strategies(join_plan, catalog).describe()
        assert executor.last_plan_ms >= 0.0
        assert metrics.shuffled_bytes == metrics.broadcast_bytes == metrics.aqe_replans == 0

    def test_the_annotation_never_changes_the_rows(self, catalog, join_plan):
        honest = PlanExecutor(catalog).execute(join_plan, ExecutionMetrics())
        claim_rows(catalog, "vp_follows", HUGE)
        claim_rows(catalog, "vp_likes", HUGE)
        executor = PlanExecutor(catalog)
        annotated = executor.execute(join_plan, ExecutionMetrics())
        assert isinstance(executor.last_physical_plan.strategies()[0], ShuffleHashJoin)
        assert bag(annotated) == bag(honest)

    def test_deleted_statistics_shuffle_every_join_and_keep_the_rows(self):
        triples = [Triple(IRI(f"u{i}"), IRI("follows"), IRI(f"u{(i * 3) % 20}")) for i in range(40)]
        triples += [Triple(IRI(f"u{i}"), IRI("likes"), IRI(f"p{i % 4}")) for i in range(0, 40, 2)]
        query = "SELECT * WHERE { ?x <follows> ?y . ?y <follows> ?z . ?z <likes> ?w }"
        with S2RDFSession.from_graph(Graph(triples)) as session:
            honest = session.query(query)
            catalog = session.layout.catalog
            for name in catalog.statistics_names():
                catalog.remove_statistics(name)
            blind = session.query(query)
        assert len(honest.join_strategies) == len(blind.join_strategies) == 2
        assert all(s.startswith("BroadcastHashJoin") for s in honest.join_strategies)
        assert all(s.startswith("ShuffleHashJoin") and "~? rows" in s for s in blind.join_strategies)
        assert bag(blind.relation) == bag(honest.relation) and len(honest) > 0


class TestStoredReregistration:
    """Re-registering a stored table (an append, a compaction) drops the
    decoded rows of its previous incarnation, and planning reads the new
    statistics."""

    class _FakeProvider:
        def __init__(self, relation):
            self.relation = relation

        def read(self):
            return self.relation

        def scan(self, columns=None, conditions=None):
            return ScanResult(relation=self.relation, rows_scanned=len(self.relation))

    def test_reregister_stored_drops_decoded_cache(self):
        catalog = Catalog()
        small = Relation(("s", "o"), [(IRI("a"), IRI("b"))])
        catalog.register_stored("t", self._FakeProvider(small), TableStatistics(name="t", row_count=1))
        assert len(catalog.table("t")) == 1  # decodes and caches the rows

        grown = Relation(("s", "o"), [(IRI(f"x{i}"), IRI(f"y{i}")) for i in range(50)])
        catalog.register_stored("t", self._FakeProvider(grown), TableStatistics(name="t", row_count=50))
        assert len(catalog.table("t")) == 50  # not the stale decoded cache
        assert estimate_rows(TableScanNode("t", ("s", "o")), catalog) == 50

    def test_append_plans_from_post_append_statistics(self, tmp_path):
        triples = [Triple(IRI(f"u{i}"), IRI("follows"), IRI(f"u{(i * 3) % 20}")) for i in range(40)]
        triples += [Triple(IRI(f"u{i}"), IRI("likes"), IRI(f"p{i % 4}")) for i in range(0, 40, 2)]
        warm = S2RDFSession.from_graph(Graph(triples), num_partitions=4)
        path = str(tmp_path / "dataset")
        warm.save_dataset(path)
        warm.close()

        # use_extvp=False pins table selection to the VP tables.
        session = S2RDFSession.open_dataset(path, use_extvp=False)
        try:
            catalog = session.layout.catalog
            session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
            new = [Triple(IRI(f"v{i}"), IRI("follows"), IRI(f"u{i % 20}")) for i in range(60)]
            session.append_triples(new)
            assert estimate_rows(TableScanNode("vp_follows", ("s", "o")), catalog) == 100
            assert len(catalog.table("vp_follows")) == 100  # no stale decode either
            result = session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
            assert "~100 rows" in result.join_strategies[0]
        finally:
            session.close()
