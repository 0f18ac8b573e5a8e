"""Tests for adaptive query execution: estimate fixes, replans, skew splits.

Covers the estimator's unknown-statistics sentinel (missing statistics must
never produce a 0-byte broadcast), run-time strategy revision from observed
sizes (demotion, promotion, build-side flips), skew splitting (bag-equal to
the serial executor, aligned stored buckets exempt), the planned-vs-executed
reconciliation in :class:`PhysicalPlan`, and the observed-cardinality feedback
loop through the catalog.
"""

from array import array

import pytest

from repro.core.session import S2RDFSession
from repro.engine.catalog import Catalog
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import (
    LeftOuterJoinNode,
    LimitNode,
    NaturalJoinNode,
    SubqueryNode,
    TableScanNode,
)
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Partitioning, Relation
from repro.engine.runtime import (
    UNKNOWN_ROWS,
    AdaptivePlanner,
    BroadcastHashJoin,
    HashPartitioner,
    ParallelExecutor,
    SerialJoin,
    ShuffleHashJoin,
    estimate_rows,
    plan_join_strategies,
)
from repro.engine.vectorized import ColumnBatch
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple

# Every relation here is hand-sized: without this the runtime would run each
# join inline (see ``strategies.SMALL_JOIN_ROWS``) and nothing below would
# reach the exchange operators it is about.
pytestmark = pytest.mark.usefixtures("force_partitioned_joins")


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(
        "follows",
        Relation(("s", "o"), [(IRI(f"u{i}"), IRI(f"u{(i * 7) % 40}")) for i in range(160)]),
    )
    cat.register(
        "likes", Relation(("s", "o"), [(IRI(f"u{i}"), IRI(f"p{i % 5}")) for i in range(0, 160, 3)])
    )
    return cat


@pytest.fixture()
def join_plan():
    return NaturalJoinNode(
        SubqueryNode("follows", (("s", "x"), ("o", "y"))),
        SubqueryNode("likes", (("s", "y"), ("o", "z"))),
    )


def stale_statistics(catalog: Catalog, name: str, row_count: int) -> None:
    """Overwrite a table's statistics with a wrong cardinality (keeps the rows)."""
    catalog.register_statistics_only(name, row_count, 1.0)


class TestUnknownCardinality:
    """Missing statistics must be conservative, never a 0-row broadcast."""

    def test_missing_statistics_estimate_is_unknown(self, catalog):
        catalog.remove_statistics("follows")
        assert estimate_rows(TableScanNode("follows", ("s", "o")), catalog) == UNKNOWN_ROWS

    def test_unknown_propagates_through_joins(self, catalog, join_plan):
        catalog.remove_statistics("follows")
        assert estimate_rows(join_plan, catalog) == UNKNOWN_ROWS

    def test_limit_bounds_unknown(self, catalog, join_plan):
        catalog.remove_statistics("follows")
        assert estimate_rows(LimitNode(join_plan, 7), catalog) == 7

    def test_subquery_conditions_cannot_refine_unknown(self, catalog):
        catalog.remove_statistics("likes")
        node = SubqueryNode("likes", (("o", "z"),), conditions=(("s", IRI("u3")),))
        assert estimate_rows(node, catalog) == UNKNOWN_ROWS

    def test_unknown_side_is_never_broadcast(self, catalog, join_plan):
        # The old planner estimated a stats-less table at 0 rows and broadcast
        # it unconditionally; it must shuffle instead.
        catalog.remove_statistics("follows")
        catalog.remove_statistics("likes")
        (strategy,) = plan_join_strategies(join_plan, catalog, broadcast_threshold=10**9).strategies()
        assert isinstance(strategy, ShuffleHashJoin)

    def test_known_small_side_still_broadcasts(self, catalog, join_plan):
        # Unknown left, tiny known right: the known side is a safe build side.
        catalog.remove_statistics("follows")
        (strategy,) = plan_join_strategies(join_plan, catalog, broadcast_threshold=10**9).strategies()
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.build_side == "right"
        assert strategy.left_rows == UNKNOWN_ROWS
        assert "left~? rows" in strategy.describe()

    def test_keyless_join_prefers_known_build_side(self, catalog):
        plan = NaturalJoinNode(
            SubqueryNode("follows", (("s", "a"), ("o", "b"))),
            SubqueryNode("likes", (("s", "c"), ("o", "d"))),
        )
        catalog.remove_statistics("likes")
        (strategy,) = plan_join_strategies(plan, catalog, broadcast_threshold=0).strategies()
        # A cross join must broadcast something; the known side is the only
        # defensible candidate.
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.build_side == "left"


class TestAdaptiveReplanning:
    def test_stale_high_statistics_demote_shuffle_to_broadcast(self, catalog, join_plan):
        # Statistics claim both sides are huge -> static plan shuffles; the
        # observed build side is tiny -> AQE demotes to broadcast.
        stale_statistics(catalog, "follows", 10_000_000)
        stale_statistics(catalog, "likes", 10_000_000)
        serial = PlanExecutor(catalog).execute(join_plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4) as executor:
            result = executor.execute(join_plan, metrics)
            physical = executor.last_physical_plan
        assert isinstance(physical.strategies()[0], ShuffleHashJoin)
        assert isinstance(physical.executed_strategies()[0], BroadcastHashJoin)
        assert metrics.aqe_replans == 1
        assert metrics.broadcast_joins == 1
        assert metrics.shuffle_joins == 0
        assert len(physical.replans()) == 1
        assert bag(result) == bag(serial)

    def test_stale_low_statistics_promote_broadcast_to_shuffle(self, catalog, join_plan):
        # Statistics claim both sides are tiny -> static plan broadcasts; the
        # observed build side exceeds the threshold -> AQE promotes to shuffle.
        stale_statistics(catalog, "follows", 1)
        stale_statistics(catalog, "likes", 1)
        serial = PlanExecutor(catalog).execute(join_plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4, broadcast_threshold=1000) as executor:
            result = executor.execute(join_plan, metrics)
            physical = executor.last_physical_plan
        assert isinstance(physical.strategies()[0], BroadcastHashJoin)
        assert isinstance(physical.executed_strategies()[0], ShuffleHashJoin)
        assert metrics.aqe_replans == 1
        assert metrics.shuffle_joins == 1
        assert metrics.broadcast_joins == 0
        assert bag(result) == bag(serial)

    def test_deleted_statistics_demote_and_stay_bag_equal(self, catalog, join_plan):
        catalog.remove_statistics("follows")
        catalog.remove_statistics("likes")
        serial = PlanExecutor(catalog).execute(join_plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4) as executor:
            result = executor.execute(join_plan, metrics)
            physical = executor.last_physical_plan
        # Unknown sizes planned a shuffle; the observed sizes are broadcastable.
        assert isinstance(physical.strategies()[0], ShuffleHashJoin)
        assert isinstance(physical.executed_strategies()[0], BroadcastHashJoin)
        assert metrics.aqe_replans == 1
        assert bag(result) == bag(serial)

    def test_adaptive_disabled_reproduces_static_plan(self, catalog, join_plan):
        stale_statistics(catalog, "follows", 10_000_000)
        stale_statistics(catalog, "likes", 10_000_000)
        static = plan_join_strategies(catalog=catalog, plan=join_plan)
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4, adaptive_enabled=False) as executor:
            executor.execute(join_plan, metrics)
            physical = executor.last_physical_plan
        assert metrics.aqe_replans == 0
        assert metrics.aqe_skew_splits == 0
        assert metrics.shuffle_joins == 1  # the (mis-)planned shuffle executed as planned
        assert [s.describe() for s in physical.strategies()] == [
            s.describe() for s in static.strategies()
        ]
        assert [s.name for s in physical.executed_strategies()] == ["ShuffleHashJoin"]

    def test_replan_event_reason_is_explanatory(self, catalog, join_plan):
        stale_statistics(catalog, "follows", 10_000_000)
        stale_statistics(catalog, "likes", 10_000_000)
        with ParallelExecutor(catalog, num_partitions=4) as executor:
            executor.execute(join_plan, ExecutionMetrics())
            (event,) = executor.adaptive.replan_events
        assert "demoted to broadcast" in event.reason
        assert "ShuffleHashJoin -> BroadcastHashJoin" in event.describe()

    def test_skew_factor_must_exceed_one(self, catalog):
        with pytest.raises(ValueError):
            AdaptivePlanner(catalog, skew_factor=1.0)


class TestObservedFeedback:
    def test_second_run_plans_from_observed_truth(self, catalog, join_plan):
        catalog.remove_statistics("follows")
        catalog.remove_statistics("likes")
        with ParallelExecutor(catalog, num_partitions=4) as executor:
            first = ExecutionMetrics()
            executor.execute(join_plan, first)
            assert first.aqe_replans == 1
            # The first run cached observed cardinalities in the catalog, so
            # the second run's *static* plan already picks broadcast.
            second = ExecutionMetrics()
            executor.execute(join_plan, second)
            physical = executor.last_physical_plan
        assert catalog.observed_rows("follows") == 160
        assert catalog.observed_rows("likes") == 54
        assert isinstance(physical.strategies()[0], BroadcastHashJoin)
        assert second.aqe_replans == 0

    def test_observed_rows_override_stale_statistics(self, catalog):
        stale_statistics(catalog, "follows", 10_000_000)
        catalog.record_observed("follows", 160)
        assert estimate_rows(TableScanNode("follows", ("s", "o")), catalog) == 160
        catalog.clear_observed()
        assert estimate_rows(TableScanNode("follows", ("s", "o")), catalog) == 10_000_000

    def test_reregistration_invalidates_observed_cache(self, catalog):
        # A stale observation must not override statistics freshly derived
        # from re-registered rows (the broadcast-a-huge-table trap again).
        catalog.record_observed("follows", 10)
        catalog.register(
            "follows", Relation(("s", "o"), [(IRI(f"v{i}"), IRI(f"w{i}")) for i in range(500)])
        )
        assert catalog.observed_rows("follows") is None
        assert estimate_rows(TableScanNode("follows", ("s", "o")), catalog) == 500

    def test_adaptive_disabled_records_no_observations(self, catalog, join_plan):
        with ParallelExecutor(catalog, num_partitions=4, adaptive_enabled=False) as executor:
            executor.execute(join_plan, ExecutionMetrics())
        assert catalog.observed_rows("follows") is None

    def test_static_executor_ignores_observations_left_by_adaptive_runs(self, catalog, join_plan):
        # The observed cache lives on the shared catalog, but a
        # adaptive_enabled=False executor must reproduce the static plan
        # exactly — even after an adaptive session populated the cache.
        stale_statistics(catalog, "follows", 10_000_000)
        stale_statistics(catalog, "likes", 10_000_000)
        with ParallelExecutor(catalog, num_partitions=4) as adaptive_executor:
            adaptive_executor.execute(join_plan, ExecutionMetrics())
        assert catalog.observed_rows("likes") == 54
        with ParallelExecutor(catalog, num_partitions=4, adaptive_enabled=False) as static_executor:
            static_executor.execute(join_plan, ExecutionMetrics())
            physical = static_executor.last_physical_plan
        # Stale statistics say huge -> shuffle, regardless of the cache.
        assert isinstance(physical.strategies()[0], ShuffleHashJoin)
        assert estimate_rows(join_plan, catalog, use_observed=False) == 10_000_000


class TestSkewSplitting:
    @pytest.fixture()
    def skewed_catalog(self):
        cat = Catalog()
        hub = [(IRI("hub"), IRI(f"a{i}")) for i in range(300)]
        spread = [(IRI(f"k{j}"), IRI(f"b{j}")) for j in range(40)]
        cat.register("big", Relation(("y", "a"), hub + spread))
        matches = [(IRI("hub"), IRI("m0"))] + [(IRI(f"k{j}"), IRI(f"m{j}")) for j in range(40)]
        cat.register("small", Relation(("y", "b"), matches))
        return cat

    @pytest.fixture()
    def skewed_plan(self):
        return NaturalJoinNode(
            TableScanNode("big", ("y", "a")), TableScanNode("small", ("y", "b"))
        )

    def test_skewed_partition_is_subdivided(self, skewed_catalog, skewed_plan):
        serial = PlanExecutor(skewed_catalog).execute(skewed_plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(
            skewed_catalog, num_partitions=4, broadcast_threshold=0, skew_factor=2.0
        ) as executor:
            result = executor.execute(skewed_plan, metrics)
        assert metrics.aqe_skew_splits > 0
        assert metrics.parallel_tasks > 4  # extra chunk tasks beyond one per partition
        assert bag(result) == bag(serial)

    def test_left_outer_join_splits_only_preserved_side(self, skewed_catalog):
        # The *right* side is skewed here; splitting it would fabricate
        # null-padded rows, so the splitter must leave it whole.
        plan = LeftOuterJoinNode(
            TableScanNode("small", ("y", "b")), TableScanNode("big", ("y", "a"))
        )
        serial = PlanExecutor(skewed_catalog).execute(plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(
            skewed_catalog, num_partitions=4, broadcast_threshold=0, skew_factor=2.0
        ) as executor:
            result = executor.execute(plan, metrics)
        assert metrics.aqe_skew_splits == 0
        assert bag(result) == bag(serial)

    def test_left_outer_join_with_skewed_preserved_side(self, skewed_catalog):
        plan = LeftOuterJoinNode(
            TableScanNode("big", ("y", "a")), TableScanNode("small", ("y", "b"))
        )
        serial = PlanExecutor(skewed_catalog).execute(plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(
            skewed_catalog, num_partitions=4, broadcast_threshold=0, skew_factor=2.0
        ) as executor:
            result = executor.execute(plan, metrics)
        assert metrics.aqe_skew_splits > 0
        assert bag(result) == bag(serial)

    def test_small_partitions_are_never_split(self, catalog, join_plan):
        # Balanced 160-row inputs: nothing exceeds skew_factor x median.
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4, broadcast_threshold=0) as executor:
            executor.execute(join_plan, metrics)
        assert metrics.aqe_skew_splits == 0
        assert metrics.parallel_tasks == 4

    def test_aligned_stored_buckets_are_not_resplit(self):
        cat = Catalog()
        hub = [(IRI("hub"), IRI(f"a{i}")) for i in range(200)]
        spread = [(IRI(f"k{j}"), IRI(f"b{j}")) for j in range(40)]
        base = Relation(("y", "a"), hub + spread)
        parts = HashPartitioner(4).partition(base, ["y"])
        ordered = [row for part in parts for row in part.rows]
        tagged = Relation(
            ("y", "a"),
            ordered,
            partitioning=Partitioning(("y",), tuple(len(p) for p in parts)),
        )
        cat.register("bucketed", tagged)
        cat.register(
            "other", Relation(("y", "c"), [(IRI(f"k{j}"), IRI(f"c{j}")) for j in range(40)] + [(IRI("hub"), IRI("c"))])
        )
        plan = NaturalJoinNode(
            TableScanNode("bucketed", ("y", "a")), TableScanNode("other", ("y", "c"))
        )
        serial = PlanExecutor(cat).execute(plan, ExecutionMetrics())
        metrics = ExecutionMetrics()
        with ParallelExecutor(cat, num_partitions=4, broadcast_threshold=0, skew_factor=2.0) as executor:
            result = executor.execute(plan, metrics)
        # The bucketed side is skewed, but it came pre-partitioned from the
        # store: its buckets are consumed as-is, never subdivided.
        assert metrics.partition_aligned_inputs == 1
        assert metrics.aqe_skew_splits == 0
        assert metrics.parallel_tasks == 4
        assert bag(result) == bag(serial)


class TestSkewSplittingOnIdBatches:
    """A stored dataset joins id batches; a batch partition is a selection
    vector, and AQE splits a skewed one by slicing it."""

    HUB_JOIN = "SELECT * WHERE { ?a <big> ?y . ?y <small> ?b }"

    @pytest.fixture()
    def sessions(self, tmp_path):
        triples = [Triple.of(f"a{i}", "big", "hub") for i in range(300)]
        triples += [Triple.of(f"b{j}", "big", f"k{j}") for j in range(40)]
        triples += [Triple.of("hub", "small", "m0")]
        triples += [Triple.of(f"k{j}", "small", f"m{j}") for j in range(40)]
        reference = S2RDFSession.from_graph(Graph(triples), num_partitions=1)
        path = str(tmp_path / "dataset")
        reference.save_dataset(path, num_buckets=4)
        stored = S2RDFSession.open_dataset(path, broadcast_threshold=0, skew_factor=2.0)
        yield reference, stored
        reference.close()
        stored.close()

    def test_skewed_batch_partition_is_subdivided(self, sessions):
        reference, stored = sessions
        result = stored.query(self.HUB_JOIN)
        metrics = result.metrics
        assert metrics.shuffle_joins == 1
        assert metrics.aqe_skew_splits > 0
        assert metrics.parallel_tasks > 4  # extra chunk tasks beyond one per partition
        # Both scans and the join itself stayed on ids.
        assert metrics.vectorized_batches == 3
        assert len(result.relation) == 340
        assert bag(result.relation) == bag(reference.query(self.HUB_JOIN).relation)

    def test_non_preserved_side_of_an_outer_join_is_never_split(self, sessions):
        # The skewed table is the OPTIONAL (right) side: chunking it would
        # fabricate null-padded rows for left rows matched in another chunk.
        reference, stored = sessions
        query = "SELECT * WHERE { ?y <small> ?b OPTIONAL { ?a <big> ?y } }"
        result = stored.query(query)
        assert result.metrics.shuffle_joins == 1
        assert result.metrics.aqe_skew_splits == 0
        assert bag(result.relation) == bag(reference.query(query).relation)

    def test_split_chunks_share_the_partitions_columns(self):
        ids = (array("q", range(10)),)
        part = ColumnBatch(("y",), ids, lambda term_id: term_id, selection=array("q", [9, 1, 4, 6, 2]))
        chunks = AdaptivePlanner._split(part, 2)
        assert [list(chunk.selection) for chunk in chunks] == [[9, 1, 4], [6, 2]]
        assert all(chunk.ids is ids for chunk in chunks)


class TestPlannedVsExecutedReconciliation:
    def test_keyless_left_outer_join_fallback_is_explicit(self, catalog):
        # Planner annotates a keyless outer join BroadcastHashJoin, but the
        # executor runs it serially; the executed plan must say so instead of
        # pretending a broadcast happened.
        plan = LeftOuterJoinNode(
            SubqueryNode("follows", (("s", "a"), ("o", "b"))),
            SubqueryNode("likes", (("s", "c"), ("o", "d"))),
        )
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4) as executor:
            executor.execute(plan, metrics)
            physical = executor.last_physical_plan
        assert physical.counts()["BroadcastHashJoin"] == 1
        executed = physical.counts(executed=True)
        assert executed["BroadcastHashJoin"] == 0
        assert executed["SerialJoin"] == 1
        assert metrics.broadcast_joins == 0  # now agrees with the executed plan
        assert metrics.shuffle_joins == 0
        (fallback,) = [s for s in physical.executed_strategies() if isinstance(s, SerialJoin)]
        assert fallback.reason == "cross join"
        assert len(physical.replans()) == 1

    def test_single_partition_fallback_reason(self, catalog, join_plan):
        with ParallelExecutor(catalog, num_partitions=1) as executor:
            executor.execute(join_plan, ExecutionMetrics())
            physical = executor.last_physical_plan
        (strategy,) = physical.executed_strategies()
        assert isinstance(strategy, SerialJoin)
        assert strategy.reason == "single partition"

    def test_executed_counts_match_strategy_metrics(self, catalog, join_plan):
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4, broadcast_threshold=0) as executor:
            executor.execute(join_plan, metrics)
            physical = executor.last_physical_plan
        executed = physical.counts(executed=True)
        assert executed["ShuffleHashJoin"] == metrics.shuffle_joins
        assert executed["BroadcastHashJoin"] == metrics.broadcast_joins


class TestSessionIntegration:
    @pytest.fixture()
    def session_graph(self):
        from repro.rdf.graph import Graph
        from repro.rdf.triple import Triple

        triples = []
        for i in range(60):
            triples.append(Triple(IRI(f"u{i}"), IRI("follows"), IRI(f"u{(i * 7) % 30}")))
        for i in range(0, 60, 2):
            triples.append(Triple(IRI(f"u{i}"), IRI("likes"), IRI(f"p{i % 6}")))
        return Graph(triples)

    def test_session_surfaces_replans(self, session_graph):
        from repro.core.session import S2RDFSession

        session = S2RDFSession.from_graph(session_graph, num_partitions=4)
        catalog = session.layout.catalog
        for name in list(catalog.statistics_names()):
            catalog.remove_statistics(name)
        result = session.query(
            "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }"
        )
        assert result.metrics.aqe_replans >= 1
        assert result.replanned_joins  # "initial -> executed" rendering
        assert result.join_strategies != result.executed_join_strategies
        assert any("BroadcastHashJoin" in s for s in result.executed_join_strategies)
        session.close()

    def test_adaptive_off_session_keeps_static_strategies(self, session_graph):
        from repro.core.session import S2RDFSession

        session = S2RDFSession.from_graph(
            session_graph, num_partitions=4, adaptive_enabled=False, broadcast_threshold=0
        )
        result = session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
        assert result.metrics.aqe_replans == 0
        assert all("ShuffleHashJoin" in s for s in result.join_strategies)
        assert all("ShuffleHashJoin" in s for s in result.executed_join_strategies)
        session.close()


class TestStoredReregistration:
    """``register_stored`` re-registration (incremental appends) must drop
    every cache of the previous table incarnation: the AQE observed-
    cardinality cache *and* the decoded-rows cache — otherwise the planner
    replans from pre-append row counts and scans return pre-append rows."""

    class _FakeProvider:
        def __init__(self, relation):
            self.relation = relation

        def read(self):
            return self.relation

        def scan(self, columns=None, conditions=None):
            from repro.engine.catalog import ScanResult

            return ScanResult(relation=self.relation, rows_scanned=len(self.relation))

    def test_reregister_stored_drops_observed_and_decoded_caches(self):
        from repro.engine.catalog import Catalog, TableStatistics

        catalog = Catalog()
        small = Relation(("s", "o"), [(IRI("a"), IRI("b"))])
        catalog.register_stored(
            "t", self._FakeProvider(small), TableStatistics(name="t", row_count=1)
        )
        assert len(catalog.table("t")) == 1  # decodes and caches the rows
        catalog.record_observed("t", 1)

        grown = Relation(("s", "o"), [(IRI(f"x{i}"), IRI(f"y{i}")) for i in range(50)])
        catalog.register_stored(
            "t", self._FakeProvider(grown), TableStatistics(name="t", row_count=50)
        )
        assert catalog.observed_rows("t") is None
        assert len(catalog.table("t")) == 50  # not the stale decoded cache
        assert estimate_rows(TableScanNode("t", ("s", "o")), catalog) == 50

    def test_append_invalidates_observed_cardinalities(self, tmp_path):
        """End to end: query, append, and the next plan must use post-append
        row counts instead of the first run's observed cardinalities."""
        from repro.core.session import S2RDFSession
        from repro.rdf.graph import Graph
        from repro.rdf.triple import Triple

        triples = [Triple(IRI(f"u{i}"), IRI("follows"), IRI(f"u{(i * 3) % 20}")) for i in range(40)]
        triples += [Triple(IRI(f"u{i}"), IRI("likes"), IRI(f"p{i % 4}")) for i in range(0, 40, 2)]
        warm = S2RDFSession.from_graph(Graph(triples), num_partitions=4)
        path = str(tmp_path / "dataset")
        warm.save_dataset(path)
        warm.close()

        # use_extvp=False pins table selection to the VP tables, so the
        # observed-cardinality assertions target a deterministic table name.
        session = S2RDFSession.open_dataset(path, use_extvp=False)
        try:
            catalog = session.layout.catalog
            session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
            assert catalog.observed_rows("vp_follows") == 40  # AQE feedback cached

            new = [Triple(IRI(f"v{i}"), IRI("follows"), IRI(f"u{i % 20}")) for i in range(60)]
            session.append_triples(new)
            # The observation describes the pre-append table; it must be gone,
            # and planning must see the manifest's post-append statistics.
            assert catalog.observed_rows("vp_follows") is None
            assert estimate_rows(TableScanNode("vp_follows", ("s", "o")), catalog) == 100
            assert len(catalog.table("vp_follows")) == 100  # no stale decode either
            # A rerun repopulates the cache from post-append truth.
            session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
            assert catalog.observed_rows("vp_follows") == 100
        finally:
            session.close()
