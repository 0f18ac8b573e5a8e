"""Row estimates from static statistics: the per-operator estimates, the
unknown-statistics sentinel, and the estimates the executor reports without
running anything differently."""

import pytest

from repro.core.session import S2RDFSession
from repro.engine.catalog import Catalog, ScanResult, TableStatistics
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import LimitNode, NaturalJoinNode, SubqueryNode, TableScanNode
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.engine.estimates import UNKNOWN_ROWS, RowEstimates, estimate_rows
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple

#: Far more rows than any table of these tests holds.
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
    """Missing statistics are unknown, never a 0-row table."""

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

class TestEstimates:
    def test_estimate_rows_from_statistics(self, catalog, join_plan):
        assert estimate_rows(TableScanNode("vp_follows", ("s", "o")), catalog) == 160
        # The join estimate is the larger input (conservative FK heuristic).
        assert estimate_rows(join_plan, catalog) == 160

    def test_one_walk_keeps_every_operator_estimate(self, catalog, join_plan):
        claim_rows(catalog, "vp_follows", HUGE)
        estimates = RowEstimates(join_plan, catalog)
        assert estimates.plan is join_plan
        assert estimates.root_rows == HUGE
        for node in join_plan.walk():
            assert estimates.rows_for(node) == estimate_rows(node, catalog)
        # Another tree's nodes are not estimated here.
        assert estimates.rows_for(SubqueryNode("vp_likes", (("s", "y"), ("o", "z")))) is None


class TestExecutorEstimates:
    def test_execute_estimates_the_plan_and_moves_no_bytes(self, catalog, join_plan):
        metrics = ExecutionMetrics()
        executor = PlanExecutor(catalog)
        executor.execute(join_plan, metrics)
        assert executor.last_estimates.plan is join_plan
        assert executor.last_estimates.root_rows == estimate_rows(join_plan, catalog)
        assert executor.last_plan_ms >= 0.0
        assert metrics.shuffled_bytes == metrics.broadcast_bytes == metrics.aqe_replans == 0

    def test_execute_takes_the_estimates_it_is_given(self, catalog, join_plan):
        given = RowEstimates(join_plan, catalog)
        executor = PlanExecutor(catalog)
        executor.execute(join_plan, ExecutionMetrics(), given)
        assert executor.last_estimates is given

    def test_the_estimates_never_change_the_rows(self, catalog, join_plan):
        honest = PlanExecutor(catalog).execute(join_plan, ExecutionMetrics())
        claim_rows(catalog, "vp_follows", HUGE)
        claim_rows(catalog, "vp_likes", HUGE)
        executor = PlanExecutor(catalog)
        inflated = executor.execute(join_plan, ExecutionMetrics())
        assert executor.last_estimates.root_rows == HUGE
        assert bag(inflated) == bag(honest)

    def test_deleted_statistics_leave_every_estimate_unknown_and_keep_the_rows(self):
        triples = [Triple(IRI(f"u{i}"), IRI("follows"), IRI(f"u{(i * 3) % 20}")) for i in range(40)]
        triples += [Triple(IRI(f"u{i}"), IRI("likes"), IRI(f"p{i % 4}")) for i in range(0, 40, 2)]
        query = "SELECT * WHERE { ?x <follows> ?y . ?y <follows> ?z . ?z <likes> ?w }"
        with S2RDFSession.from_graph(Graph(triples)) as session:
            honest = session.query(query)
            assert session.executor.last_estimates.root_rows > 0
            catalog = session.layout.catalog
            for name in catalog.statistics_names():
                catalog.remove_statistics(name)
            blind = session.query(query)
            estimates = session.executor.last_estimates
            assert {estimates.rows_for(node) for node in estimates.plan.walk()} == {UNKNOWN_ROWS}
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
            session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
            assert session.executor.last_estimates.root_rows == 100
        finally:
            session.close()
