"""Size-aware join dispatch: below ``strategies.SMALL_JOIN_ROWS`` input rows a
join runs as the serial operator on the calling thread — planned that way from
catalog estimates, honoured from observed sizes in every mode — and above it
the exchange operators run exactly as before."""

import threading

import pytest

from repro.core.session import S2RDFSession
from repro.engine.catalog import Catalog
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import LeftOuterJoinNode, NaturalJoinNode, SubqueryNode
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.engine.runtime import ParallelExecutor, SerialJoin, plan_join_strategies, strategies
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple

BOUND = strategies.SMALL_JOIN_ROWS


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


def catalog_with(left_rows: int, right_rows: int) -> Catalog:
    catalog = Catalog()
    catalog.register("follows", Relation(("s", "o"), [(i, i % 37) for i in range(left_rows)]))
    catalog.register("likes", Relation(("s", "o"), [(i % 37, -i) for i in range(right_rows)]))
    return catalog


def join_plan(outer: bool = False):
    node = LeftOuterJoinNode if outer else NaturalJoinNode
    return node(
        SubqueryNode("follows", (("s", "x"), ("o", "y"))),
        SubqueryNode("likes", (("s", "y"), ("o", "z"))),
    )


def run(catalog: Catalog, plan, **kwargs):
    metrics = ExecutionMetrics()
    with ParallelExecutor(catalog, num_partitions=4, **kwargs) as executor:
        result = executor.execute(plan, metrics)
        return result, metrics, executor.last_physical_plan, executor


# --------------------------------------------------------------------------- #
# The rule itself
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("outer", [False, True])
@pytest.mark.parametrize("adaptive", [True, False])
def test_join_just_under_and_just_over_the_bound(outer, adaptive):
    half = BOUND // 2
    for left_rows, inlined in ((half - 1, True), (half, False)):
        catalog = catalog_with(left_rows, half)  # together: BOUND - 1, then BOUND
        plan = join_plan(outer)
        reference = PlanExecutor(catalog).execute(plan, ExecutionMetrics())
        result, metrics, physical, _ = run(catalog, plan, adaptive_enabled=adaptive)
        assert bag(result) == bag(reference)
        (planned,) = physical.strategies()
        (executed,) = physical.executed_strategies()
        if inlined:
            assert isinstance(planned, SerialJoin) and planned.reason == "small input"
            assert isinstance(executed, SerialJoin) and executed.reason == "small input"
            assert executed.describe().startswith("SerialJoin(keys=[y], reason=small input")
            assert metrics.parallel_tasks == 0
            assert metrics.shuffled_bytes == metrics.broadcast_bytes == 0
        else:
            assert not isinstance(planned, SerialJoin)
            assert not isinstance(executed, SerialJoin)
            assert metrics.parallel_tasks > 0
            assert metrics.shuffled_bytes + metrics.broadcast_bytes > 0
        assert physical.replans() == []
        assert metrics.aqe_replans == 0


def test_unknown_cardinality_is_never_planned_small():
    catalog = catalog_with(10, 10)
    catalog.remove_statistics("follows")
    (planned,) = plan_join_strategies(join_plan(), catalog).strategies()
    assert not isinstance(planned, SerialJoin)


# --------------------------------------------------------------------------- #
# Below the bound nothing of the exchange machinery runs
# --------------------------------------------------------------------------- #
def small_graph() -> Graph:
    triples = [Triple.of(f"u{i}", "follows", f"u{(i * 7) % 30}") for i in range(60)]
    triples += [Triple.of(f"u{i}", "likes", f"p{i % 5}") for i in range(0, 60, 2)]
    return Graph(triples)


def test_below_bound_query_starts_no_runtime_thread():
    before = set(threading.enumerate())
    with S2RDFSession.from_graph(small_graph(), num_partitions=4) as session:
        result = session.query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
        started = [t.name for t in set(threading.enumerate()) - before]
        assert session.executor._pool is None
    assert len(result) > 0
    assert not [name for name in started if name.startswith("s2rdf-runtime")]
    assert result.metrics.parallel_tasks == 0
    assert result.metrics.aqe_replans == 0
    assert result.replanned_joins == []
    assert result.join_strategies == result.executed_join_strategies
    assert all("SerialJoin" in s and "small input" in s for s in result.join_strategies)


def test_executor_takes_no_worker_pool():
    with pytest.raises(TypeError, match="worker_pool"):
        ParallelExecutor(catalog_with(1, 1), worker_pool=lambda: None)


def test_planned_exchange_observed_small_is_inlined_without_a_replan_count():
    """Like the empty-input fallback: visible as planned != executed, but not
    an AQE revision — ``revise`` is never consulted for it."""
    catalog = catalog_with(40, 20)
    catalog.register_statistics_only("follows", 10**9, 1.0)
    catalog.register_statistics_only("likes", 10**9, 1.0)
    _, metrics, physical, executor = run(catalog, join_plan(), adaptive_enabled=True)
    ((planned, executed),) = physical.replans()
    assert planned.name == "ShuffleHashJoin"
    assert isinstance(executed, SerialJoin) and executed.reason == "small input"
    assert metrics.aqe_replans == 0
    assert executor.adaptive.replan_events == []


# --------------------------------------------------------------------------- #
# Estimated small, observed large
# --------------------------------------------------------------------------- #
def underestimated_catalog() -> Catalog:
    catalog = catalog_with(BOUND, BOUND)
    catalog.register_statistics_only("follows", 10, 1.0)
    catalog.register_statistics_only("likes", 10, 1.0)
    return catalog


def test_planned_serial_join_that_outgrew_the_bound_is_revised_under_aqe():
    catalog = underestimated_catalog()
    plan = join_plan()
    reference = PlanExecutor(catalog).execute(plan, ExecutionMetrics())
    result, metrics, physical, executor = run(catalog, plan, adaptive_enabled=True)
    assert bag(result) == bag(reference)
    ((planned, executed),) = physical.replans()
    assert isinstance(planned, SerialJoin)
    assert executed.name in ("BroadcastHashJoin", "ShuffleHashJoin")
    assert metrics.aqe_replans == 1
    assert metrics.parallel_tasks > 0
    (event,) = executor.adaptive.replan_events
    assert "estimated small input" in event.reason
    assert f"observed {BOUND} + {BOUND} rows" in event.reason


def test_static_planning_runs_a_planned_serial_join_as_written():
    catalog = underestimated_catalog()
    plan = join_plan()
    reference = PlanExecutor(catalog).execute(plan, ExecutionMetrics())
    result, metrics, physical, _ = run(catalog, plan, adaptive_enabled=False)
    assert bag(result) == bag(reference)
    (executed,) = physical.executed_strategies()
    assert isinstance(executed, SerialJoin) and executed.reason == "planned small input"
    assert physical.replans() == []
    assert metrics.aqe_replans == 0
    assert metrics.parallel_tasks == 0
