"""Broadcast memory-guard tests: a broadcast join whose *observed* build side
exceeds ``broadcast_memory_limit`` is demoted to a shuffle (in every mode),
counted in the per-query metrics, the session registry and the journal, and
surfaced as a replan event for ``explain_analyze``."""

import pytest

from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple

# Every relation here is hand-sized: without this the runtime would run each
# join inline (see ``strategies.SMALL_JOIN_ROWS``) and nothing below would
# reach the exchange operators it is about.
pytestmark = pytest.mark.usefixtures("force_partitioned_joins")

JOIN_QUERY = "SELECT ?x ?p WHERE { ?x <follows> ?y . ?y <likes> ?p }"
OPTIONAL_QUERY = "SELECT ?x ?p WHERE { ?x <follows> ?y OPTIONAL { ?y <likes> ?p } }"


def graph() -> Graph:
    triples = [Triple.of(f"u{i}", "follows", f"u{(i * 3) % 10}") for i in range(40)]
    triples += [Triple.of(f"u{i}", "likes", f"p{i % 5}") for i in range(0, 40, 2)]
    return Graph(triples, name="guard")


def session_with_limit(limit: int, adaptive: bool = True, **kwargs) -> S2RDFSession:
    # A huge broadcast_threshold makes the planner *prefer* broadcasting, so
    # the memory guard is the only thing standing between an oversized build
    # side and a broadcast.
    return S2RDFSession.from_graph(
        graph(),
        num_partitions=2,
        broadcast_threshold=10**9,
        broadcast_memory_limit=limit,
        adaptive_enabled=adaptive,
        **kwargs,
    )


@pytest.mark.parametrize("adaptive", [True, False])
def test_tiny_limit_demotes_broadcasts_in_every_mode(adaptive):
    with session_with_limit(1, adaptive=adaptive) as guarded:
        tripped = guarded.query(JOIN_QUERY)
    with session_with_limit(10**9, adaptive=adaptive) as unguarded:
        free = unguarded.query(JOIN_QUERY)

    assert tripped.metrics.broadcast_guard_trips > 0
    assert free.metrics.broadcast_guard_trips == 0
    # The demotion changed the executed physical strategy, not the answer.
    assert any("ShuffleHashJoin" in s for s in tripped.executed_join_strategies)
    assert any("BroadcastHashJoin" in s for s in free.executed_join_strategies)
    assert sorted(map(str, tripped.relation.rows)) == sorted(
        map(str, free.relation.rows)
    )
    assert tripped.metrics.broadcast_bytes == 0
    assert tripped.metrics.shuffled_bytes > 0


def test_guard_trips_reach_registry_and_journal():
    with session_with_limit(1) as session:
        session.query(JOIN_QUERY)
        snapshot = session.metrics.snapshot()
        (record,) = session.journal.records()
    assert snapshot["counters"]["s2rdf_broadcast_guard_trips_total"] > 0
    assert record.broadcast_guard_trips > 0


def test_guard_demotion_is_reported_as_a_replan():
    with session_with_limit(1) as session:
        analyzed = session.explain_analyze(JOIN_QUERY)
    assert "broadcast memory guard" in analyzed.text


def test_outer_join_build_side_is_guarded():
    with session_with_limit(1) as session:
        result = session.query(OPTIONAL_QUERY)
    assert result.metrics.broadcast_guard_trips > 0
    assert any("ShuffleHashJoin" in s for s in result.executed_join_strategies)


def test_generous_limit_never_trips():
    with session_with_limit(10**9) as session:
        session.query(JOIN_QUERY)
        session.query(OPTIONAL_QUERY)
        snapshot = session.metrics.snapshot()
    assert snapshot["counters"]["s2rdf_broadcast_guard_trips_total"] == 0
