"""Golden tests for EXPLAIN ANALYZE, per-phase query timings, and the span
tree recorded for a traced query.

The stale-statistics scenario is the acceptance criterion from the paper's
adaptive-execution story: the static planner, fed inflated row counts,
shuffles a join whose inputs comfortably fit a broadcast; ``explain_analyze``
must show the estimated-vs-observed gap and the strategy revision per join."""

import re

import pytest

from repro import Graph, S2RDFSession, Triple
from repro.obs.explain import ExplainAnalyzeResult


def build_graph() -> Graph:
    """A follows/likes graph with enough rows for multi-partition joins."""
    triples = []
    for i in range(60):
        triples.append(Triple.of(f"u{i}", "follows", f"u{(i * 7) % 30}"))
    for i in range(0, 60, 2):
        triples.append(Triple.of(f"u{i}", "likes", f"p{i % 5}"))
    return Graph(triples, name="social")


QUERY = "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }"


def stale_statistics(session: S2RDFSession, factor: int = 1_000_000) -> None:
    """Inflate every table's registered row count by ``factor``."""
    catalog = session.layout.catalog
    for name in list(catalog.statistics_names()):
        statistics = catalog.statistics(name)
        if name in catalog and statistics.row_count > 0:
            catalog.register_statistics_only(
                name, statistics.row_count * factor, statistics.selectivity
            )


@pytest.fixture()
def session():
    with S2RDFSession.from_graph(build_graph(), num_partitions=4) as session:
        yield session


# --------------------------------------------------------------------------- #
# Accurate statistics: the plan runs as chosen
# --------------------------------------------------------------------------- #
def test_explain_analyze_with_accurate_statistics(session):
    explained = session.explain_analyze(QUERY)
    assert isinstance(explained, ExplainAnalyzeResult)
    text = str(explained)
    assert "== Physical Plan (analyzed) ==" in text
    assert "Join" in text
    assert "Scan" in text
    # With fresh statistics the chosen strategy is the executed strategy.
    assert "(as planned)" in text
    assert "->" not in text
    assert "AQE replans:" not in text
    # Every executed operator reports estimated and observed rows + elapsed.
    annotations = re.findall(r"\(est=(\S+) rows, actual=(\d+) rows, [\d.]+ ms\)", text)
    assert annotations, text
    assert "Phases:" in text
    assert "Wall clock:" in text
    # The attached result is the real query result.
    assert len(explained.result.relation) == len(session.query(QUERY).relation)


def test_explain_analyze_says_what_the_template_cache_answered(session):
    """One line: was the grammar run, was the plan compiled — and the plan tree
    of a hit is the tree a session that never saw the template prints."""
    other = QUERY.replace("?x", "?renamed")  # another template, same shape

    def tree(text):
        # Operator lines without their timings.
        head = text.split("\n\nEngine:")[0]
        return re.sub(r"[\d.]+ ms", "_ ms", head)

    first = str(session.explain_analyze(QUERY))
    assert "Template cache: parse=miss, compile=miss" in first
    again = str(session.explain_analyze(QUERY))
    assert "Template cache: parse=hit, compile=hit" in again
    assert tree(again) == tree(first)
    assert "Template cache: parse=miss, compile=miss" in str(session.explain_analyze(other))
    # A store change drops the plan, not the parsed template.
    session._templates.invalidate_plans()
    assert "Template cache: parse=hit, compile=miss" in str(session.explain_analyze(QUERY))


def test_explain_analyze_prints_an_inlined_join_without_an_exchange(session):
    """On defaults these inputs are under the small-join bound: the join is
    planned and executed as a SerialJoin and nothing is exchanged."""
    text = str(session.explain_analyze(QUERY))
    assert re.search(r"strategy: SerialJoin\(keys=\[y\], reason=small input, .*\) \(as planned\)", text)
    assert "exchange:" not in text
    # Stale statistics plan an exchange; the observed inputs are still small.
    stale_statistics(session)
    explained = session.explain_analyze(QUERY)
    text = str(explained)
    assert "strategy: ShuffleHashJoin -> SerialJoin" in text
    assert "reason:   serial fallback (small input)" in text
    assert "exchange:" not in text
    # AQE replanned nothing (its counter says so): the inlined join is listed
    # under its own header, not as an AQE replan.
    assert explained.result.metrics.aqe_replans == 0
    assert "AQE replans:" not in text
    assert re.search(r"Serial fallbacks:\n  - ShuffleHashJoin\(.*\) -> SerialJoin\(", text)


@pytest.mark.usefixtures("force_partitioned_joins")
def test_explain_analyze_shows_exchange_lines(session):
    text = str(session.explain_analyze(QUERY))
    assert "exchange:" in text
    assert "moved" in text and "task(s)" in text


# --------------------------------------------------------------------------- #
# Stale statistics + AQE: the acceptance scenario
# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("force_partitioned_joins")
def test_explain_analyze_shows_replan_under_stale_statistics(session):
    stale_statistics(session)
    explained = session.explain_analyze(QUERY)
    text = str(explained)
    # The join's strategy was revised at run time, and the report says why.
    assert "strategy: ShuffleHashJoin -> BroadcastHashJoin" in text
    assert "planned:" in text and "executed:" in text
    assert "reason:" in text
    assert "demoted to broadcast" in text
    assert "AQE replans:" in text
    assert "Serial fallbacks:" not in text
    # Estimated vs observed rows expose the stale-statistics gap per operator.
    pairs = [
        (int(est), int(actual))
        for est, actual in re.findall(r"\(est=(\d+) rows, actual=(\d+) rows", text)
    ]
    assert pairs, text
    assert any(est > actual * 1000 for est, actual in pairs if actual > 0), pairs
    assert len(explained.result.replanned_joins) >= 1


@pytest.mark.usefixtures("force_partitioned_joins")
def test_explain_analyze_works_with_tracing_enabled():
    with S2RDFSession.from_graph(
        build_graph(), num_partitions=4, tracing_enabled=True
    ) as session:
        stale_statistics(session)
        text = str(session.explain_analyze(QUERY))
        assert "ShuffleHashJoin -> BroadcastHashJoin" in text
        # The traced run recorded the replan as a span event too.
        events = [
            name
            for span in session.tracer.finished_spans()
            for name, _, _ in span.events
        ]
        assert "aqe-replan" in events


@pytest.mark.usefixtures("force_partitioned_joins")
def test_explain_analyze_without_adaptive_runs_the_static_plan():
    with S2RDFSession.from_graph(
        build_graph(), num_partitions=4, adaptive_enabled=False
    ) as session:
        stale_statistics(session)
        text = str(session.explain_analyze(QUERY))
        # No replan: the mis-chosen shuffle executes exactly as planned.
        assert "->" not in text
        assert "(as planned)" in text
        assert "AQE replans:" not in text


# --------------------------------------------------------------------------- #
# Per-phase timings on every QueryResult (tracing on or off)
# --------------------------------------------------------------------------- #
def test_query_result_phase_timings_without_tracing(session):
    result = session.query(QUERY)
    assert set(result.phase_ms) == {"parse", "compile", "plan", "execute"}
    assert all(value >= 0.0 for value in result.phase_ms.values())
    assert result.wall_clock_ms > 0.0
    # Phases partition the measured wall clock (render overhead excluded).
    assert sum(result.phase_ms.values()) <= result.wall_clock_ms + 1e-6


# --------------------------------------------------------------------------- #
# The span tree of a traced query matches the plan shape
# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("force_partitioned_joins")
def test_traced_query_span_tree_matches_plan_shape():
    with S2RDFSession.from_graph(
        build_graph(), num_partitions=4, tracing_enabled=True
    ) as session:
        session.query(QUERY)
        tracer = session.tracer
        (root,) = tracer.children_of(None)
        assert root.name == "query"
        phases = [span.name for span in tracer.children_of(root)]
        assert phases == ["parse", "compile", "execute", "render"]
        # Table selection happens inside compile.
        (compile_span,) = [s for s in tracer.children_of(root) if s.name == "compile"]
        assert [s.name for s in tracer.children_of(compile_span)] == ["table-selection"]
        # Physical planning happens inside the executor, under execute.
        (execute_span,) = [s for s in tracer.children_of(root) if s.name == "execute"]
        assert "physical-plan" in [s.name for s in tracer.children_of(execute_span)]
        # One operator span per executed plan node, rooted under execute.
        operator_spans = [s for s in tracer.finished_spans() if s.category == "operator"]
        assert len(operator_spans) == len(session.executor.last_node_stats)
        # Exchanges carry per-partition task children.
        exchanges = [s for s in tracer.finished_spans() if s.category == "exchange"]
        assert exchanges
        for exchange in exchanges:
            tasks = tracer.children_of(exchange)
            assert tasks and all(task.category == "task" for task in tasks)


def test_disabled_tracing_records_no_spans(session):
    session.query(QUERY)
    assert session.tracer.finished_spans() == []
    assert not session.tracer.enabled


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
