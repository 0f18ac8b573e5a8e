"""Golden tests for EXPLAIN ANALYZE, per-phase query timings, and the span
tree recorded for a traced query.

In the stale-statistics scenario the estimator is fed inflated row counts;
``explain_analyze`` must show the estimated-vs-observed gap per operator."""

import re

import pytest

from repro import Graph, S2RDFSession, Triple
from repro.engine.estimates import RowEstimates, estimate_rows
from repro.obs.explain import ExplainAnalyzeResult


def build_graph() -> Graph:
    """A small follows/likes graph."""
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
    # Every join runs in process as one hash join: there is no choice to print.
    assert "strategy:" not in text
    assert "->" not in text
    # Every executed operator reports estimated and observed rows + elapsed.
    annotations = re.findall(
        r"\(est=(\S+) rows, actual=(\d+) rows, [\d.]+ ms(?:, vectorized)?\)", text
    )
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
        head = text.split("\n\nTemplate cache:")[0]
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
    """Every join runs in process: there is no strategy, exchange, replan or
    fallback to report, whatever the statistics say."""
    stale_statistics(session)
    explained = session.explain_analyze(QUERY)
    text = str(explained)
    assert re.search(r"^Join \[y\]  \(est=\d+ rows, actual=\d+ rows, ", text, re.M)
    for retired in ("strategy:", "exchange:", "->", "AQE replans:", "Serial fallbacks:"):
        assert retired not in text
    assert explained.result.metrics.aqe_replans == 0


def test_explain_analyze_estimates_every_operator_in_one_walk(monkeypatch):
    """Every operator's estimate comes from one bottom-up walk: a 10-pattern
    chain reads each scan's statistics once per visit, where
    estimating every operator on its own would re-walk ~100 subtrees."""
    patterns = 10
    graph = Graph(
        [Triple.of(f"n{i}", f"p{step}", f"n{i + 1}") for step in range(patterns) for i in range(4)]
    )
    text = "SELECT * WHERE { %s }" % " . ".join(
        f"?v{step} <p{step}> ?v{step + 1}" for step in range(patterns)
    )
    with S2RDFSession.from_graph(graph) as session:
        session.compile(text)  # table selection reads statistics too: not counted
        catalog = session.layout.catalog
        reads = []
        statistics = catalog.statistics
        monkeypatch.setattr(
            catalog, "statistics", lambda name: reads.append(name) or statistics(name)
        )
        explained = session.explain_analyze(text)
        monkeypatch.undo()
        plan = session.compile(text).plan
        scans = [node for node in plan.walk() if node.is_scan]
        assert len(scans) == patterns
        # Two statistics reads per scan (base rows, then distinct counts).
        assert len(reads) == 2 * patterns, len(reads)
        printed = re.findall(r"\(est=(\S+) rows", str(explained))
        assert printed == [str(estimate_rows(node, catalog)) for node in plan.walk()]
        # The journal records the root's estimate.
        root = estimate_rows(plan, catalog)
        assert RowEstimates(plan, catalog).root_rows == root
        assert session.journal.records()[-1].estimated_rows == root


# --------------------------------------------------------------------------- #
# Stale statistics: the acceptance scenario
# --------------------------------------------------------------------------- #
def test_explain_analyze_shows_the_estimate_gap_under_stale_statistics(session):
    stale_statistics(session)
    explained = session.explain_analyze(QUERY)
    text = str(explained)
    # Estimated vs observed rows expose the stale-statistics gap per operator.
    pairs = [
        (int(est), int(actual))
        for est, actual in re.findall(r"\(est=(\d+) rows, actual=(\d+) rows", text)
    ]
    assert pairs, text
    assert any(est > actual * 1000 for est, actual in pairs if actual > 0), pairs


def test_explain_analyze_works_with_tracing_enabled():
    with S2RDFSession.from_graph(
        build_graph(), num_partitions=4, tracing_enabled=True
    ) as session:
        stale_statistics(session)
        text = str(session.explain_analyze(QUERY))
        assert re.search(r"\(est=\d{7,} rows, actual=\d+ rows", text)
        # The traced run recorded the estimator's walk as its own span.
        spans = [span.name for span in session.tracer.finished_spans()]
        assert "physical-plan" in spans


# --------------------------------------------------------------------------- #
# Per-phase timings on every QueryResult (tracing on or off)
# --------------------------------------------------------------------------- #
def test_query_result_phase_timings_without_tracing(session):
    result = session.query(QUERY)
    assert set(result.phase_ms) == {"parse", "compile", "plan", "execute", "lower"}
    assert all(value >= 0.0 for value in result.phase_ms.values())
    assert result.wall_clock_ms > 0.0
    # Phases partition the measured wall clock (render overhead excluded).
    assert sum(result.phase_ms.values()) <= result.wall_clock_ms + 1e-6


# --------------------------------------------------------------------------- #
# The span tree of a traced query matches the plan shape
# --------------------------------------------------------------------------- #
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


def test_disabled_tracing_records_no_spans(session):
    session.query(QUERY)
    assert session.tracer.finished_spans() == []
    assert not session.tracer.enabled


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
