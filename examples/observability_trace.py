"""Observability: query tracing, EXPLAIN ANALYZE and the metrics registry.

A session built with ``tracing_enabled=True`` records the whole query
lifecycle — parse, compile (with table selection), physical planning,
execution with per-scan/per-join spans — on a low-overhead tracer.
This example:

1. runs a two-join query twice on a traced session and prints the span
   tree summary: the repeat is a template cache hit, so its
   ``physical-plan`` span says ``cached=True`` — the plan's row estimates
   came with the cached plan, nothing was estimated again;
2. stales the catalog statistics and shows ``explain_analyze``: estimated
   vs. observed rows per operator, and how far apart they are;
3. exports the trace as Chrome trace-event JSON — load it in
   https://ui.perfetto.dev or chrome://tracing;
4. prints the session's metrics registry in Prometheus text format.

Run with:  python examples/observability_trace.py
"""

import json
import os
import tempfile

from repro import Graph, S2RDFSession, Triple


def build_graph() -> Graph:
    """A follows/likes social graph: 80 users, a few products."""
    triples = []
    for i in range(80):
        triples.append(Triple.of(f"u{i}", "follows", f"u{(i * 7) % 40}"))
    for i in range(0, 80, 2):
        triples.append(Triple.of(f"u{i}", "likes", f"p{i % 6}"))
    return Graph(triples, name="social")


QUERY = "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }"


def stale_statistics(session: S2RDFSession, factor: int = 1_000_000) -> None:
    """Make every table look ``factor``x bigger than it is.

    The report then shows how far each operator's estimate is from what it
    produced.
    """
    catalog = session.layout.catalog
    for name in list(catalog.statistics_names()):
        statistics = catalog.statistics(name)
        if name in catalog and statistics.row_count > 0:
            catalog.register_statistics_only(
                name, statistics.row_count * factor, statistics.selectivity
            )


def main() -> None:
    session = S2RDFSession.from_graph(build_graph(), num_partitions=4, tracing_enabled=True)

    print("=== 1. Traced query, then the same template again ===")
    for _ in range(2):
        result = session.query(QUERY)
        print(f"  {len(result)} rows; phases:", {k: round(v, 2) for k, v in result.phase_ms.items()})
    summary = session.tracer.summary()
    print(f"  spans recorded: {summary['spans']} ({summary['spans_by_category']})")
    planned = [span for span in session.tracer.finished_spans() if span.name == "physical-plan"]
    print("  physical-plan spans:", [span.attrs for span in planned])
    assert len(planned) == 2 and planned[1].attrs["cached"] is True, planned[1].attrs

    print("\n=== 2. EXPLAIN ANALYZE under stale statistics ===")
    stale_statistics(session)
    explained = session.explain_analyze(QUERY)
    print(explained)
    # explain_analyze estimates the very tree it draws: never the cached estimates.
    last = [span for span in session.tracer.finished_spans() if span.name == "physical-plan"][-1]
    assert last.attrs["cached"] is False, last.attrs

    print("\n=== 3. Chrome trace export ===")
    with tempfile.TemporaryDirectory(prefix="s2rdf-trace-") as root:
        path = os.path.join(root, "trace.json")
        session.tracer.write_chrome_trace(path)
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
    assert "traceEvents" in trace and trace["traceEvents"], "trace must hold events"
    assert all("ph" in event and "ts" in event for event in trace["traceEvents"])
    print(f"  wrote {len(trace['traceEvents'])} trace events to {path} (removed on exit)")
    print("  load such a file in https://ui.perfetto.dev or chrome://tracing")

    print("\n=== 4. Metrics registry (Prometheus text format, excerpt) ===")
    exposition = session.metrics.render_prometheus()
    for line in exposition.splitlines():
        if line.startswith(("s2rdf_queries_total", "s2rdf_input_tuples_total")) or (
            line.startswith("s2rdf_query_wall_ms") and "_bucket" not in line
        ):
            print(f"  {line}")

    session.close()


if __name__ == "__main__":
    main()
