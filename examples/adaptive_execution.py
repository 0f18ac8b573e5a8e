"""Adaptive query execution: recovering from stale statistics at run time.

The static planner picks a shuffle or broadcast strategy per join from
catalog statistics.  When the statistics lie (collected on yesterday's data,
or never collected at all), the plan is wrong — and on a real cluster a wrong
plan means shuffling gigabytes that a broadcast would have avoided, or
broadcasting a table that does not fit in memory.

This example deletes the statistics after building the layout, runs the same
query with ``adaptive_enabled`` off and on, and prints the planned vs.
executed strategies: the adaptive session demotes the mis-planned shuffle to
a broadcast from the *observed* input sizes, records the replan in the
metrics, and caches the observed cardinalities so the next query plans
correctly upfront.

Run with:  python examples/adaptive_execution.py
"""

from repro import Graph, S2RDFSession, Triple


#: Enough users that the join's inputs are past the runtime's small-join
#: bound (``strategies.SMALL_JOIN_ROWS``, 1 024 rows): below it every join
#: runs inline on the calling thread and there is no exchange to mis-plan.
USERS = 2400


def build_graph() -> Graph:
    """A follows/likes social graph: 2 400 users, a handful of products."""
    triples = []
    for i in range(USERS):
        triples.append(Triple.of(f"u{i}", "follows", f"u{(i * 7) % (USERS // 2)}"))
    for i in range(0, USERS, 2):
        triples.append(Triple.of(f"u{i}", "likes", f"p{i % 6}"))
    return Graph(triples, name="social")


QUERY = "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }"


def delete_statistics(session: S2RDFSession) -> None:
    """Simulate a catalog whose statistics were never collected."""
    catalog = session.layout.catalog
    for name in list(catalog.statistics_names()):
        catalog.remove_statistics(name)


def main() -> None:
    graph = build_graph()

    print("=== Static session (adaptive_enabled=False) ===")
    static = S2RDFSession.from_graph(graph, num_partitions=4, adaptive_enabled=False)
    delete_statistics(static)
    result = static.query(QUERY)
    # Unknown sizes are conservative: the planner shuffles rather than risking
    # a broadcast of a potentially huge table (the old code broadcast "0 rows").
    for strategy in result.executed_join_strategies:
        print(f"  executed: {strategy}")
    print(f"  critical path: {result.metrics.critical_path_ms:.2f} ms, replans: {result.metrics.aqe_replans}")
    static.close()

    print("\n=== Adaptive session (the default) ===")
    adaptive = S2RDFSession.from_graph(graph, num_partitions=4)
    delete_statistics(adaptive)
    result = adaptive.query(QUERY)
    print("  planned vs. executed:")
    for planned, executed in zip(result.join_strategies, result.executed_join_strategies):
        print(f"    planned:  {planned}")
        print(f"    executed: {executed}")
    for replan in result.replanned_joins:
        print(f"  replan: {replan}")
    print(
        f"  critical path: {result.metrics.critical_path_ms:.2f} ms, "
        f"replans: {result.metrics.aqe_replans}, skew splits: {result.metrics.aqe_skew_splits}"
    )

    # The adaptive run fed observed cardinalities back into the catalog, so
    # the second query's *static* plan is already right — no replans needed.
    again = adaptive.query(QUERY)
    print("\n=== Same session, second run (plans from observed truth) ===")
    for strategy in again.join_strategies:
        print(f"  planned: {strategy}")
    print(f"  replans: {again.metrics.aqe_replans}")
    catalog = adaptive.layout.catalog
    observed = {name: catalog.observed_rows(name) for name in again.selected_tables}
    print(f"  observed cardinalities cached in catalog: {observed}")
    adaptive.close()


if __name__ == "__main__":
    main()
