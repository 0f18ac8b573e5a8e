"""Quickstart: load the paper's running-example graph and run query Q1.

This walks through the exact example used throughout the paper (Fig. 1/2 and
Fig. 8-12): the 7-triple social graph G1, the friend-of-a-friend query Q1, the
ExtVP tables S2RDF builds for it, the generated SQL and the execution metrics.

Run with:  python examples/quickstart.py
"""

from repro import Graph, S2RDFSession, Triple


def build_example_graph() -> Graph:
    """The RDF graph G1 of the paper (Fig. 1), in simplified notation."""
    return Graph(
        [
            Triple.of("A", "follows", "B"),
            Triple.of("B", "follows", "C"),
            Triple.of("B", "follows", "D"),
            Triple.of("C", "follows", "D"),
            Triple.of("A", "likes", "I1"),
            Triple.of("A", "likes", "I2"),
            Triple.of("C", "likes", "I2"),
        ],
        name="G1",
    )


QUERY_Q1 = """
SELECT * WHERE {
  ?x <likes> ?w .
  ?x <follows> ?y .
  ?y <follows> ?z .
  ?z <likes> ?w .
}
"""


def main() -> None:
    graph = build_example_graph()
    print(f"Loaded graph {graph.name} with {len(graph)} triples")

    # Building a session materialises VP and all ExtVP semi-join reductions.
    session = S2RDFSession.from_graph(graph, selectivity_threshold=1.0)
    summary = session.storage_summary()
    print(
        f"Layout: {summary['table_counts']['vp']} VP tables, "
        f"{summary['table_counts']['extvp']} ExtVP tables, "
        f"{summary['total_tuples']} stored tuples"
    )

    print("\nGenerated Spark-SQL-style query plan for Q1:")
    print(session.explain(QUERY_Q1))

    result = session.query(QUERY_Q1)
    print("\nSelected tables (statistics-driven, Algorithm 1):")
    for table in result.selected_tables:
        print(f"  {table}")

    # The runtime's physical-planning step annotates every join with a
    # strategy: no exchange at all when both inputs together are small (as
    # here), else Spark-style — broadcast when one side is small enough,
    # shuffle otherwise.  Tune with num_partitions / broadcast_threshold.
    print("\nPhysical join strategies (inline vs. Spark-style broadcast / shuffle):")
    for strategy in result.join_strategies:
        print(f"  {strategy}")

    print("\nSolutions:")
    print(result.as_table())

    print("\nExecution metrics:", result.metrics.as_dict())
    print(f"Simulated cluster runtime: {result.simulated_runtime_ms:.1f} ms")

    # A query whose predicate correlation does not exist in the data is
    # answered from statistics alone, without touching any table.
    empty = session.query("SELECT * WHERE { ?a <likes> ?b . ?b <likes> ?c }")
    print(
        f"\nEmpty-correlation query: {len(empty)} results, "
        f"statically empty = {empty.statically_empty}, "
        f"input tuples read = {empty.metrics.input_tuples}"
    )

    # The same query on a partitioned session.  Joins big enough to need an
    # exchange run per-partition on a worker pool and the metrics report the
    # observed exchange volume in bytes; G1's seven triples are far below the
    # runtime's small-join bound, so here every join runs inline on the calling
    # thread and nothing is exchanged.
    parallel = S2RDFSession.from_graph(graph, num_partitions=4, broadcast_threshold=0)
    parallel_result = parallel.query(QUERY_Q1)
    print(
        f"\nPartitioned session (4 partitions): {len(parallel_result)} results, "
        f"{parallel_result.metrics.parallel_tasks} partition tasks, "
        f"{parallel_result.metrics.shuffled_bytes} shuffled bytes"
    )
    # Executed strategies can differ from the plan: adaptive execution (on by
    # default) replans joins from observed sizes — examples/adaptive_execution.py
    # does that on a graph large enough to exchange.
    for strategy in parallel_result.executed_join_strategies:
        print(f"  {strategy}")


if __name__ == "__main__":
    main()
