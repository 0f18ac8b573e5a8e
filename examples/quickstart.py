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

    # Every join runs in process; each is annotated with the join Spark would
    # pick from the table statistics — broadcast when one side's estimated
    # size fits Spark's 10 MB threshold, shuffle otherwise.
    print("\nSpark join strategies (broadcast / shuffle annotation):")
    for strategy in result.join_strategies:
        print(f"  {strategy}")

    print("\nSolutions:")
    print(result.as_table())

    print("\nExecution metrics:", result.metrics.as_dict())
    print(f"Wall clock: {result.wall_clock_ms:.1f} ms")

    # A query whose predicate correlation does not exist in the data is
    # answered from statistics alone, without touching any table.
    empty = session.query("SELECT * WHERE { ?a <likes> ?b . ?b <likes> ?c }")
    print(
        f"\nEmpty-correlation query: {len(empty)} results, "
        f"statically empty = {empty.statically_empty}, "
        f"input tuples read = {empty.metrics.input_tuples}"
    )


if __name__ == "__main__":
    main()
