"""Concurrent serving: one dataset, many in-flight queries, one scheduler.

A persisted dataset can serve many clients at once.  ``session.serve()``
returns a :class:`~repro.serve.scheduler.QueryScheduler`: submissions get a
handle immediately, run on a bounded number of dispatchers (process workers
when the session was opened with ``execution_mode="process"``), and identical
in-flight queries share one execution.  This example persists a small graph,
submits a burst of queries — some duplicated, one marked high priority —
and prints per-query latency percentiles from the scheduler's stats.

Run with:  python examples/concurrent_serving.py
"""

import tempfile

import repro


def build_graph() -> repro.Graph:
    triples = []
    for i in range(40):
        triples.append(repro.Triple.of(f"user{i}", "follows", f"user{(i * 3 + 1) % 40}"))
        triples.append(repro.Triple.of(f"user{i}", "likes", f"item{i % 8}"))
    return repro.Graph(triples, name="social")


QUERIES = [
    "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }",
    "SELECT ?a WHERE { ?a <likes> <item3> }",
    "SELECT ?a ?c WHERE { ?a <follows> ?b . ?b <follows> ?c }",
    "SELECT ?w WHERE { <user5> <follows> ?b . ?b <likes> ?w }",
]


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        path = f"{root}/social"
        repro.create(build_graph(), path=path, num_partitions=2).close()

        # Thread mode first: queries run on the session's own threads.
        with repro.connect(path, journal_enabled=False) as session:
            with session.serve() as scheduler:
                # Submit a burst: 20 queries, duplicates included.  Handles
                # come back immediately; execution overlaps behind the scenes.
                handles = [
                    scheduler.submit(QUERIES[i % len(QUERIES)]) for i in range(19)
                ]
                # A high-priority submission jumps the admission queue.
                urgent = scheduler.submit(QUERIES[0], priority=10)
                handles.append(urgent)

                for i, handle in enumerate(handles):
                    result = handle.result(timeout=60)
                    marker = " (shared execution)" if handle.shared else ""
                    print(f"query {i:2d}: {len(result):3d} rows{marker}")

                stats = scheduler.stats()
                print(
                    f"\ncompleted {stats['completed']} queries: "
                    f"p50 {stats['p50_ms']:.2f} ms, p99 {stats['p99_ms']:.2f} ms"
                )
                assert stats["completed"] > 0
                # Duplicate texts at the same dataset epoch coalesced.
                assert any(handle.shared for handle in handles)

        # The same dataset on process workers: each query crosses one pipe to
        # a worker process and back; the handle says what that hop cost.
        with repro.connect(
            path, execution_mode="process", worker_processes=2, journal_enabled=False
        ) as session:
            with session.serve() as scheduler:
                handles = [scheduler.submit(query) for query in QUERIES]
                for handle in handles:
                    rows = len(handle.result(timeout=60))
                    print(
                        f"worker query: {rows:3d} rows, queue {handle.queue_ms:.2f} ms, "
                        f"hop {handle.dispatch_ms:.2f} ms"
                    )
                assert all(handle.dispatch_ms is not None for handle in handles)
    print("\nOK: burst served; duplicate in-flight queries shared one execution")


if __name__ == "__main__":
    main()
