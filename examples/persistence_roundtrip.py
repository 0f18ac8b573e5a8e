"""Persistence roundtrip: save a dataset once, reopen it cold, query it.

S2RDF pays the ExtVP materialisation cost once and serves every later session
from the persisted columnar tables.  This example walks that exact lifecycle
on the reproduction's dataset store:

1. build a session from a WatDiv-like graph (VP + ExtVP semi-joins),
2. ``save_dataset`` — hash-bucketed, dictionary + RLE encoded column
   segments with zone maps, plus a manifest holding every statistic,
3. ``open_dataset`` — a cold session that never parses N-Triples nor
   rebuilds ExtVP; tables stay on disk until a query scans them,
4. run the same query on both sessions and compare,
5. show a pushdown scan pruning segments via zone maps / hash buckets.

Run with:  python examples/persistence_roundtrip.py
"""

import os
import tempfile
import time

from repro import S2RDFSession
from repro.watdiv.generator import generate_dataset

QUERY = """
SELECT * WHERE {
  ?user <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?friend .
  ?friend <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?product .
}
"""


def main() -> None:
    dataset = generate_dataset(scale_factor=1.0, seed=7)
    print(f"Generated WatDiv-like graph: {len(dataset.graph)} triples")

    # 1. The expensive part: build VP and every ExtVP semi-join reduction.
    start = time.perf_counter()
    session = S2RDFSession.from_graph(dataset.graph, num_partitions=4)
    build_seconds = time.perf_counter() - start
    print(f"Built in-memory layout in {build_seconds:.3f}s "
          f"({session.layout.table_counts()['total']} tables)")

    # 2. Persist once.
    path = os.path.join(tempfile.mkdtemp(prefix="s2rdf-"), "dataset")
    write = session.save_dataset(path)
    print(f"Saved dataset to {path}: {write.segment_count} segments, "
          f"{write.dictionary_terms} dictionary terms, {write.total_bytes} bytes")

    # 3. Cold start: manifest + dictionary only; no parse, no rebuild.
    start = time.perf_counter()
    cold = S2RDFSession.open_dataset(path)
    open_seconds = time.perf_counter() - start
    report = cold.load_report
    statistics = cold.layout.statistics
    print(f"Cold open in {open_seconds:.3f}s — {report.table_count} stored tables, "
          f"{len(statistics)} ExtVP correlations with rows "
          f"({len(statistics.materialized())} stored as selections; every other one is "
          f"empty and has no entry), "
          f"ntriples_parsed={report.ntriples_parsed}")
    if open_seconds > 0:
        print(f"Cold open vs. rebuild speedup: {build_seconds / open_seconds:.1f}x")

    # 4. Same answers, warm or cold.
    warm_result = session.query(QUERY)
    cold_result = cold.query(QUERY)
    assert sorted(map(repr, warm_result.relation.rows)) == sorted(
        map(repr, cold_result.relation.rows)
    )
    print(f"Query agreement: {len(cold_result)} rows from both sessions")
    print(f"Cold scan metrics: {cold_result.metrics.store_segments_scanned} segments read, "
          f"{cold_result.metrics.store_segments_pruned} pruned")

    # 5. A selective query: the bound subject hashes to one bucket, so the
    #    other segment files are pruned without ever being opened.
    user = next(iter(cold_result.values("user")))
    selective = cold.query(
        f"SELECT ?friend WHERE {{ {user.n3()} "
        f"<http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?friend }}"
    )
    print(f"Selective scan for {user.n3()}: {len(selective)} rows, "
          f"{selective.metrics.store_segments_scanned} segments read, "
          f"{selective.metrics.store_segments_pruned} pruned")

    session.close()
    cold.close()


if __name__ == "__main__":
    main()
