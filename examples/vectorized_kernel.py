"""Id-batch execution: every session runs on raw dictionary ids, end to end.

The dataset store keeps every column as RLE-compressed integer ids, and a
session executes on exactly that shape: scans emit ``ColumnBatch``es — id
columns that are lists of interned ids (equal ids are one int object across
every table of the dataset) plus a selection vector — filters, joins,
projections, DISTINCT, UNION and LIMIT run on raw ids, and terms are decoded
once, for the rows a query returns.  Nothing switches this on, and it does
not matter where the store lives: a session over a dataset directory
(``repro.connect``) reads it from there, a session built from a graph
(``from_graph``) holds the same store image in memory.  This example runs
both, verifies they agree bag for bag, and shows what the batch
representation looks like from the inside.

Run with:  python examples/vectorized_kernel.py
"""

import tempfile

import repro
from repro import Graph, S2RDFSession, Triple


def build_graph() -> Graph:
    triples = []
    for i in range(300):
        triples.append(Triple.of(f"user{i}", "follows", f"user{(i * 7 + 1) % 300}"))
        triples.append(Triple.of(f"user{i}", "likes", f"item{i % 12}"))
    return Graph(triples, name="social")


QUERIES = {
    "scan+join": "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }",
    "pushdown": "SELECT ?a WHERE { ?a <likes> <item3> }",
    "distinct": "SELECT DISTINCT ?w WHERE { ?a <likes> ?w }",
    "filter": "SELECT * WHERE { ?a <likes> ?w . FILTER(?w != <item3>) }",
    # OPTIONAL has no id kernel yet: both inputs are batches, the outer join
    # lowers them to rows at its boundary.
    "optional": "SELECT * WHERE { ?a <likes> <item3> . OPTIONAL { ?a <follows> ?b } }",
}


def bag(relation):
    return sorted(map(repr, relation.rows))


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        path = f"{root}/dataset"
        in_memory = S2RDFSession.from_graph(build_graph(), num_partitions=4)
        repro.create(build_graph(), path=path, num_partitions=4).close()
        stored = repro.connect(path)  # same data, same defaults, from the directory

        # --- the batch representation, from the inside ------------------- #
        scan = stored.layout.catalog.scan_batch("vp_likes")
        batch = scan.batch
        print(f"scan_batch(vp_likes): columns={batch.columns} rows={len(batch)}")
        print(f"  raw ids of 's' column (first 8): {batch.ids[0][:8]}")
        # Id columns are lists of interned ids: equal ids decoded from any
        # table are one int object, so copying a column copies pointers.
        # (Ids up to 256 are shared by CPython anyway; the larger ones prove it.)
        other = stored.layout.catalog.scan_batch("vp_follows").batch
        assert all(type(column) is list for column in batch.ids + other.ids)
        likers = {value: value for value in batch.ids[0] if value > 256}
        shared = [value for value in other.ids[0] if value in likers]
        assert shared and all(value is likers[value] for value in shared)
        print(f"  {len(shared)} 's' cells of vp_follows are the very int objects of vp_likes")
        filtered = batch.filter_equal("o", batch.ids[1][0])
        print(
            f"  filter_equal on one id keeps {len(filtered)} rows by replacing the"
            f" selection vector; the id columns are shared, not copied"
        )
        # The in-memory session has no directory, and the same ids to batch:
        # its store image lives in RAM.
        assert in_memory.dataset_path is None
        held = in_memory.layout.catalog.scan_batch("vp_likes").batch
        assert held.ids == batch.ids

        # --- identical answers, both on ids ------------------------------ #
        for name, query in QUERIES.items():
            held_result = in_memory.query(query)
            stored_result = stored.query(query)
            assert bag(held_result.relation) == bag(stored_result.relation), name
            assert held_result.metrics.vectorized_batches > 0
            assert stored_result.metrics.vectorized_batches > 0
            metrics = stored_result.metrics
            print(
                f"{name:<10} rows={len(stored_result.relation):<4} "
                f"stored: vectorized_batches={metrics.vectorized_batches} "
                f"vectorized_rows={metrics.vectorized_rows}   "
                f"in-memory: vectorized_batches={held_result.metrics.vectorized_batches}"
            )

        # --- explain_analyze marks batch-executed operators -------------- #
        explained = stored.explain_analyze(QUERIES["optional"])
        print("\nexplain_analyze (scans are marked 'vectorized'; the outer join is not):")
        print(explained.text)

        in_memory.close()
        stored.close()


if __name__ == "__main__":
    main()
