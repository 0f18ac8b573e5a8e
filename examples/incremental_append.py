"""Incremental updates & compaction: grow a persisted dataset in place.

PR 2's store could only materialise a dataset with a full ``save_dataset``
rewrite.  This example walks the incremental lifecycle that replaces it:

1. build and persist a base dataset once,
2. ``append_triples`` — new triples land as *delta segments* (hash-bucketed,
   RLE-encoded, zone-mapped) without rewriting a single existing segment or
   dictionary line; VP tables, the triples table and every affected ExtVP
   correlation are maintained incrementally,
3. query — scans merge base + delta segments transparently (pruning included),
4. ``compact()`` — folds the accumulated deltas back into full base segments
   with tightened zone maps; same answers, fewer segments scanned.

Run with:  python examples/incremental_append.py
"""

import os
import tempfile

from repro import S2RDFSession
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.watdiv.generator import generate_dataset
from repro.watdiv.schema import FOLLOWS, LIKES, EntityClass, entity_iri

QUERY = """
SELECT * WHERE {
  ?user <http://db.uwaterloo.ca/~galuc/wsdbm/follows> ?friend .
  ?friend <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?product .
}
"""


def main() -> None:
    dataset = generate_dataset(scale_factor=1.0, seed=7)
    print(f"Generated WatDiv-like graph: {len(dataset.graph)} triples")

    with tempfile.TemporaryDirectory(prefix="s2rdf-") as root:
        # 1. Persist the base dataset once.
        base = S2RDFSession.from_graph(dataset.graph, num_partitions=4)
        path = os.path.join(root, "dataset")
        write = base.save_dataset(path)
        base.close()
        print(f"Saved base dataset: {write.segment_count} segments, {write.total_bytes} bytes")

        session = S2RDFSession.open_dataset(path)
        before = len(session.query(QUERY))
        print(f"Cold session answers the follows->likes query with {before} rows")

        # 2. Updates arrive: new users follow user 0, who likes new products.
        hub = entity_iri(EntityClass.USER, 0)
        updates = [
            Triple(IRI(f"http://example.org/newUser{i}"), FOLLOWS, hub) for i in range(25)
        ] + [Triple(hub, LIKES, IRI(f"http://example.org/newProduct{i}")) for i in range(5)]
        report = session.append_triples(updates)
        print(
            f"Appended {report.triples_appended} triples in {report.append_seconds:.3f}s: "
            f"{report.delta_segments} delta segments, {report.extvp_pairs_updated} ExtVP pairs "
            f"maintained, {report.dictionary_terms_added} dictionary terms added "
            f"(epoch {report.epoch}, no existing segment rewritten)"
        )

        # 3. The very next query sees base + delta merged, pruning included.
        result = session.query(QUERY)
        print(
            f"Query now returns {len(result)} rows "
            f"({result.metrics.store_segments_scanned} segments scanned, "
            f"{result.metrics.store_segments_pruned} pruned)"
        )
        assert len(result) > before

        # 4. Compaction folds the deltas back into base segments.
        compaction = session.compact()
        after = session.query(QUERY)
        print(
            f"compact() merged {compaction.delta_rows_merged} delta rows across "
            f"{compaction.tables_compacted} tables: {compaction.segments_before} -> "
            f"{compaction.segments_after} segments on disk; query returns {len(after)} rows "
            f"({after.metrics.store_segments_scanned} segments scanned)"
        )
        assert sorted(map(repr, after.relation.rows)) == sorted(map(repr, result.relation.rows))
        assert after.metrics.store_segments_scanned <= result.metrics.store_segments_scanned

        # A cold reopen sees the compacted state.
        session.close()
        reopened = S2RDFSession.open_dataset(path)
        assert len(reopened.query(QUERY)) == len(after)
        reopened.close()
        print("Reopened cold: same answers. Incremental lifecycle complete.")


if __name__ == "__main__":
    main()
