"""Incremental dataset updates: delta segments, append-only dictionary,
incremental ExtVP maintenance, zone-map pruning over deltas, compaction.

The load-bearing invariant throughout: a dataset grown with
``append_triples`` must be indistinguishable — by bag-equality of every
query and every table — from one rebuilt from scratch on the union graph,
both before and after ``compact()``.
"""

import os
import pathlib

import pytest

from engine.extvp_reference import reference_layout
from repro.core.session import S2RDFSession
from repro.mappings.extvp import CorrelationKind, correlation_keys
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store.format import (
    DatasetFormatError,
    StoredTermDictionary,
    dictionary_path,
    encode_term_line,
    file_path,
    key_partition_index,
    manifest_path,
    read_manifest,
)
from repro.store.reader import StoredDataset
from repro.store.writer import DatasetAppender, DatasetCompactor


def bag(relation):
    return sorted(map(repr, relation.rows))


def append(path, triples):
    """One append by a writer that opens the store just for it."""
    return DatasetAppender(StoredDataset.open(path)).append(triples)


def segment_bytes(path, segment):
    with open(file_path(path, segment.file), "rb") as handle:
        handle.seek(segment.offset)
        return handle.read(segment.size_bytes)


def base_triples():
    return [Triple(IRI(f"s{i}"), IRI("p"), IRI(f"o{i % 5}")) for i in range(40)] + [
        Triple(IRI(f"s{i}"), IRI("q"), IRI(f"s{i + 1}")) for i in range(20)
    ]


def update_triples():
    """Updates that exercise every maintenance path: new rows for existing
    predicates (new and old subjects/objects), a brand-new predicate, and a
    correlation that only exists after the append."""
    return (
        [Triple(IRI(f"s{i}"), IRI("p"), IRI("oNEW")) for i in range(40, 50)]
        + [Triple(IRI(f"s{i}"), IRI("q"), IRI(f"s{i + 1}")) for i in range(20, 45)]
        + [Triple(IRI("x1"), IRI("r"), IRI("s3")), Triple(IRI("x2"), IRI("r"), IRI("x1"))]
    )


QUERIES = [
    "SELECT * WHERE { ?x <q> ?y . ?y <p> ?o }",
    "SELECT * WHERE { ?x <q> ?y . ?y <q> ?z }",
    "SELECT ?o WHERE { <s42> <p> ?o }",
    "SELECT * WHERE { ?a <r> ?b . ?b <p> ?o }",
    "SELECT * WHERE { ?x <p> ?o . OPTIONAL { ?x <q> ?y } }",
    "SELECT * WHERE { ?s ?anypred ?o . ?o <p> ?v }",
]


@pytest.fixture()
def dataset_path(tmp_path):
    session = S2RDFSession.from_graph(Graph(base_triples()), num_partitions=4)
    path = str(tmp_path / "dataset")
    session.save_dataset(path)
    session.close()
    return path


@pytest.fixture()
def rebuilt():
    """Ground truth: a session rebuilt from the full union graph."""
    session = S2RDFSession.from_graph(Graph(base_triples() + update_triples()), num_partitions=4)
    yield session
    session.close()


class TestAppend:
    def test_queries_bag_equal_to_rebuild(self, dataset_path, rebuilt):
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.append_triples(update_triples())
            for query in QUERIES:
                assert bag(session.query(query).relation) == bag(rebuilt.query(query).relation), query
        finally:
            session.close()

    def test_reopen_after_append_is_equivalent(self, dataset_path, rebuilt):
        session = S2RDFSession.open_dataset(dataset_path)
        session.append_triples(update_triples())
        session.close()
        cold = S2RDFSession.open_dataset(dataset_path)
        try:
            for query in QUERIES:
                assert bag(cold.query(query).relation) == bag(rebuilt.query(query).relation), query
        finally:
            cold.close()

    def test_every_table_bag_equal_to_rebuild(self, dataset_path, rebuilt):
        """Stored base+delta table contents match the rebuilt relations."""
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.append_triples(update_triples())
            rebuilt_catalog = rebuilt.layout.catalog
            for name in session.layout.catalog.table_names():
                if name in rebuilt_catalog:
                    assert bag(session.layout.catalog.table(name)) == bag(
                        rebuilt_catalog.table(name)
                    ), name
        finally:
            session.close()

    def test_extvp_statistics_match_rebuild(self, dataset_path, rebuilt):
        """Row counts of every correlation pair are maintained exactly — the
        empty ones included, which both sides hold no entry for.

        (Materialisation flags may legitimately differ: appends never
        re-decide them for a correlation that had rows, a rebuild does.)
        """
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.append_triples(update_triples())
            predicates = rebuilt.layout.vp.predicates()
            assert session.layout.vp.predicates() == predicates
            for key in correlation_keys(predicates):
                info = rebuilt.layout.extvp_info(*key)
                incremental = session.layout.extvp_info(*key)
                assert incremental.name == info.name, key
                assert incremental.row_count == info.row_count, key
                assert incremental.vp_row_count == info.vp_row_count, key
            assert (
                session.layout.statistics.tables.keys() == rebuilt.layout.statistics.tables.keys()
            )
        finally:
            session.close()

    def test_a_revived_correlation_is_decided_as_a_rebuild_decides_it(self, tmp_path):
        """A correlation empty at build time that gains rows in an append is
        decided by the materialisation rule, as a new predicate's pairs are:
        its delta rows are then the whole table.  Flag, row count, distinct
        counts and the rows its bitmaps select equal a rebuild's and the
        definition's — for a row revived in ``VP_first`` by a value new to
        ``VP_second`` (OS and SO of p|q) and for a new row (OS and SO of q|p)."""
        path = str(tmp_path / "dataset")
        base = [Triple.of("a", "p", "x"), Triple.of("c", "p", "w"), Triple.of("b", "q", "y")]
        added = [Triple.of("x", "q", "a")]
        p, q = IRI("p"), IRI("q")
        revived = [
            (CorrelationKind.OS, p, q),
            (CorrelationKind.SO, p, q),
            (CorrelationKind.OS, q, p),
            (CorrelationKind.SO, q, p),
        ]
        with S2RDFSession.from_graph(Graph(base)) as session:
            session.save_dataset(path)
            assert all(session.layout.extvp_info(*key).is_empty for key in revived)
            assert not session.layout.statistics.tables.keys() & set(revived)
        graph = Graph(base + added)
        reference = reference_layout(graph)
        with S2RDFSession.open_dataset(path) as appended, S2RDFSession.from_graph(
            graph
        ) as rebuilt:
            appended.append_triples(added)
            with S2RDFSession.open_dataset(path) as reopened:
                for session in (appended, reopened, rebuilt):
                    layout, catalog = session.layout, session.layout.catalog
                    for key in correlation_keys([p, q]):
                        expected = reference.statistics.tables[key]
                        info = layout.extvp_info(*key)
                        assert (info.name, info.row_count, info.materialized) == (
                            expected.name,
                            expected.row_count,
                            expected.materialized,
                        ), key
                        if not info.materialized:
                            assert info.name not in catalog, key
                            continue
                        defined = reference.catalog.statistics(info.name)
                        stored = catalog.statistics(info.name)
                        assert (stored.distinct_subjects, stored.distinct_objects) == (
                            defined.distinct_subjects,
                            defined.distinct_objects,
                        ), key
                        assert bag(catalog.scan(info.name).relation) == bag(
                            reference.catalog.table(info.name)
                        ), key
                    for key in revived:
                        assert layout.extvp_info(*key).materialized, key
                        assert layout.extvp_info(*key).selectivity == 0.5, key

    def test_extvp_distinct_counts_exact_after_append(self, dataset_path):
        """Appends keep the manifest's ExtVP distinct counts *exact* — equal
        to a recomputation over the table's rows — not merely a bounded
        estimate (the pre-maintenance behaviour)."""
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            written = {
                name: list(selection.bitmaps)
                for entry in read_manifest(dataset_path).tables.values()
                for name, selection in entry.selections.items()
            }
            updates = update_triples()
            session.append_triples(updates[:15])
            session.append_triples(updates[15:])
            manifest = read_manifest(dataset_path)
            grown = 0
            for entry in manifest.tables.values():
                for name, selection in entry.selections.items():
                    relation = session.layout.catalog.table(name)
                    assert selection.row_count == len(relation), name
                    assert selection.distinct_subjects == len({row[0] for row in relation.rows}), name
                    assert selection.distinct_objects == len({row[1] for row in relation.rows}), name
                    grown += selection.bitmaps != written.get(name)
            assert grown > 0  # the appends really added rows to ExtVP tables
        finally:
            session.close()

    def test_no_segment_rewritten_and_deltas_recorded(self, dataset_path):
        manifest_before = read_manifest(dataset_path)
        base = {
            (entry.name, bucket): (partition, segment_bytes(dataset_path, partition))
            for entry in manifest_before.tables.values()
            for bucket, partition in enumerate(entry.partitions)
        }
        report = append(dataset_path, update_triples())
        assert report.triples_appended == len(update_triples())
        assert report.delta_segments > 0
        assert report.new_predicates == 1
        manifest = read_manifest(dataset_path)
        assert manifest.append_epoch == 1
        assert any(entry.has_deltas for entry in manifest.tables.values())
        for entry in manifest.tables.values():
            assert entry.row_count == entry.base_row_count() + entry.delta_row_count(), entry.name
        # Deltas went behind the committed end of each table's file: every
        # base segment is where it was and holds the bytes it held.
        for (name, bucket), (partition, data) in base.items():
            after = manifest.tables[name].partitions[bucket]
            assert after == partition, f"{name}[{bucket}] was re-addressed"
            assert segment_bytes(dataset_path, after) == data, f"{name}[{bucket}] was rewritten"
        for entry in manifest.tables.values():
            for delta in entry.deltas:
                assert delta.file == entry.file
            size = os.path.getsize(file_path(dataset_path, entry.file))
            assert size == entry.committed_bytes, entry.name
        # Likewise the bitmaps: one that gained no bit is where it was; one
        # that did was written anew behind the old end of the file, and the
        # blob it supersedes still lies there, referenced by nothing.
        moved = 0
        for entry in manifest_before.tables.values():
            after = manifest.tables[entry.name]
            for name, selection in entry.selections.items():
                for old, new in zip(selection.bitmaps, after.selections[name].bitmaps):
                    if new != old:
                        assert new.rows > old.rows and new.offset >= entry.committed_bytes, name
                        moved += old.size_bytes
            assert after.dead_bytes() == sum(
                old.size_bytes
                for name, selection in entry.selections.items()
                for old, new in zip(selection.bitmaps, after.selections[name].bitmaps)
                if new != old
            ), entry.name
        assert moved > 0
        assert not any(name.startswith("extvp_") for name in os.listdir(f"{dataset_path}/tables"))

    def test_duplicate_triples_are_skipped(self, dataset_path):
        report = append(dataset_path, base_triples())
        assert report.triples_appended == 0
        assert report.duplicate_triples == len(base_triples())
        assert report.delta_segments == 0
        assert read_manifest(dataset_path).append_epoch == 0  # no-op: nothing committed

    def test_repeated_appends_stack(self, dataset_path):
        updates = update_triples()
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.append_triples(updates[:10])
            session.append_triples(updates[10:])
            truth = S2RDFSession.from_graph(Graph(base_triples() + updates), num_partitions=4)
            for query in QUERIES:
                assert bag(session.query(query).relation) == bag(truth.query(query).relation)
            truth.close()
            assert read_manifest(dataset_path).append_epoch == 2
        finally:
            session.close()

    def test_bytes_written_do_not_depend_on_batch_order(self, dataset_path, tmp_path):
        """New terms get their ids in sorted-triple order, not in the order
        the caller's collection happens to iterate (a ``Graph`` is a hash
        set): the same batch always writes the same bytes."""
        import shutil

        twin = str(tmp_path / "twin")
        shutil.copytree(dataset_path, twin)
        append(dataset_path, update_triples())
        append(twin, list(reversed(update_triples())))
        for root, _, names in os.walk(dataset_path):
            for name in names:
                original = os.path.join(root, name)
                with open(original, "rb") as one, open(
                    os.path.join(twin, os.path.relpath(original, dataset_path)), "rb"
                ) as two:
                    assert one.read() == two.read(), name

    def test_delta_rows_land_in_the_bucket_their_hash_names(self, dataset_path):
        append(dataset_path, update_triples())
        manifest = read_manifest(dataset_path)
        entry = manifest.tables["vp_p"]
        assert entry.has_deltas and entry.partition_keys == ("s",)
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            scan = session.layout.catalog.scan("vp_p")
            assert len(scan.relation) == entry.row_count
            # Rows come out bucket after bucket, and every row of bucket i
            # hashes to i — base and delta rows alike.
            buckets = [
                key_partition_index((row[0],), entry.num_partitions) for row in scan.relation.rows
            ]
            assert buckets == sorted(buckets)
            for bucket in range(entry.num_partitions):
                assert buckets.count(bucket) == entry.bucket_row_count(bucket)
        finally:
            session.close()

    def test_append_requires_persisted_session(self, small_dataset):
        session = S2RDFSession.from_graph(small_dataset.graph)
        try:
            with pytest.raises(RuntimeError, match="save_dataset"):
                session.append_triples(update_triples())
        finally:
            session.close()

    def test_new_predicate_gets_collision_free_table(self, tmp_path):
        """A new predicate whose key collides with an existing table name."""
        session = S2RDFSession.from_graph(
            Graph([Triple(IRI("a"), IRI("http://one.example/name"), IRI("b"))])
        )
        path = str(tmp_path / "dataset")
        session.save_dataset(path)
        session.close()
        cold = S2RDFSession.open_dataset(path)
        try:
            cold.append_triples([Triple(IRI("c"), IRI("http://two.example/name"), IRI("d"))])
            manifest = read_manifest(path)
            names = [
                info["table"] for info in manifest.vp_tables.values()
            ]
            assert len(set(names)) == 2  # no clobbering
            result = cold.query("SELECT * WHERE { ?x <http://two.example/name> ?y }")
            assert len(result) == 1
        finally:
            cold.close()


class TestDictionaryAppendSemantics:
    def test_ids_stable_across_appends(self, dataset_path):
        before = read_manifest(dataset_path)
        old_dictionary = StoredTermDictionary.open(dataset_path, expected_size=before.dictionary_size)
        old_ids = {old_dictionary.decode(i): i for i in range(len(old_dictionary))}
        append(dataset_path, update_triples())
        after = read_manifest(dataset_path)
        assert after.dictionary_size > before.dictionary_size
        new_dictionary = StoredTermDictionary.open(dataset_path, expected_size=after.dictionary_size)
        for term, term_id in old_ids.items():
            assert new_dictionary.decode(term_id) == term
            assert new_dictionary.lookup(term) == term_id
        # Appended terms occupy the new tail of the id range only.
        assert new_dictionary.lookup(IRI("oNEW")) is not None
        assert new_dictionary.lookup(IRI("oNEW")) >= before.dictionary_size

    def test_decode_rejects_ids_beyond_committed_range(self, dataset_path):
        manifest = read_manifest(dataset_path)
        dictionary = StoredTermDictionary.open(dataset_path, expected_size=manifest.dictionary_size)
        with pytest.raises(KeyError):
            dictionary.decode(manifest.dictionary_size)
        with pytest.raises(KeyError):
            dictionary.decode(-1)

    def test_uncommitted_trailing_lines_are_ignored(self, dataset_path):
        """A crash between dictionary append and manifest rewrite leaves
        trailing lines; the manifest size is the commit point."""
        manifest = read_manifest(dataset_path)
        with open(dictionary_path(dataset_path), "a", encoding="ascii", newline="\n") as handle:
            handle.write(encode_term_line(IRI("uncommitted-term")) + "\n")
        dictionary = StoredTermDictionary.open(dataset_path, expected_size=manifest.dictionary_size)
        assert len(dictionary) == manifest.dictionary_size
        assert dictionary.lookup(IRI("uncommitted-term")) is None
        with pytest.raises(KeyError):
            dictionary.decode(manifest.dictionary_size)

    def test_reopen_after_append_roundtrips(self, dataset_path):
        append(dataset_path, update_triples())
        manifest = read_manifest(dataset_path)
        dictionary = StoredTermDictionary.open(dataset_path, expected_size=manifest.dictionary_size)
        for term_id in range(len(dictionary)):
            term = dictionary.decode(term_id)
            assert dictionary.lookup(term) == term_id

    def test_manifest_commit_is_atomic_swap(self, dataset_path):
        """The manifest is written to a temp file and swapped in — no temp
        residue, and the committed manifest always parses."""
        append(dataset_path, update_triples())
        assert not os.path.exists(manifest_path(dataset_path) + ".tmp")
        assert read_manifest(dataset_path).append_epoch == 1

    def test_retried_append_repairs_orphan_lines(self, dataset_path, rebuilt):
        """A retry after a crash mid-append must truncate the crashed
        attempt's orphan dictionary lines, or the retry's ids would point at
        the wrong line numbers."""
        manifest = read_manifest(dataset_path)
        with open(dictionary_path(dataset_path), "a", encoding="ascii", newline="\n") as handle:
            for i in range(5):
                handle.write(encode_term_line(IRI(f"crashed-orphan-{i}")) + "\n")
        append(dataset_path, update_triples())
        after = read_manifest(dataset_path)
        dictionary = StoredTermDictionary.open(dataset_path, expected_size=after.dictionary_size)
        with open(dictionary_path(dataset_path), "rb") as handle:
            assert handle.read().count(b"\n") == after.dictionary_size  # orphans gone
        assert dictionary.lookup(IRI("crashed-orphan-0")) is None
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            for query in QUERIES:
                assert bag(session.query(query).relation) == bag(rebuilt.query(query).relation), query
        finally:
            session.close()


class TestDeltaZonePruning:
    def test_all_base_segments_pruned_deltas_still_scanned(self, dataset_path):
        """An equality predicate on a term that only exists in deltas: every
        base segment is zone-map-pruned, yet the matching delta rows are
        found, and scanned + pruned reconciles with the total segment count."""
        append(dataset_path, update_triples())
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            manifest = read_manifest(dataset_path)
            entry = manifest.tables["vp_p"]
            # "oNEW" entered the dictionary during the append, so its id is
            # beyond every base segment's zone-map range by construction.
            scan = session.layout.catalog.scan("vp_p", conditions={"o": IRI("oNEW")})
            assert len(scan.relation) == 10
            assert {row[1] for row in scan.relation.rows} == {IRI("oNEW")}
            columns = len(entry.columns)
            assert scan.segments_pruned >= len(entry.partitions) * columns
            assert scan.segments_scanned > 0
            assert scan.segments_scanned + scan.segments_pruned == entry.segment_count() * columns
            # No base segment was read: only delta rows entered the scan.
            assert scan.rows_scanned <= entry.delta_row_count()
        finally:
            session.close()

    def test_metrics_reconcile_through_query(self, dataset_path):
        append(dataset_path, update_triples())
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            result = session.query('SELECT ?s WHERE { ?s <p> <oNEW> }')
            assert len(result) == 10
            assert result.metrics.store_segments_pruned > 0
            assert result.metrics.store_segments_scanned > 0
        finally:
            session.close()

    def test_bucket_pruning_applies_to_deltas(self, dataset_path):
        """A bound subject prunes delta segments of other buckets too."""
        append(dataset_path, update_triples())
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            manifest = read_manifest(dataset_path)
            entry = manifest.tables["vp_q"]
            subject = IRI("s30")  # appended row: s30 -q-> s31
            target = key_partition_index((subject,), entry.num_partitions)
            scan = session.layout.catalog.scan("vp_q", conditions={"s": subject})
            assert [row[0] for row in scan.relation.rows] == [subject]
            scanned_rows_in_target = sum(
                segment.row_count for segment in entry.segments_for_bucket(target)
            )
            assert scan.rows_scanned <= scanned_rows_in_target
        finally:
            session.close()


class TestCompaction:
    def test_compaction_preserves_results_with_fewer_segments(self, dataset_path, rebuilt):
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.append_triples(update_triples())
            before = {
                query: session.query(query).metrics.store_segments_scanned for query in QUERIES
            }
            manifest = read_manifest(dataset_path)
            segments_with_deltas = sum(e.segment_count() for e in manifest.tables.values())
            report = session.compact()
            assert report.tables_compacted > 0
            assert report.segments_after < report.segments_before == segments_with_deltas
            manifest = read_manifest(dataset_path)
            assert not any(entry.has_deltas for entry in manifest.tables.values())
            for query in QUERIES:
                result = session.query(query)
                assert bag(result.relation) == bag(rebuilt.query(query).relation), query
                assert result.metrics.store_segments_scanned <= before[query], query
            # The table-5-style merged-scan query must touch strictly fewer
            # segments once its deltas are folded in.
            merged_scan_query = QUERIES[0]
            assert (
                session.query(merged_scan_query).metrics.store_segments_scanned
                < before[merged_scan_query]
            )
        finally:
            session.close()

    def test_compacted_dataset_reopens_equivalent(self, dataset_path, rebuilt):
        session = S2RDFSession.open_dataset(dataset_path)
        session.append_triples(update_triples())
        session.compact()
        session.close()
        cold = S2RDFSession.open_dataset(dataset_path)
        try:
            for query in QUERIES:
                assert bag(cold.query(query).relation) == bag(rebuilt.query(query).relation), query
        finally:
            cold.close()

    def test_threshold_bounds_compaction(self, dataset_path):
        """Above every file's delta count the threshold spares the deltas; a
        file is still rewritten when it carries superseded bitmaps."""
        append(dataset_path, update_triples())
        manifest = read_manifest(dataset_path)
        max_deltas = max(len(entry.deltas) for entry in manifest.tables.values())
        with_dead_bytes = {e.name for e in manifest.tables.values() if e.dead_bytes()}
        with_deltas = {e.name for e in manifest.tables.values() if e.deltas}
        assert with_dead_bytes and with_deltas - with_dead_bytes
        report = DatasetCompactor(compaction_threshold=max_deltas + 1).compact(StoredDataset.open(dataset_path))
        assert report.tables_compacted == len(with_dead_bytes)
        assert report.tables_skipped == len(with_deltas - with_dead_bytes)
        after = read_manifest(dataset_path)
        for name, entry in after.tables.items():
            assert bool(entry.deltas) == (name in with_deltas - with_dead_bytes), name
            assert not entry.dead_bytes()

    def test_compaction_without_deltas_is_a_noop(self, dataset_path):
        report = DatasetCompactor().compact(StoredDataset.open(dataset_path))
        assert report.tables_compacted == 0
        assert report.delta_rows_merged == 0

    def test_compaction_threshold_validation(self):
        with pytest.raises(ValueError):
            DatasetCompactor(compaction_threshold=0)

    def test_delta_only_table_gains_base_partitions(self, dataset_path):
        append(dataset_path, update_triples())
        manifest = read_manifest(dataset_path)
        assert manifest.tables["vp_r"].partitions == []  # delta-only so far
        DatasetCompactor().compact(StoredDataset.open(dataset_path))
        manifest = read_manifest(dataset_path)
        entry = manifest.tables["vp_r"]
        assert len(entry.partitions) == entry.num_partitions
        assert not entry.has_deltas
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            assert len(session.layout.catalog.table("vp_r")) == 2
        finally:
            session.close()

    def test_compaction_writes_new_files_then_deletes_old(self, dataset_path):
        """The previous manifest stays valid until the new one commits: a
        merged table lands in a new generation-stamped file, and the
        superseded file is gone only after the commit."""
        import pathlib

        append(dataset_path, update_triples())
        before = read_manifest(dataset_path)
        old_files = {e.file for e in before.tables.values() if e.has_deltas or e.dead_bytes()}
        untouched = {e.file for e in before.tables.values()} - old_files
        DatasetCompactor().compact(StoredDataset.open(dataset_path))
        after = read_manifest(dataset_path)
        assert after.append_epoch == before.append_epoch + 1
        new_files = {entry.file for entry in after.tables.values()}
        assert not (new_files & old_files)  # nothing overwritten in place
        assert untouched <= new_files
        for file in old_files:
            assert not (pathlib.Path(dataset_path) / file).exists(), file
        on_disk = {f"tables/{p.name}" for p in (pathlib.Path(dataset_path) / "tables").iterdir()}
        assert on_disk == new_files

    def test_zone_maps_tightened_after_compaction(self, dataset_path):
        """Merged base segments carry zone maps recomputed from actual ids."""
        append(dataset_path, update_triples())
        DatasetCompactor().compact(StoredDataset.open(dataset_path))
        manifest = read_manifest(dataset_path)
        dictionary = StoredTermDictionary.open(dataset_path, expected_size=manifest.dictionary_size)
        for entry in manifest.tables.values():
            for partition in entry.partitions:
                for column, zone in partition.zones.items():
                    assert zone.row_count == partition.row_count
                    if zone.row_count and zone.min_id >= 0:
                        assert zone.min_id <= zone.max_id < manifest.dictionary_size


#: A batch that revives old ``p`` rows and no others: ``o2`` is an object of
#: 8 ``p`` rows and nowhere else, and becomes a subject of the new ``r``.
REVIVE_P = [Triple(IRI("o2"), IRI("r"), IRI("x1"))]
SCAN_P = "SELECT * WHERE { ?s <p> ?o }"
REVIVED_P = "SELECT ?s WHERE { ?s <p> ?o . ?o <r> ?x }"


class TestAppendCost:
    """The manifest's persisted per-predicate value sets make appends
    O(batch): dedup, VP statistics and ExtVP pair evaluation run against the
    sets, and segments are decoded only when a value-set intersection proves
    an old row can actually qualify — through the dataset's table handles,
    so a segment decoded once stays decoded."""

    @staticmethod
    def _count_segment_reads(monkeypatch, origins=None):
        """Names of the tables whose segments are decoded from now on (and,
        into ``origins``, each decoded segment's "<file> at offset <n>").

        Table handles decode in the reader; a decode anywhere else in the
        store counts too, as "segment" when it does not say where from."""
        import repro.store.reader as reader_mod
        import repro.store.writer as writer_mod

        calls = []
        real = reader_mod.decode_segment

        def counting(data, columns=None, interned=None, origin="segment"):
            where = origin.split(" at offset ")[0]
            calls.append(os.path.basename(where).split(".")[0])  # tables/<name>[.<epoch>].seg
            if origins is not None:
                origins.append(origin)
            return real(data, columns, interned, origin)

        monkeypatch.setattr(reader_mod, "decode_segment", counting)
        monkeypatch.setattr(writer_mod, "decode_segment", counting)
        return calls

    def test_fresh_term_append_reads_no_base_segments(self, dataset_path, monkeypatch):
        """A small append of fresh subjects/objects must not read a single
        stored segment — the whole maintenance pass runs on the manifest's
        value sets."""
        calls = self._count_segment_reads(monkeypatch)
        report = append(
            dataset_path,
            [
                Triple(IRI("fresh-a"), IRI("p"), IRI("fresh-b")),
                Triple(IRI("fresh-c"), IRI("q"), IRI("fresh-d")),
            ],
        )
        assert report.triples_appended == 2
        assert calls == [], f"append read base segments: {calls}"
        # The appended rows are visible and correct on reopen.
        session = S2RDFSession.open_dataset(dataset_path)
        result = session.query("SELECT ?o WHERE { <fresh-a> <p> ?o }")
        assert bag(result.relation) == [repr((IRI("fresh-b"),))]
        session.close()

    def test_overlapping_append_reads_only_when_sets_intersect(
        self, dataset_path, monkeypatch
    ):
        """Old-row revival (a value newly added to VP_second's join column)
        legitimately needs stored rows — but only of the VP tables whose
        value sets actually intersect the additions."""
        calls = self._count_segment_reads(monkeypatch)
        # <r> is new; its object s3 already occurs as a subject of <p>/<q>,
        # so old <p>/<q> rows are revived into extvp tables against <r>.
        report = append(dataset_path, [Triple(IRI("x1"), IRI("r"), IRI("s3"))])
        assert report.triples_appended == 1
        assert set(calls) <= {"vp_p", "vp_q", "triples"}, calls

    def test_duplicate_detection_via_value_set_prefilter(self, dataset_path, monkeypatch):
        """An exact duplicate passes the subject/object prefilter and forces
        one row-set read of its own VP table; a pair of *known* ids that was
        never a row is rejected the same way."""
        calls = self._count_segment_reads(monkeypatch)
        report = append(dataset_path, [Triple(IRI("s0"), IRI("p"), IRI("o0"))])  # a stored row
        assert report.triples_appended == 0
        assert report.duplicate_triples == 1
        assert set(calls) == {"vp_p"}, calls

    def test_append_reviving_rows_of_a_scanned_table_decodes_nothing(
        self, dataset_path, monkeypatch
    ):
        """The old rows an append needs are the session's decoded columns:
        after a query scanned ``VP_p``, reviving ``p`` rows decodes no segment."""
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            assert len(session.query(SCAN_P).relation) == 40
            calls = self._count_segment_reads(monkeypatch)
            report = session.append_triples(REVIVE_P)
            assert report.triples_appended == 1
            assert calls == [], calls
            assert len(session.query(REVIVED_P).relation) == 8
        finally:
            session.close()

    def test_each_needed_base_segment_is_decoded_once(self, dataset_path, monkeypatch):
        """On a fresh connect the append decodes each base segment of ``VP_p``
        once, and the queries after it find them still decoded."""
        import repro

        origins = []
        calls = self._count_segment_reads(monkeypatch, origins)
        with repro.connect(dataset_path) as session:
            session.append_triples(REVIVE_P)
            assert set(calls) == {"vp_p"}, calls
            base = read_manifest(dataset_path).tables["vp_p"].partitions
            assert sorted(origins) == sorted(
                f"{file_path(dataset_path, segment.file)} at offset {segment.offset}"
                for segment in base
                if segment.row_count
            )
            del calls[:]
            assert len(session.query(SCAN_P).relation) == 40
            assert len(session.query(REVIVED_P).relation) == 8
            assert set(calls) == {"vp_r"}, calls  # only the new table's delta segment

    def test_rows_are_read_before_entries_change(self, dataset_path):
        """A handle lists the segments of its committed entry, so the appender
        reads every row before it changes an entry in place and seals its
        source then: a table first asked for after that is refused."""
        from repro.store.writer import _StoredVPSource

        dataset = StoredDataset.open(dataset_path)
        source = _StoredVPSource(dataset)
        assert len(source.positions(IRI("p"))) == 40
        source.seal()
        assert len(list(source.rows(IRI("p")))) == 40  # read before: still answered
        with pytest.raises(RuntimeError, match="vp_q"):
            source.positions(IRI("q"))

    def test_stale_handle_is_refused(self, dataset_path):
        """An appender reads through the dataset's handles, so a caller that
        appends twice re-registers what the first append touched in between."""
        dataset = StoredDataset.open(dataset_path)
        dataset.table("vp_p").bucket_segments()  # the handle holds the committed lists
        first = DatasetAppender(dataset).append([Triple(IRI("s1"), IRI("p"), IRI("oNEW"))])
        with pytest.raises(RuntimeError, match="re-register"):
            DatasetAppender(dataset).append(REVIVE_P)
        for name in first.touched_tables:
            dataset.changed_table(name)
        assert DatasetAppender(dataset).append(REVIVE_P).triples_appended == 1

    def test_appends_around_a_compaction_read_the_handles_it_left(self, dataset_path):
        """A compaction rewrites entries in place and re-registers what it
        merged; the next append reads those handles' rows (``<q>``'s, revived
        by ``r``'s new objects) and the result is the rebuild's."""
        updates = update_triples()
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.query(SCAN_P)
            session.append_triples(updates[:15])
            assert session.compact().tables_compacted
            session.append_triples(updates[15:] + REVIVE_P)
            truth = S2RDFSession.from_graph(
                Graph(base_triples() + updates + REVIVE_P), num_partitions=4
            )
            try:
                for query in QUERIES + [REVIVED_P]:
                    assert bag(session.query(query).relation) == bag(
                        truth.query(query).relation
                    ), query
                assert session.layout.statistics.tables == truth.layout.statistics.tables
            finally:
                truth.close()
        finally:
            session.close()

    def test_value_sets_persisted_and_updated(self, dataset_path):
        manifest = read_manifest(dataset_path)
        assert set(manifest.vp_value_sets) == set(manifest.vp_tables)
        before = manifest.vp_value_sets[IRI("p")]
        append(dataset_path, [Triple(IRI("fresh-a"), IRI("p"), IRI("fresh-b"))])
        after = read_manifest(dataset_path).vp_value_sets[IRI("p")]
        assert len(after["s"]) == len(before["s"]) + 1
        assert len(after["o"]) == len(before["o"]) + 1


class TestFormatVersion:
    def test_older_format_is_refused_with_a_rebuild_hint(self, dataset_path):
        """There is one format: a version-3 directory (every ExtVP table a
        file of its own rows) or a version-2 one (one file per segment) is not
        read, and the error says what to do about it."""
        import json

        for version in (3, 2):
            with open(manifest_path(dataset_path), "w", encoding="utf-8") as handle:
                json.dump({"format_version": version, "tables": [], "extvp": []}, handle)
            with pytest.raises(DatasetFormatError) as refused:
                S2RDFSession.open_dataset(dataset_path)
            message = str(refused.value)
            assert f"version {version}" in message and "version 4" in message
            assert "repro.create" in message


# --------------------------------------------------------------------- #
# Session-resident store state: a write costs what its batch costs
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def suite_store(tmp_path_factory):
    """The repo benchmark's store in miniature: WatDiv at scale factor 3 on 2
    buckets (~1 000 tables), with the triples of the last tenth of the Review
    entities held out as one entity-centric append batch.  Also returns the
    bytes the full build wrote."""
    from repro.watdiv import EntityClass, entity_iri, generate_dataset

    dataset = generate_dataset(scale_factor=3.0, seed=42)
    count = dataset.entity_counts[EntityClass.REVIEW]
    held_out = {entity_iri(EntityClass.REVIEW, index) for index in range(count - count // 10, count)}
    stored, batch = [], []
    for triple in dataset.graph:
        is_held_out = triple.subject in held_out or triple.object in held_out
        (batch if is_held_out else stored).append(triple)
    path = str(tmp_path_factory.mktemp("suite-shaped") / "store")
    saved = S2RDFSession.from_graph(Graph(stored), num_partitions=2).save_dataset(path)
    return path, batch, saved.total_bytes


def store_files(path):
    """Every file of the dataset directory except the query journal."""
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(path)
        if os.path.basename(root) != "journal"
        for name in names
    )


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestResidentState:
    def test_append_rereads_nothing_and_reregisters_only_what_it_touched(
        self, suite_store, tmp_path, monkeypatch
    ):
        import shutil

        import repro.store.reader as reader_mod
        import repro.store.writer as writer_mod

        source, review_batch, rebuild_bytes = suite_store
        path = str(tmp_path / "store")
        shutil.copytree(source, path)
        session = S2RDFSession.open_dataset(path)
        try:
            catalog = session.layout.catalog
            table_count = catalog.table_count()
            assert table_count > 900
            # Decode a spread of tables; the untouched ones must still be
            # decoded — the very same relation objects — after the appends.
            decoded = {name: catalog.table(name) for name in catalog.table_names()[::9]}
            files = store_files(path)

            manifest_reads = count_calls(monkeypatch, reader_mod, "read_manifest")
            segment_reads = count_calls(monkeypatch, writer_mod, "read_file_range")
            registered = count_calls(monkeypatch, catalog, "register_stored")

            # 1. Fresh terms only: nothing stored can match, nothing is read.
            predicates = sorted(session.layout.vp.vp_tables, key=lambda p: p.value)[:3]
            fresh = session.append_triples(
                [
                    Triple(IRI(f"fresh-s{i}"), predicate, IRI(f"fresh-o{i}"))
                    for i, predicate in enumerate(predicates)
                ]
            )
            assert fresh.triples_appended == 3
            assert manifest_reads == [] and segment_reads == []
            assert sorted(call[0] for call in registered) == fresh.touched_tables
            assert len(registered) < 200

            # 2. The benchmark's kind of batch: new entities pointing at old ones.
            del registered[:]
            report = session.append_triples(review_batch)
            assert report.triples_appended == len(review_batch) > 30
            # Appends write deltas; a rebuild rewrites every segment and the
            # dictionary (and would be of a larger graph than this one).
            assert report.bytes_written * 5 < rebuild_bytes
            assert manifest_reads == []
            assert sorted(call[0] for call in registered) == report.touched_tables
            assert 0 < len(registered) < 200 < table_count
            assert report.tables_created == 0
            assert store_files(path) == files  # appended in place, no new file

            touched = set(fresh.touched_tables) | set(report.touched_tables)
            assert touched & set(decoded) and set(decoded) - touched
            for name, relation in decoded.items():
                if name in touched:
                    assert not catalog.is_loaded(name), name
                else:
                    assert catalog.table(name) is relation, name

            # What the resident state became is what a cold open reads back.
            cold = S2RDFSession.open_dataset(path)
            try:
                assert cold.layout.statistics.tables == session.layout.statistics.tables
                for name in sorted(touched)[::7]:
                    assert bag(cold.layout.catalog.table(name)) == bag(catalog.table(name)), name
                    assert cold.layout.catalog.statistics(name) == catalog.statistics(name), name
                query = "SELECT * WHERE { <fresh-s0> ?p ?o }"
                assert bag(cold.query(query).relation) == bag(session.query(query).relation)
                assert len(cold.query(query).relation) == 1
            finally:
                cold.close()
        finally:
            session.close()

    def test_stale_resident_copy_is_detected_and_reread(self, dataset_path, monkeypatch):
        """Two sessions on one directory: the second one's commit makes the
        first one's resident copy stale; its next append must notice (the
        manifest is no longer the file it last read or wrote), re-read, and
        build on the other session's batch instead of overwriting it."""
        import repro.store.reader as reader_mod

        updates = update_triples()
        first = S2RDFSession.open_dataset(dataset_path)
        second = S2RDFSession.open_dataset(dataset_path)
        try:
            first.append_triples(updates[:5])  # its resident copy is now its own write
            second.append_triples(updates[5:20])
            manifest_reads = count_calls(monkeypatch, reader_mod, "read_manifest")
            report = first.append_triples(updates[20:])
            assert len(manifest_reads) == 1  # re-read once, because it had to
            assert report.triples_appended == len(updates[20:])
            assert report.epoch == 3
            first.append_triples([Triple(IRI("x9"), IRI("r"), IRI("s3"))])
            assert len(manifest_reads) == 1  # current again: trusted again
            truth = S2RDFSession.from_graph(
                Graph(base_triples() + updates + [Triple(IRI("x9"), IRI("r"), IRI("s3"))]),
                num_partitions=4,
            )
            cold = S2RDFSession.open_dataset(dataset_path)
            try:
                for query in QUERIES:
                    expected = bag(truth.query(query).relation)
                    assert bag(first.query(query).relation) == expected, query
                    assert bag(cold.query(query).relation) == expected, query
            finally:
                truth.close()
                cold.close()
        finally:
            first.close()
            second.close()

    def test_first_append_after_save_works_on_the_committed_image(self, tmp_path, rebuilt):
        """A session that built its layout in memory serves its store image;
        saving commits that image, and the first append works on it in place
        — nothing is re-read or re-registered beyond what the append touched."""
        session = S2RDFSession.from_graph(Graph(base_triples()), num_partitions=4)
        try:
            held = session._dataset
            assert session.layout.catalog.is_stored("vp_p") and not held.is_current()
            session.save_dataset(str(tmp_path / "dataset"))
            assert session._dataset is held and held.is_current()
            session.append_triples(update_triples())
            assert session._dataset is held
            for query in QUERIES:
                assert bag(session.query(query).relation) == bag(rebuilt.query(query).relation)
        finally:
            session.close()

    def test_compaction_below_threshold_leaves_files_byte_identical(self, dataset_path):
        updates = update_triples()
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            session.append_triples(updates[:15])
            session.append_triples(updates[15:])
            before = read_manifest(dataset_path)
            rewritten = sorted(
                entry.name
                for entry in before.tables.values()
                if len(entry.deltas) >= 3 or entry.dead_bytes()
            )
            spared = {
                entry.file: pathlib.Path(file_path(dataset_path, entry.file)).read_bytes()
                for entry in before.tables.values()
                if entry.name not in rewritten
            }
            assert any(entry.deltas for entry in before.tables.values() if entry.file in spared)
            report = session.compact(compaction_threshold=3)
            assert report.tables_compacted == len(rewritten) > 0 and report.tables_skipped > 0
            # Touched: the tables whose deltas were merged and every selection
            # over them — not a file that only shed its dead bytes.
            merged = [name for name in rewritten if before.tables[name].deltas]
            assert sorted(report.touched_tables) == sorted(
                merged + [n for name in merged for n in before.tables[name].selections]
            )
            after = read_manifest(dataset_path)
            for file, data in spared.items():
                assert pathlib.Path(file_path(dataset_path, file)).read_bytes() == data, file
            assert {e.file for e in after.tables.values() if e.name not in rewritten} == set(spared)
            for entry in after.tables.values():
                assert (entry.generation != 0) == (entry.name in rewritten)
        finally:
            session.close()
