"""Pushdown scans over the dataset store: projection, predicates, pruning,
and the bucket hash the writer and the reader share."""

import zlib

import pytest

from engine.extvp_reference import reference_layout
from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store.format import key_partition_index, stable_hash
from repro.store.reader import open_dataset
from repro.store.writer import DatasetWriter


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A small graph persisted with 4 buckets, opened cold."""
    triples = [
        Triple(IRI(f"s{i}"), IRI("p"), IRI(f"o{i % 5}")) for i in range(40)
    ] + [Triple(IRI(f"s{i}"), IRI("q"), IRI(f"s{i + 1}")) for i in range(20)]
    graph = Graph(triples, name="pushdown")
    path = str(tmp_path_factory.mktemp("store") / "dataset")
    DatasetWriter(num_buckets=4).write(path, graph)
    restored, load_report, dataset = open_dataset(path)
    # The same tables as relations of terms, taken from the graph.
    return reference_layout(graph), restored, dataset, path


class TestProjectionAndPredicates:
    def test_full_read_matches_in_memory(self, stored):
        layout, restored, _, _ = stored
        for name in layout.catalog.table_names():
            assert restored.catalog.table(name) == layout.catalog.table(name), name

    def test_projection_pushdown(self, stored):
        _, restored, _, _ = stored
        scan = restored.catalog.scan("vp_p", columns=["o"])
        assert scan.relation.columns == ("o",)
        assert scan.segments_scanned > 0

    def test_equality_pushdown_matches_select_eq(self, stored):
        layout, restored, _, _ = stored
        value = IRI("o3")
        expected = layout.catalog.table("vp_p").select_eq({"o": value})
        scan = restored.catalog.scan("vp_p", columns=["s", "o"], conditions={"o": value})
        assert sorted(map(repr, scan.relation.rows)) == sorted(map(repr, expected.rows))

    def test_unknown_term_prunes_everything(self, stored):
        _, restored, _, _ = stored
        scan = restored.catalog.scan("vp_p", conditions={"o": IRI("never-seen")})
        assert len(scan.relation) == 0
        assert scan.segments_scanned == 0
        assert scan.segments_pruned > 0
        assert scan.rows_scanned == 0


class TestPruning:
    def test_bucket_pruning_on_partition_key(self, stored):
        """A bound subject hashes to one bucket; the others are never read.

        Every subject is found in the bucket its hash names, so the writer
        bucketed every row with the hash the reader prunes by."""
        _, restored, dataset, _ = stored
        entry = dataset.manifest.tables["vp_p"]
        for i in range(40):
            subject = IRI(f"s{i}")
            expected_bucket = key_partition_index((subject,), entry.num_partitions)
            scan = restored.catalog.scan("vp_p", conditions={"s": subject})
            assert [row[0] for row in scan.relation.rows] == [subject]
            read_partitions = scan.segments_scanned // len(("s", "o"))
            assert read_partitions == 1
            assert scan.rows_scanned == entry.partitions[expected_bucket].row_count

    def test_zone_map_pruning(self, stored):
        """An id outside a segment's [min, max] skips the segment unread."""
        _, restored, dataset, _ = stored
        found = None
        for name, entry in dataset.manifest.tables.items():
            if entry.num_partitions < 2:
                continue
            for column in entry.columns:
                if column in entry.partition_keys:
                    continue
                zones = [p.zones[column] for p in entry.partitions if p.row_count > 0]
                if len(zones) < 2:
                    continue
                target = max(zone.max_id for zone in zones)
                if any(not zone.may_contain(target) for zone in zones):
                    found = (name, column, target)
                    break
            if found:
                break
        assert found is not None, "expected at least one zone-map-prunable segment"
        name, column, target = found
        term = dataset.dictionary.decode(target)
        scan = restored.catalog.scan(name, conditions={column: term})
        assert scan.segments_pruned > 0
        assert term in scan.relation.column_values(column)

    def test_scan_metrics_reach_query_results(self, stored):
        _, restored, _, path = stored
        session = S2RDFSession.open_dataset(path)
        try:
            result = session.query("SELECT ?o WHERE { <s7> <p> ?o }")
            assert len(result) == 1
            assert result.metrics.store_segments_scanned > 0
            assert result.metrics.store_segments_pruned > 0
        finally:
            session.close()


class TestBucketHash:
    """The store's bucket hash: what the writer buckets by and the reader
    prunes by, so a bucket written by one process is found by another."""

    def test_stable_hash_is_deterministic(self):
        assert stable_hash(IRI("abc")) == stable_hash(IRI("abc")) == zlib.crc32(b"<abc>")
        assert stable_hash("abc") == stable_hash("abc") == zlib.crc32(b"'abc'")
        assert stable_hash(None) == zlib.crc32(b"\x00")
        assert stable_hash(IRI("abc")) != stable_hash("abc")

    def test_single_bucket_is_identity(self):
        assert {key_partition_index((IRI(f"k{i}"),), 1) for i in range(50)} == {0}

    def test_balance_over_many_distinct_keys(self):
        sizes = [0] * 8
        for i in range(2000):
            sizes[key_partition_index((IRI(f"entity{i}"),), 8)] += 1
        mean = sum(sizes) / len(sizes)
        # CRC32 spreads distinct keys near-uniformly: within 25% of the mean.
        assert all(abs(size - mean) / mean < 0.25 for size in sizes)

    def test_every_stored_row_sits_in_the_bucket_its_hash_names(self, stored):
        _, restored, dataset, _ = stored
        checked = 0
        for name, entry in dataset.manifest.tables.items():
            relation = restored.catalog.scan(name).relation
            positions = [relation.columns.index(key) for key in entry.partition_keys]
            buckets = [
                key_partition_index(tuple(row[p] for p in positions), entry.num_partitions)
                for row in relation.rows
            ]
            # Rows come out bucket after bucket, each bucket its stored length.
            assert buckets == sorted(buckets), name
            for bucket in range(entry.num_partitions):
                assert buckets.count(bucket) == entry.bucket_row_count(bucket), (name, bucket)
            checked += len(relation)
        assert checked > 0
