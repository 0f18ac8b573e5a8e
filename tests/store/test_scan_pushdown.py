"""Pushdown scans over the dataset store: projection, predicates, pruning,
and partition-aligned consumption by the parallel runtime."""

import pytest

from repro.core.session import S2RDFSession
from repro.engine.relation import Relation
from repro.engine.runtime.partitioner import HashPartitioner, key_partition_index
from repro.mappings.extvp import ExtVPLayout
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store.format import read_manifest
from repro.store.reader import open_dataset
from repro.store.writer import DatasetWriter


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A small graph persisted with 4 buckets, opened cold."""
    triples = [
        Triple(IRI(f"s{i}"), IRI("p"), IRI(f"o{i % 5}")) for i in range(40)
    ] + [Triple(IRI(f"s{i}"), IRI("q"), IRI(f"s{i + 1}")) for i in range(20)]
    layout = ExtVPLayout(selectivity_threshold=1.0)
    layout.build(Graph(triples, name="pushdown"))
    path = str(tmp_path_factory.mktemp("store") / "dataset")
    DatasetWriter(num_buckets=4).write(path, layout)
    restored, load_report, dataset = open_dataset(path)
    return layout, restored, dataset, path


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
        """A bound subject hashes to one bucket; the others are never read."""
        _, restored, dataset, _ = stored
        subject = IRI("s7")
        entry = dataset.manifest.tables["vp_p"]
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


@pytest.mark.usefixtures("force_partitioned_joins")
class TestPartitionAlignment:
    def test_scan_output_carries_partitioning(self, stored):
        _, restored, dataset, _ = stored
        scan = restored.catalog.scan("vp_p")
        tag = scan.relation.partitioning
        assert tag is not None
        assert tag.keys == ("s",)
        assert tag.num_partitions == dataset.manifest.num_buckets
        assert sum(tag.counts) == len(scan.relation)

    def test_stored_buckets_match_hash_partitioner(self, stored):
        """Slicing the tagged scan equals re-partitioning with HashPartitioner."""
        _, restored, _, _ = stored
        scan = restored.catalog.scan("vp_p")
        relation = scan.relation
        partitioner = HashPartitioner(relation.partitioning.num_partitions)
        rehashed = partitioner.partition(Relation(relation.columns, relation.rows), ["s"])
        start = 0
        for count, expected in zip(relation.partitioning.counts, rehashed):
            chunk = Relation(relation.columns, relation.rows[start : start + count])
            assert chunk == expected
            start += count

    def test_aligned_joins_skip_shuffle_bytes(self, stored):
        _, _, _, path = stored
        session = S2RDFSession.open_dataset(path, broadcast_threshold=0)
        try:
            result = session.query("SELECT * WHERE { ?x <q> ?y . ?x <p> ?o }")
            assert len(result) > 0
            assert result.metrics.partition_aligned_inputs > 0
        finally:
            session.close()

    def test_partitioning_survives_project_and_rename(self, stored):
        _, restored, _, _ = stored
        relation = restored.catalog.scan("vp_p").relation
        renamed = relation.rename({"s": "x", "o": "y"})
        assert renamed.partitioning.keys == ("x",)
        projected = renamed.project(["x"])
        assert projected.partitioning is not None
        dropped = renamed.project(["y"])
        assert dropped.partitioning is None
