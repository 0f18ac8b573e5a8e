"""Acceptance tests: save_dataset / open_dataset roundtrip equivalence.

For the WatDiv test graph, a session opened cold from the dataset store must
answer the Table 4 Basic queries identically to the in-memory session it was
saved from — without parsing N-Triples or rebuilding ExtVP (asserted via
instrumentation), and with all statistics restored from the manifest.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.rdf.ntriples as ntriples_module
from repro.baselines.s2rdf_engine import hdfs_bytes
from repro.core.session import S2RDFSession
from repro.store import reader as store_reader
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.template import instantiate_many


def count_segment_decodes(monkeypatch):
    """Every segment the store's reader decodes from now on, one entry each."""
    decoded = []
    decode = store_reader.decode_segment

    def counting(*args):
        decoded.append(args)
        return decode(*args)

    monkeypatch.setattr(store_reader, "decode_segment", counting)
    return decoded


def bag(relation):
    return sorted(map(repr, relation.rows))


@pytest.fixture(scope="module")
def warm_session(small_dataset):
    session = S2RDFSession.from_graph(small_dataset.graph, num_partitions=4)
    yield session
    session.close()


@pytest.fixture(scope="module")
def dataset_path(warm_session, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "dataset")
    report = warm_session.save_dataset(path)
    assert report.table_count > 0 and report.segment_count > 0
    return path


@pytest.fixture(scope="module")
def cold_session(dataset_path):
    session = S2RDFSession.open_dataset(dataset_path)
    yield session
    session.close()


def count_extvp_computations(monkeypatch):
    """The calls of the store's ExtVP routine from here on, one entry each."""
    import repro.store.writer as writer

    calls = []
    compute = writer.compute_incremental_extvp

    def counted(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(writer, "compute_incremental_extvp", counted)
    return calls


class TestColdOpen:
    def test_no_parse_and_no_rebuild(self, dataset_path, monkeypatch):
        """Cold opens never touch the N-Triples parser or compute ExtVP."""

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("cold open must not parse")

        monkeypatch.setattr(ntriples_module, "parse_ntriples", forbidden)
        computations = count_extvp_computations(monkeypatch)
        session = repro.connect(dataset_path)
        try:
            assert session.load_report is not None
            assert not session.load_report.ntriples_parsed
            assert session.load_report.table_count > 0
            # Observed, not asserted: the ExtVP routine really never ran.
            assert computations == []
        finally:
            session.close()

    def test_instrumentation_observes_real_builds(self, small_dataset, monkeypatch):
        """The counters the cold open is checked with do move on the warm path."""
        from repro.rdf.ntriples import documents_parsed

        before = documents_parsed()
        computations = count_extvp_computations(monkeypatch)
        session = S2RDFSession.from_ntriples("<a> <p> <b> .")
        try:
            assert documents_parsed() == before + 1
            assert len(computations) == 1
        finally:
            session.close()

    def test_tables_stay_on_disk_until_scanned(self, dataset_path, monkeypatch):
        decoded = count_segment_decodes(monkeypatch)
        session = S2RDFSession.open_dataset(dataset_path)
        try:
            catalog = session.layout.catalog
            names = catalog.table_names()
            assert names and all(catalog.is_stored(name) for name in names)
            assert decoded == []
            # The first scan of a table is what decodes its segments.
            assert catalog.scan_batch("triples").rows_scanned > 0
            assert decoded
        finally:
            session.close()

    def test_storage_summary_reads_no_table(self, dataset_path, monkeypatch):
        """The summary is the manifest's: no segment is decoded, on the open or
        for the summary."""
        decoded = count_segment_decodes(monkeypatch)
        with repro.connect(dataset_path) as session:
            assert decoded == []
            summary = session.storage_summary()
            assert session.layout.catalog.table_names()
        assert summary["total_tuples"] > 0 and summary["table_counts"]["total"] > 0
        assert decoded == []

    def test_storage_summary_roundtrip(self, warm_session, cold_session):
        """A built session and a connection to the dataset it saved report
        one layout: the same table and tuple counts and simulated bytes."""
        warm, cold = warm_session.storage_summary(), cold_session.storage_summary()
        assert warm["table_counts"]["total"] > 0 and warm["total_tuples"] > 0
        del warm["load_seconds"], cold["load_seconds"]
        assert warm == cold
        assert hdfs_bytes(warm_session) == hdfs_bytes(cold_session) > 0

    def test_statistics_roundtrip(self, warm_session, cold_session):
        """Zone-map aggregates restore TableStatistics exactly."""
        warm_catalog = warm_session.layout.catalog
        cold_catalog = cold_session.layout.catalog
        assert warm_catalog.statistics_names() == cold_catalog.statistics_names()
        for name in warm_catalog.statistics_names():
            warm_stats = warm_catalog.statistics(name)
            cold_stats = cold_catalog.statistics(name)
            assert cold_stats.row_count == warm_stats.row_count, name
            assert cold_stats.selectivity == pytest.approx(warm_stats.selectivity), name
            if name in warm_catalog:
                assert cold_stats.distinct_subjects == warm_stats.distinct_subjects, name
                assert cold_stats.distinct_objects == warm_stats.distinct_objects, name

    def test_extvp_statistics_restored(self, warm_session, cold_session):
        warm_stats = warm_session.layout.statistics
        cold_stats = cold_session.layout.statistics
        assert len(cold_stats) == len(warm_stats)
        for key, info in warm_stats.tables.items():
            restored = cold_stats.tables[key]
            assert restored.name == info.name
            assert restored.row_count == info.row_count
            assert restored.vp_row_count == info.vp_row_count
            assert restored.materialized == info.materialized

    def test_storage_summary_available_cold(self, cold_session):
        summary = cold_session.storage_summary()
        assert summary["total_tuples"] > 0
        assert hdfs_bytes(cold_session) > 0
        assert summary["table_counts"]["total"] > 0

    def test_hdfs_bytes_are_the_stores_not_the_hash_seeds(self, tmp_path):
        """``hdfs_bytes`` models the stored tables in the store's row order:
        processes under two hash seeds, and an in-memory session and a
        connection to the dataset it saved, all report one number."""
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.baselines.s2rdf_engine import hdfs_bytes\n"
            "from repro.watdiv.generator import generate_dataset\n"
            "graph = generate_dataset(scale_factor=1.0, seed=7).graph\n"
            "with repro.S2RDFSession.from_graph(graph) as session:\n"
            "    held = hdfs_bytes(session)\n"
            "    session.save_dataset(sys.argv[1])\n"
            "with repro.connect(sys.argv[1]) as connected:\n"
            "    print(held, hdfs_bytes(connected))\n"
        )
        source = str(pathlib.Path(repro.__file__).resolve().parents[1])
        readings = []
        for seed in ("0", "1"):
            environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            run = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"seed-{seed}")],
                env=environment,
                capture_output=True,
                text=True,
                check=True,
            )
            readings.append(tuple(int(number) for number in run.stdout.split()))
        (held, connected), other_seed = readings
        assert held == connected, readings
        assert other_seed == (held, connected), readings


class TestFootprint:
    """What ExtVP costs on disk (format v4), so that a regression fails here
    and not only in the benchmark: no table file, no listed empty correlation,
    and a bound on bytes per triple."""

    #: 73.2 measured when format v4 landed (the WatDiv test graph on 4 buckets:
    #: 2 750 triples, 915 ExtVP tables holding 8.8x the VP tuples; format v3
    #: took 341.0), plus 15 %.
    BYTES_PER_TRIPLE_BOUND = 84.0

    def test_extvp_is_stored_as_selections_not_as_files(self, dataset_path, warm_session):
        import json

        from repro.mappings.extvp import correlation_keys
        from repro.store.format import read_manifest

        root = pathlib.Path(dataset_path)
        manifest = read_manifest(dataset_path)
        files = sorted(p.name for p in (root / "tables").iterdir())
        vp_tables = len(warm_session.layout.predicates())
        assert len(files) == vp_tables + 1 == len(manifest.tables)  # + the ``triples`` table
        assert not any(name.startswith("extvp_") for name in files)
        assert files == sorted(entry.file.split("/")[-1] for entry in manifest.tables.values())

        statistics = warm_session.layout.statistics
        selections = [s for entry in manifest.tables.values() for s in entry.selections]
        assert sorted(selections) == sorted(info.name for info in statistics.materialized())
        assert len(selections) > 800
        # Listed and held are the correlations with rows, and only they: every
        # other correlation of the key space is answered as empty.
        listed = json.loads((root / "MANIFEST.json").read_text())["extvp"]
        layout = warm_session.layout
        keys = correlation_keys(layout.predicates())
        non_empty = [key for key in keys if layout.extvp_info(*key).row_count]
        assert len(listed) == len(non_empty) == len(statistics) < len(keys) / 5
        assert set(non_empty) == statistics.tables.keys()

        stored = sum(p.stat().st_size for p in root.rglob("*") if p.is_file() and "journal" not in p.parts)
        per_triple = stored / manifest.tables["triples"].row_count
        assert per_triple < self.BYTES_PER_TRIPLE_BOUND, per_triple


class TestRoundtripEquivalence:
    @pytest.mark.parametrize("template", BASIC_TEMPLATES, ids=lambda t: t.name)
    def test_basic_queries_identical(self, template, small_dataset, warm_session, cold_session):
        for query_text in instantiate_many(template, small_dataset, 2, seed=7):
            warm = warm_session.query(query_text)
            cold = cold_session.query(query_text)
            assert cold.relation.columns == warm.relation.columns
            assert bag(cold.relation) == bag(warm.relation)

    def test_statically_empty_answered_from_statistics(self, warm_session, cold_session):
        """Statistics-only (empty-table) short circuits survive the roundtrip."""
        query = "SELECT * WHERE { ?a <http://purl.org/stuff/rev#hasReview> ?b . ?b <http://purl.org/stuff/rev#hasReview> ?c }"
        warm = warm_session.query(query)
        cold = cold_session.query(query)
        assert warm.statically_empty == cold.statically_empty
        if cold.statically_empty:
            assert cold.metrics.input_tuples == 0

    def test_overwrite_guard(self, dataset_path, warm_session):
        with pytest.raises(FileExistsError):
            warm_session.save_dataset(dataset_path)


class TestOverwrite:
    def test_awkward_literals_roundtrip_through_session(self, tmp_path):
        """CR literals and xsd:string literals survive a full save/open."""
        document = "\n".join(
            [
                '<s1> <p> "line1\\rline2" .',
                '<s2> <p> "5"^^<http://www.w3.org/2001/XMLSchema#string> .',
                '<s3> <p> "5" .',
                "<s1> <q> <s2> .",
            ]
        )
        warm = S2RDFSession.from_ntriples(document)
        path = str(tmp_path / "dataset")
        warm.save_dataset(path)
        cold = S2RDFSession.open_dataset(path)
        try:
            query = "SELECT * WHERE { ?s <p> ?v }"
            assert bag(cold.query(query).relation) == bag(warm.query(query).relation)
        finally:
            warm.close()
            cold.close()

    def test_shrinking_resave_leaves_no_orphans(self, small_dataset, tmp_path):
        """Re-saving with fewer buckets must leave nothing of the old save:
        no unreferenced table file, no stale bytes behind a table's segments."""
        from repro.store.format import read_manifest

        path = str(tmp_path / "dataset")
        with S2RDFSession.from_graph(small_dataset.graph, num_partitions=4) as first_session:
            first_session.save_dataset(path)
        tables = pathlib.Path(path) / "tables"
        first = {p.name: p.stat().st_size for p in tables.iterdir()}
        (tables / "vp_gone.00007.seg").write_bytes(b"left by an earlier generation")
        session = S2RDFSession.from_graph(small_dataset.graph, num_partitions=2)
        session.save_dataset(path, overwrite=True)
        manifest = read_manifest(path)
        second = {p.name: p.stat().st_size for p in tables.iterdir()}
        assert set(second) == {entry.file.split("/")[-1] for entry in manifest.tables.values()}
        for entry in manifest.tables.values():
            assert len(entry.partitions) == 2
            assert second[entry.file.split("/")[-1]] == entry.committed_bytes, entry.name
        assert sum(second.values()) < sum(first.values())
        cold = S2RDFSession.open_dataset(path)
        try:
            assert cold.load_report.num_buckets == 2
        finally:
            session.close()
            cold.close()

    def test_same_input_writes_byte_identical_manifests(self, small_dataset, tmp_path):
        """Nothing wall-clock dependent is persisted: two builds of one
        N-Triples text produce the same store, byte for byte."""
        import repro
        from repro.rdf.ntriples import serialize_ntriples

        text = serialize_ntriples(small_dataset.graph)
        stores = []
        for name in ("one", "two"):
            path = tmp_path / name
            repro.create(text, path=str(path), num_partitions=2).close()
            stores.append(
                {
                    str(file.relative_to(path)): file.read_bytes()
                    for file in path.rglob("*")
                    if file.is_file() and "journal" not in file.parts
                }
            )
        assert stores[0]["MANIFEST.json"] == stores[1]["MANIFEST.json"]
        assert stores[0] == stores[1]

    def test_in_place_resave_keeps_the_dataset(self, small_dataset, tmp_path):
        """A connected session re-saves over the directory it reads from: the
        image is laid out whole before anything there is removed, and the
        dataset reopens with the same answers."""
        import repro

        path = str(tmp_path / "dataset")
        repro.create(small_dataset.graph, path=path, num_partitions=2).close()
        queries = [
            text
            for template in BASIC_TEMPLATES
            for text in instantiate_many(template, small_dataset, 1, seed=7)
        ]
        with repro.connect(path) as before:
            expected = [bag(before.query(text).relation) for text in queries]
        with repro.connect(path) as session:
            session.save_dataset(path, overwrite=True)
            assert [bag(session.query(text).relation) for text in queries] == expected
        with repro.connect(path) as reopened:
            assert [bag(reopened.query(text).relation) for text in queries] == expected

    def test_resave_decides_extvp_anew(self, tmp_path):
        """An append keeps a correlation's materialisation flag; a re-save lays
        the data out as a build does, so a reduction whose SF reached 1 stops
        being stored, and the session's catalog stops serving it and holds
        no statistics for it: its statistics are the layout's."""
        import repro
        from repro.mappings.extvp import CorrelationKind
        from repro.rdf.graph import Graph
        from repro.rdf.terms import IRI
        from repro.rdf.triple import Triple

        def ss_p_q(session):
            return session.layout.extvp_info(CorrelationKind.SS, IRI("p"), IRI("q"))

        path = str(tmp_path / "dataset")
        graph = Graph([Triple.of("a", "p", "x"), Triple.of("b", "p", "y"), Triple.of("a", "q", "z")])
        repro.create(graph, path=path).close()
        query = "SELECT * WHERE { ?s <p> ?o . ?s <q> ?z }"
        with repro.connect(path) as session:
            assert ss_p_q(session).materialized and ss_p_q(session).selectivity == 0.5
            session.append_triples([Triple.of("b", "q", "w")])
            assert ss_p_q(session).materialized and ss_p_q(session).selectivity == 1.0
            expected = bag(session.query(query).relation)
            session.save_dataset(path, overwrite=True)
            info = ss_p_q(session)
            assert not info.materialized and info.row_count == 2 and info.selectivity == 1.0
            assert info.name not in session.layout.catalog
            assert session.layout.catalog.statistics(info.name) is None
            assert bag(session.query(query).relation) == expected
        with repro.connect(path) as reopened:
            assert not ss_p_q(reopened).materialized
            assert bag(reopened.query(query).relation) == expected
        assert len(expected) == 2

    def test_committed_image_is_a_fresh_lay_out_byte_for_byte(self, small_dataset, tmp_path):
        """``save_dataset`` writes the image the session was serving; a
        writer laying the same graph out afresh writes the same directory,
        file for file, manifest included."""
        from repro.store.writer import DatasetWriter

        def files(root):
            return {
                str(file.relative_to(root)): file.read_bytes()
                for file in root.rglob("*")
                if file.is_file() and "journal" not in file.parts
            }

        held = tmp_path / "held"
        with S2RDFSession.from_graph(small_dataset.graph, num_partitions=2) as session:
            session.query("SELECT * WHERE { ?s <http://db.uwaterloo.ca/~galuc/wsdbm/likes> ?o }")
            session.save_dataset(str(held))
        fresh = tmp_path / "fresh"
        DatasetWriter(num_buckets=2).write(str(fresh), small_dataset.graph)
        held_files = files(held)
        assert "MANIFEST.json" in held_files and len(held_files) > 3
        assert held_files == files(fresh)

    @pytest.mark.parametrize(
        "knobs",
        [{"selectivity_threshold": 1.0}, {"selectivity_threshold": 0.25}, {"include_oo": True}],
        ids=["threshold-1", "threshold-0.25", "oo"],
    )
    @pytest.mark.parametrize("buckets", [1, 2, 8])
    def test_a_build_is_an_append_to_an_empty_store_then_compacted(
        self, small_dataset, tmp_path, buckets, knobs
    ):
        """``repro.create`` writes what creating an empty dataset, appending
        the graph and compacting writes: every table file and the dictionary
        byte for byte, and the manifest but for the epoch and the file
        generations the append and the compaction advanced."""
        import json

        def contents(root):
            # A compacted table file carries its generation in its name.
            files = {}
            for file in root.rglob("*"):
                if file.is_file() and "journal" not in file.parts and file.name != "MANIFEST.json":
                    name = file.name.split(".")[0] if file.parent.name == "tables" else file.name
                    files[name] = file.read_bytes()
            return files

        def manifest(root):
            data = json.loads((root / "MANIFEST.json").read_text())
            data["append_epoch"] = 0
            for record in data["tables"]:
                record[8] = 0  # the table file's generation
            return data

        built, appended = tmp_path / "built", tmp_path / "appended"
        repro.create(small_dataset.graph, path=str(built), num_partitions=buckets, **knobs).close()
        with repro.create("", path=str(appended), num_partitions=buckets, **knobs) as session:
            session.append_triples(small_dataset.graph)
            session.compact()
        built_files = contents(built)
        assert "dictionary.nt" in built_files and len(built_files) > 3
        assert built_files == contents(appended)
        assert manifest(built) == manifest(appended)
        assert json.loads((appended / "MANIFEST.json").read_text())["append_epoch"] == 2

    def test_interrupted_write_is_detected(self, small_dataset, tmp_path):
        """A dataset without a manifest (crash mid-write) is rejected cleanly."""
        import os

        from repro.store.format import DatasetFormatError, manifest_path

        session = S2RDFSession.from_graph(small_dataset.graph)
        path = str(tmp_path / "dataset")
        session.save_dataset(path)
        session.close()
        os.remove(manifest_path(path))
        with pytest.raises(DatasetFormatError):
            S2RDFSession.open_dataset(path)
