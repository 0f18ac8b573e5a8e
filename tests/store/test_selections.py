"""The design contract of store format v4: an ExtVP table is a view.

A materialised ``ExtVP_kind[p1|p2]`` is stored as one bitmap per hash bucket
over the rows of ``VP_p1`` and nothing else.  Whatever happened to the store —
a full build, appends of every kind, compactions — scanning it must return
exactly the rows of ``VP_p1`` that are in the reduction, in ``VP_p1``'s order,
grouped by ``VP_p1``'s buckets; and those rows must be the semi-join a build
from scratch over the same triples computes.
"""

import multiprocessing
import os
import shutil
import sys
import threading

import pytest

import repro
from repro.mappings.extvp import KIND_JOIN_COLUMNS
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store.format import file_path, key_partition_index, read_manifest

EX = "http://example.org/"


def bag(rows):
    return sorted(map(repr, rows))


def store_bytes(path):
    """Every byte of the dataset directory except the query journal."""
    found = {}
    for root, _, names in os.walk(path):
        if os.path.basename(root) == "journal":
            continue
        for name in names:
            with open(os.path.join(root, name), "rb") as handle:
                found[os.path.relpath(os.path.join(root, name), path)] = handle.read()
    return found


@pytest.fixture(scope="module")
def built(small_dataset, tmp_path_factory):
    """The WatDiv test graph as a store on 2 buckets, never written to again."""
    path = str(tmp_path_factory.mktemp("selections") / "store")
    repro.create(small_dataset.graph, path=path, num_partitions=2).close()
    return path


@pytest.fixture()
def store(built, tmp_path):
    path = str(tmp_path / "store")
    shutil.copytree(built, path)
    return path


def check_contract(session, triples):
    """Every materialised ExtVP table of ``session``'s store against ``triples``."""
    manifest = read_manifest(session.dataset_path)
    # What the session updated in place is what a fresh process reads.
    assert session._dataset.manifest == manifest
    catalog = session.layout.catalog
    rows_of = {}
    for triple in triples:
        rows_of.setdefault(triple.predicate, []).append((triple.subject, triple.object))
    info_of = {info.name: info for info in manifest.extvp.materialized()}
    checked = 0
    for entry in manifest.tables.values():
        if not entry.selections:
            continue
        vp_scan = catalog.scan(entry.name)
        with open(file_path(session.dataset_path, entry.file), "rb") as handle:
            data = handle.read()
        for name, selection in entry.selections.items():
            info = info_of[name]
            assert manifest.vp_tables[info.first]["table"] == entry.name
            first_column, second_column = KIND_JOIN_COLUMNS[info.kind]
            second_values = {
                row["so".index(second_column)] for row in rows_of.get(info.second, ())
            }
            semi_join = [
                row
                for row in rows_of[info.first]
                if row["so".index(first_column)] in second_values
            ]
            scan = catalog.scan(name)
            assert catalog.is_stored(name)
            # The rows a build from scratch computes ...
            assert bag(scan.relation.rows) == bag(semi_join), name
            # ... as a subsequence of VP_first's rows ...
            members = set(semi_join)
            assert scan.relation.rows == [r for r in vp_scan.relation.rows if r in members], name
            # ... grouped by VP_first's buckets, each bitmap holding what it says.
            popcounts = tuple(
                bin(int.from_bytes(data[b.offset : b.offset + b.size_bytes], "little")).count("1")
                for b in selection.bitmaps
            )
            buckets = [
                key_partition_index((row[0],), len(selection.bitmaps)) for row in scan.relation.rows
            ]
            assert buckets == sorted(buckets), name
            assert tuple(buckets.count(b) for b in range(len(popcounts))) == popcounts, name
            assert popcounts == tuple(b.rows for b in selection.bitmaps), name
            assert scan.rows_scanned == selection.row_count == info.row_count == len(semi_join)
            statistics = catalog.statistics(name)
            assert statistics.row_count == len(semi_join)
            assert statistics.distinct_subjects == len({row[0] for row in semi_join}), name
            assert statistics.distinct_objects == len({row[1] for row in semi_join}), name
            checked += 1
    assert checked == len(info_of) > 100
    return checked


def find_revival(manifest):
    """``(p1, p2, value)``: a value that objects of ``VP_p1`` carry and no
    subject of ``VP_p2`` does, for a materialised ``ExtVP_OS[p1|p2]`` — so one
    new ``p2`` triple with that subject pulls *old* ``p1`` rows into it."""
    for info in manifest.extvp.materialized():
        if info.kind.value != "os" or info.first == info.second:
            continue
        missing = manifest.vp_value_sets[info.first]["o"] - manifest.vp_value_sets[info.second]["s"]
        if missing:
            return info, min(missing)
    raise AssertionError("the test graph has no OS correlation with an unmatched object")


# --------------------------------------------------------------------- #
# The contract, along a store's whole life
# --------------------------------------------------------------------- #
def test_contract_holds_through_appends_and_compactions(store, small_dataset):
    triples = list(small_dataset.graph)
    with repro.connect(store) as session:
        check_contract(session, triples)
        predicates = session.layout.predicates()

        # 1. Fresh entities: new subjects and objects under old predicates.
        #    Each entity carries several predicates, so SS reductions gain rows.
        fresh = [
            Triple(IRI(f"{EX}fresh{entity}"), predicate, IRI(f"{EX}value{entity}-{index}"))
            for entity in range(6)
            for index, predicate in enumerate(predicates[entity : entity + 4])
        ]
        report = session.append_triples(fresh)
        assert report.triples_appended == len(fresh)
        triples += fresh
        check_contract(session, triples)

        # 2. Old rows revived: one new triple gives VP_p2 a subject that old
        #    VP_p1 rows have had as their object all along.
        manifest = read_manifest(store)
        info, value_id = find_revival(manifest)
        value = session._dataset.dictionary.decode(value_id)
        old_rows = [row for row in session.layout.catalog.table(info.name).rows]
        revived = [
            row
            for row in session.layout.catalog.table(manifest.vp_tables[info.first]["table"]).rows
            if row[1] == value
        ]
        assert revived and not set(revived) & set(old_rows)
        vp_first = manifest.tables[manifest.vp_tables[info.first]["table"]]
        report = session.append_triples([Triple(value, info.second, IRI(f"{EX}reviver"))])
        assert report.triples_appended == 1
        triples.append(Triple(value, info.second, IRI(f"{EX}reviver")))
        after = read_manifest(store)
        # VP_first got no new row — only its bitmaps changed, behind its old end.
        assert len(after.tables[vp_first.name].deltas) == len(vp_first.deltas)
        assert after.tables[vp_first.name].committed_bytes > vp_first.committed_bytes
        assert after.tables[vp_first.name].dead_bytes() > vp_first.dead_bytes()
        assert bag(session.layout.catalog.table(info.name).rows) == bag(old_rows + revived)
        check_contract(session, triples)

        # 3. A new predicate: its pairs are decided by the materialisation rule.
        new_predicate = IRI(f"{EX}newPredicate")
        subjects = sorted({t.subject for t in triples if isinstance(t.subject, IRI)}, key=str)[:8]
        batch = [Triple(s, new_predicate, IRI(f"{EX}target{i % 3}")) for i, s in enumerate(subjects)]
        report = session.append_triples(batch)
        assert report.new_predicates == 1 and report.tables_created == 1
        triples += batch
        after = read_manifest(store)
        new_table = after.vp_tables[new_predicate]["table"]
        assert after.tables[new_table].selections  # reductions *of* the new table ...
        assert any(  # ... and reductions of old tables *against* it
            i.second == new_predicate and i.first != new_predicate
            for i in after.extvp.materialized()
        )
        check_contract(session, triples)

        # 4. All duplicates: nothing is written, nothing is committed.
        before = store_bytes(store)
        epoch = read_manifest(store).append_epoch
        report = session.append_triples(fresh + batch)
        assert report.triples_appended == 0 and report.bytes_written == 0
        assert report.duplicate_triples == len(fresh) + len(batch)
        assert store_bytes(store) == before
        assert read_manifest(store).append_epoch == epoch
        check_contract(session, triples)

        # 5. A compaction that leaves some files alone: files with fewer than
        #    three deltas and no superseded bitmap keep their bytes.
        manifest = read_manifest(store)
        spared = {
            entry.name: entry.file
            for entry in manifest.tables.values()
            if len(entry.deltas) < 3 and not entry.dead_bytes()
        }
        rewritten = set(manifest.tables) - set(spared)
        assert any(manifest.tables[name].deltas for name in spared) and rewritten
        report = session.compact(compaction_threshold=3)
        assert report.tables_compacted == len(rewritten)
        after = read_manifest(store)
        for name, file in spared.items():
            assert after.tables[name].file == file and before[file] == store_bytes(store)[file]
        for name in rewritten:
            assert after.tables[name].generation == after.append_epoch
            assert not after.tables[name].deltas and not after.tables[name].dead_bytes()
        check_contract(session, triples)

        # 6. The full compaction.
        session.compact()
        after = read_manifest(store)
        assert not any(entry.deltas or entry.dead_bytes() for entry in after.tables.values())
        check_contract(session, triples)

    # What a fresh process reads back is what the session ended up with.
    with repro.connect(store) as cold:
        check_contract(cold, triples)


def test_a_file_rewritten_only_to_drop_dead_bytes_keeps_what_was_decoded(store):
    """A compaction that merges nothing in a file moves its segments and
    bitmaps byte for byte: same rows, same positions, new addresses.  The
    session keeps every decoded column and position vector of such a file."""
    with repro.connect(store) as session:
        info, value_id = find_revival(read_manifest(store))
        value = session._dataset.dictionary.decode(value_id)
        vp_first = session.layout.vp_table_name(info.first)
        session.append_triples([Triple(value, info.second, IRI(f"{EX}reviver"))])
        catalog = session.layout.catalog
        scans = {name: catalog.scan_batch(name) for name in (vp_first, info.name)}
        rows = catalog.scan(info.name).relation.rows
        bound = catalog.scan(info.name, conditions={"o": value}).relation.rows
        assert bound and read_manifest(store).tables[vp_first].dead_bytes()

        report = session.compact()
        after = read_manifest(store)
        assert after.tables[vp_first].generation == after.append_epoch  # rewritten ...
        assert not after.tables[vp_first].dead_bytes()  # ... for this
        assert not {vp_first, info.name} & set(report.touched_tables)
        assert session.layout.vp_table_name(info.second) in report.touched_tables  # merged
        for name, scan in scans.items():
            assert catalog.scan_batch(name) is scan, name  # nothing was dropped
        assert catalog.scan(info.name, conditions={"o": value}).relation.rows == bound
        assert session._dataset.manifest == after
        assert session._journal_epoch == after.append_epoch
    with repro.connect(store) as cold:
        assert cold.layout.catalog.scan(info.name).relation.rows == rows
        assert cold.layout.catalog.scan(info.name, conditions={"o": value}).relation.rows == bound


def test_conditioned_scans_are_the_unconditioned_scan_filtered(store):
    with repro.connect(store) as session:
        # Deltas in some buckets, so positions run across segments.
        predicates = session.layout.predicates()
        session.append_triples(
            [
                Triple(IRI(f"{EX}fresh{entity}"), predicate, IRI(f"{EX}fresh{entity + 1}"))
                for entity in range(5)
                for predicate in predicates[entity : entity + 5]
            ]
        )
        manifest = read_manifest(store)
        catalog = session.layout.catalog
        for entry in manifest.tables.values():
            for name, selection in list(entry.selections.items())[::5]:
                rows = catalog.scan(name).relation.rows
                subject, obj = rows[len(rows) // 2]
                probes = [
                    {"s": subject},
                    {"o": obj},
                    {"s": subject, "o": obj},
                    {"s": subject, "o": rows[0][1]},
                    {"s": IRI(f"{EX}never-stored")},
                    {"o": None},
                ]
                for conditions in probes:
                    scan = catalog.scan(name, conditions=conditions)
                    expected = [
                        row
                        for row in rows
                        if all(row["so".index(c)] == v for c, v in conditions.items())
                    ]
                    assert scan.relation.rows == expected, (name, conditions)
                bound = catalog.scan(name, columns=["o"], conditions={"s": subject})
                assert bound.relation.columns == ("o",)
                # A bound subject names one bucket: no other bitmap is looked at.
                assert bound.rows_scanned in [bitmap.rows for bitmap in selection.bitmaps]
                assert bound.segments_pruned > 0
                unknown = catalog.scan(name, conditions={"s": IRI(f"{EX}never-stored")})
                assert unknown.rows_scanned == 0 and unknown.segments_scanned == 0


def test_process_workers_see_the_selections_across_an_append(store, small_dataset):
    """Served queries run in worker processes that opened the store on their
    own; after the parent's append they must refresh and read the new bitmaps."""
    follows = IRI("http://db.uwaterloo.ca/~galuc/wsdbm/follows")
    likes = IRI("http://db.uwaterloo.ca/~galuc/wsdbm/likes")
    queries = [
        f"SELECT * WHERE {{ ?a <{follows.value}> ?b . ?b <{likes.value}> ?c }}",
        f"SELECT * WHERE {{ ?a <{likes.value}> ?c . ?a <{follows.value}> ?b }}",
        f"SELECT ?a WHERE {{ ?a <{follows.value}> <{EX}hub> . ?a <{likes.value}> ?c }}",
    ]
    liker = next(t.subject for t in small_dataset.graph if t.predicate == likes)
    batch = [Triple(IRI(f"{EX}fan{i}"), follows, liker) for i in range(5)] + [
        Triple(liker, follows, IRI(f"{EX}hub")),
        Triple(IRI(f"{EX}fan0"), likes, IRI(f"{EX}thing")),
        Triple(IRI(f"{EX}fan0"), follows, IRI(f"{EX}hub")),
    ]
    try:
        with repro.connect(
            store, execution_mode="process", worker_processes=2, journal_enabled=False
        ) as session:
            assert any(
                name.startswith("extvp_") for name in session.compile(queries[0]).selected_tables
            )
            for triples in (list(small_dataset.graph), list(small_dataset.graph) + batch):
                with repro.create(Graph(triples)) as truth, session.serve() as scheduler:
                    handles = [scheduler.submit(text) for text in queries for _ in range(2)]
                    for handle, text in zip(handles, [t for t in queries for _ in range(2)]):
                        served = handle.result(timeout=60)
                        assert bag(served.relation.rows) == bag(truth.query(text).relation.rows)
                if len(triples) == len(small_dataset.graph):
                    session.append_triples(batch)
            hub_fans = {row[0] for row in session.query(queries[2]).relation.rows}
            assert hub_fans == {liker, IRI(f"{EX}fan0")}
    finally:
        leaked = multiprocessing.active_children()
        for child in leaked:
            child.kill()
            child.join(timeout=10)
    assert not leaked


def test_threads_share_the_vp_columns_and_the_position_vectors(store):
    """More threads than cores, a short switch interval, caches cold: readers
    that race to decode the same VP bucket and the same bitmap must all get
    the rows a lone reader gets.  Nothing mutates meanwhile."""
    with repro.connect(store) as reference:
        names = [
            name for name in reference.layout.catalog.table_names() if name.startswith("extvp_")
        ][::3]
        expected = {}
        for name in names:
            rows = reference.layout.catalog.scan(name).relation.rows
            subject = rows[0][0]
            expected[name] = (rows, subject, [row for row in rows if row[0] == subject])
    failures = []
    with repro.connect(store) as session:
        catalog = session.layout.catalog

        def reader(offset: int) -> None:
            try:
                for step in range(len(names)):
                    name = names[(offset * 37 + step) % len(names)]
                    rows, subject, bound = expected[name]
                    assert catalog.scan_batch(name).batch.to_relation().rows == rows, name
                    scan = catalog.scan(name, conditions={"s": subject})
                    assert scan.relation.rows == bound, name
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
