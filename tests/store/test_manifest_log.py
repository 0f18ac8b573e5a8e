"""The manifest log agrees with the manifest the writing session holds.

An append commits the records it changed as one line of ``MANIFEST.log``
(:meth:`~repro.store.format.Manifest.changes`); ``read_manifest`` merges the
lines into ``MANIFEST.json``.  Whatever a sequence of appends, folds and
compactions did, a reader must decode exactly the manifest the writer holds
in memory — and a commit that only grew the log must still tell every other
session that its resident copy is stale.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store.format import (
    DatasetFormatError,
    manifest_log_path,
    manifest_path,
    read_manifest,
    read_manifest_log,
)

SUBJECTS = [IRI(f"e{i}") for i in range(8)]
#: Objects are entities too, so a new row can revive old rows into an ExtVP table.
OBJECTS = SUBJECTS + [IRI(f"v{i}") for i in range(3)]
STORED = [IRI("p0"), IRI("p1")]
#: p2 and p3 are new to the store until an append gives them rows.
PREDICATES = STORED + [IRI("p2"), IRI("p3")]


def base_graph():
    return Graph(
        [Triple(SUBJECTS[i], STORED[i % 2], OBJECTS[(3 * i + 1) % len(OBJECTS)]) for i in range(8)]
    )


triples = st.builds(
    Triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)
#: An append batch (duplicates of stored triples and within the batch come
#: up on their own), or a compaction.
operations = st.lists(
    st.one_of(st.lists(triples, max_size=14), st.just("compact")), min_size=1, max_size=6
)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(operations=operations)
def test_every_commit_reads_back_as_the_writing_session_holds_it(tmp_path_factory, operations):
    path = str(tmp_path_factory.mktemp("log") / "store")
    repro.create(base_graph(), path=path, num_partitions=2).close()
    with repro.connect(path) as session:
        for operation in operations:
            if operation == "compact":
                session.compact()
                assert not os.path.exists(manifest_log_path(path))
            else:
                session.append_triples(operation)
            assert session._dataset.is_current()
            assert read_manifest(path).to_json() == session.layout.manifest.to_json()


def test_the_log_is_folded_once_it_would_outgrow_the_manifest(tmp_path):
    """Appends grow the log until their next line would make it larger than
    ``MANIFEST.json``; that append writes the whole manifest instead."""
    path = str(tmp_path / "store")
    repro.create(base_graph(), path=path, num_partitions=2).close()
    base_bytes = os.path.getsize(manifest_path(path))
    lines = []
    with repro.connect(path) as session:
        for i in range(40):
            session.append_triples([Triple(IRI(f"n{i}"), IRI("p0"), SUBJECTS[i % 8])])
            lines.append(len(read_manifest_log(path).records))
            log = manifest_log_path(path)
            assert not os.path.exists(log) or os.path.getsize(log) <= os.path.getsize(
                manifest_path(path)
            )
            assert read_manifest(path).to_json() == session.layout.manifest.to_json()
    # It logged, then folded (the count fell back to 0), then logged again.
    assert lines[0] == 1 and 0 in lines and lines[-1] > 0
    assert os.path.getsize(manifest_path(path)) > base_bytes


def test_a_log_only_commit_of_another_session_makes_the_resident_copy_stale(tmp_path):
    path = str(tmp_path / "store")
    graph = Graph(
        list(base_graph())
        + [Triple(IRI(f"b{i}"), IRI(f"bulk{i % 5}"), IRI(f"c{i % 13}")) for i in range(200)]
    )
    repro.create(graph, path=path, num_partitions=2).close()
    with open(manifest_path(path), "rb") as handle:
        base = handle.read()
    first, second = repro.connect(path), repro.connect(path)
    try:
        first.append_triples([Triple(IRI("a1"), IRI("p0"), IRI("e2"))])
        assert first._dataset.is_current() and not second._dataset.is_current()
        second.append_triples([Triple(IRI("a2"), IRI("p2"), IRI("a1"))])
        assert second._dataset.is_current()
        # Only the log grew, and that is enough for the first session to know.
        with open(manifest_path(path), "rb") as handle:
            assert handle.read() == base
        assert [record["append_epoch"] for record in read_manifest_log(path).records] == [1, 2]
        assert not first._dataset.is_current()
        # The first session's next append builds on the second's commit.
        first.append_triples([Triple(IRI("a3"), IRI("p2"), IRI("e1"))])
        assert read_manifest(path).to_json() == first.layout.manifest.to_json()
        rows = first.query("SELECT ?s ?o WHERE { ?s <p2> ?o }").relation.rows
        assert sorted(map(repr, rows)) == sorted(
            map(repr, [(IRI("a2"), IRI("a1")), (IRI("a3"), IRI("e1"))])
        )
    finally:
        first.close()
        second.close()
    with repro.connect(path) as reopened:
        assert reopened.query("SELECT ?s WHERE { ?s <p2> <a1> }").relation.rows


# --------------------------------------------------------------------- #
# Logs edited by hand, and a compaction with nothing to rewrite
# --------------------------------------------------------------------- #
@pytest.fixture()
def logged(tmp_path):
    """A store whose one append committed by a log line."""
    path = str(tmp_path / "store")
    graph = Graph(
        list(base_graph())
        + [Triple(IRI(f"b{i}"), IRI(f"bulk{i % 5}"), IRI(f"c{i % 13}")) for i in range(200)]
    )
    repro.create(graph, path=path, num_partitions=2).close()
    with repro.connect(path) as session:
        session.append_triples([Triple(IRI("a1"), IRI("p0"), IRI("e2"))])
    assert len(read_manifest_log(path).records) == 1
    return path


def rewrite_log(path, change):
    with open(manifest_log_path(path), "rb") as handle:
        records = [json.loads(line) for line in handle.read().splitlines()]
    data = "".join(json.dumps(record) + "\n" for record in change(records))
    with open(manifest_log_path(path), "w", encoding="ascii") as handle:
        handle.write(data)


def test_a_gap_in_the_epochs_is_refused(logged):
    def skip_an_epoch(records):
        records[0]["append_epoch"] = 2
        return records

    rewrite_log(logged, skip_an_epoch)
    with pytest.raises(DatasetFormatError, match="gap"):
        read_manifest(logged)


def test_a_line_that_does_not_parse_is_refused_unless_it_is_the_last(logged):
    with open(manifest_log_path(logged), "ab") as handle:
        handle.write(b"{not json\n")
    assert read_manifest(logged).append_epoch == 1  # the last line: torn
    log = read_manifest_log(logged)
    assert log.torn_bytes == len(b"{not json\n")
    with open(manifest_log_path(logged), "ab") as handle:
        handle.write(b'{"append_epoch":2}\n')
    with pytest.raises(DatasetFormatError, match="line 2 is not JSON"):
        read_manifest(logged)


def test_a_merged_record_is_checked_as_the_manifest_is(logged):
    """The decode runs on the merged state, so a record that lists a
    correlation without rows is refused like a manifest that does."""

    def empty_a_correlation(records):
        records[0]["extvp"][0][3] = 0
        return records

    rewrite_log(logged, empty_a_correlation)
    with pytest.raises(DatasetFormatError, match="without rows"):
        read_manifest(logged)


def test_a_compaction_with_nothing_to_rewrite_still_folds_the_log(tmp_path):
    path = str(tmp_path / "store")
    graph = Graph(
        list(base_graph())
        + [Triple(IRI(f"b{i}"), IRI(f"bulk{i % 5}"), IRI(f"c{i % 13}")) for i in range(200)]
    )
    repro.create(graph, path=path, num_partitions=2).close()
    with repro.connect(path) as session:
        # Fresh terms under a new predicate: deltas, but no bitmap superseded.
        session.append_triples([Triple(IRI("z1"), IRI("pz"), IRI("z2"))])
        assert len(read_manifest_log(path).records) == 1
        report = session.compact(compaction_threshold=50)
        assert report.tables_compacted == 0
        assert not os.path.exists(manifest_log_path(path))
        assert session._dataset.is_current()
        resident = session.layout.manifest.to_json()
    manifest = read_manifest(path)
    assert manifest.append_epoch == 1  # nothing was rewritten: no new epoch
    assert manifest.to_json() == resident
