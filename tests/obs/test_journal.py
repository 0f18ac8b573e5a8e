"""Query-journal tests: template fingerprinting, record serialization, the
rotating JSONL store, cross-session persistence and the session hooks
(including manifest-epoch correctness around appends)."""

import json
import os

import pytest

from repro.core.session import S2RDFSession, SessionConfig
from repro.obs.journal import (
    FLUSH_INTERVAL,
    TEMPLATES_FILE,
    JournalRecord,
    QueryJournal,
    fingerprint_query,
    fingerprint_text,
    journal_directory,
    open_dataset_journal,
    q_error,
    read_dataset_journal,
    template_text,
)
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.sparql.parser import parse_query


def small_session(**kwargs) -> S2RDFSession:
    triples = [Triple.of(f"u{i}", "follows", f"u{(i * 3) % 7}") for i in range(20)]
    triples += [Triple.of(f"u{i}", "likes", f"p{i % 3}") for i in range(0, 20, 2)]
    return S2RDFSession.from_graph(Graph(triples, name="mini"), **kwargs)


# --------------------------------------------------------------------------- #
# Template fingerprinting
# --------------------------------------------------------------------------- #
def test_alpha_renamed_queries_share_a_fingerprint():
    q1 = parse_query("SELECT ?x ?z WHERE { ?x <follows> ?y . ?y <likes> ?z }")
    q2 = parse_query("SELECT ?a ?c WHERE { ?a <follows> ?b . ?b <likes> ?c }")
    assert template_text(q1) == template_text(q2)
    assert fingerprint_query(q1) == fingerprint_query(q2)


def test_constants_are_stripped_but_predicates_kept():
    q1 = parse_query("SELECT ?f WHERE { <u1> <follows> ?f }")
    q2 = parse_query("SELECT ?f WHERE { <u2> <follows> ?f }")
    q3 = parse_query("SELECT ?f WHERE { <u1> <likes> ?f }")
    assert fingerprint_query(q1) == fingerprint_query(q2)
    assert fingerprint_query(q1) != fingerprint_query(q3)
    # The template shows the stripped constant and the verbatim predicate.
    assert template_text(q1) == "SELECT ?0 WHERE {* <follows> ?0}"


def test_variable_roles_distinguish_templates():
    subject = parse_query("SELECT ?x WHERE { ?x <follows> <u1> }")
    object_ = parse_query("SELECT ?x WHERE { <u1> <follows> ?x }")
    assert fingerprint_query(subject) != fingerprint_query(object_)


def test_filter_constants_and_variable_names_are_canonicalised():
    q1 = parse_query("SELECT ?x WHERE { ?x <age> ?a . FILTER(?a > 10) }")
    q2 = parse_query("SELECT ?p WHERE { ?p <age> ?b . FILTER(?b > 99) }")
    assert template_text(q1) == template_text(q2) == (
        "SELECT ?0 WHERE Filter[?1 > *]({?0 <age> ?1})"
    )
    # The operator stays structural: a different comparison is a new template.
    q3 = parse_query("SELECT ?x WHERE { ?x <age> ?a . FILTER(?a < 10) }")
    assert fingerprint_query(q1) != fingerprint_query(q3)


def test_solution_modifiers_are_part_of_the_template():
    plain = parse_query("SELECT ?x WHERE { ?x <follows> ?y }")
    distinct = parse_query("SELECT DISTINCT ?x WHERE { ?x <follows> ?y }")
    limited = parse_query("SELECT ?x WHERE { ?x <follows> ?y } LIMIT 5")
    fingerprints = {
        fingerprint_query(plain),
        fingerprint_query(distinct),
        fingerprint_query(limited),
    }
    assert len(fingerprints) == 3
    # ...but two different LIMIT values are the same SLICE template.
    limited10 = parse_query("SELECT ?x WHERE { ?x <follows> ?y } LIMIT 10")
    assert fingerprint_query(limited) == fingerprint_query(limited10)


def test_optional_and_union_structure_stays_distinct():
    join = parse_query("SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?z }")
    optional = parse_query(
        "SELECT * WHERE { ?x <follows> ?y OPTIONAL { ?y <likes> ?z } }"
    )
    union = parse_query(
        "SELECT * WHERE { { ?x <follows> ?y } UNION { ?x <likes> ?y } }"
    )
    fingerprints = {
        fingerprint_query(join),
        fingerprint_query(optional),
        fingerprint_query(union),
    }
    assert len(fingerprints) == 3


def test_fingerprint_is_short_stable_hex():
    fp = fingerprint_text("SELECT ?0 WHERE {?0 <p> *}")
    assert len(fp) == 12
    assert fp == fingerprint_text("SELECT ?0 WHERE {?0 <p> *}")
    int(fp, 16)  # hex


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
def full_record() -> JournalRecord:
    return JournalRecord(
        fingerprint="abcdef012345",
        template='SELECT ?0 WHERE Filter[?1 = *]({?0 <say "hi"> ?1})',
        epoch=3,
        rows=42,
        wall_ms=12.346,  # serialized at millisecond precision (3 decimals)
        ts=1700000000.125,
        phase_ms={"parse": 0.111, "execute": 11.5},
        scanned_tables={"vp_likes": 10, 'odd"name\\tbl': 4},
        estimated_rows=50,
        estimate_q_error=1.1863,
        segments_scanned=7,
        segments_pruned=5,
        statically_empty=False,
    )


def test_json_line_round_trips_every_field():
    record = full_record()
    line = record.to_json_line()
    assert JournalRecord.from_json(json.loads(line)) == record
    # The hand-assembled line carries the same payload as the dict form.
    assert json.loads(line) == record.to_json()


def test_json_line_is_sparse_for_default_fields():
    record = JournalRecord(
        fingerprint="abc", template="", epoch=None, rows=0, wall_ms=1.0, ts=1.0
    )
    data = json.loads(record.to_json_line())
    assert data["epoch"] is None
    assert set(data) == {"ts", "fingerprint", "epoch", "rows", "wall_ms"}
    assert JournalRecord.from_json(data) == record


def test_json_line_can_omit_the_template():
    record = full_record()
    data = json.loads(record.to_json_line(include_template=False))
    assert "template" not in data
    restored = JournalRecord.from_json(data)
    assert restored.template == ""
    assert restored.fingerprint == record.fingerprint


def test_q_error_is_symmetric_and_smoothed():
    assert q_error(None, 10) is None
    assert q_error(-1, 10) is None  # UNKNOWN_ROWS sentinel
    assert q_error(10, 10) == 1.0
    assert q_error(99, 9) == pytest.approx(10.0)
    assert q_error(9, 99) == pytest.approx(10.0)
    assert q_error(0, 0) == 1.0  # +1 smoothing keeps zeros finite


# --------------------------------------------------------------------------- #
# The journal store
# --------------------------------------------------------------------------- #
def make_record(index: int, fingerprint: str = "fp0", template: str = "T") -> JournalRecord:
    return JournalRecord(
        fingerprint=fingerprint,
        template=template,
        epoch=0,
        rows=index,
        wall_ms=1.0,
        ts=float(index + 1),
    )


def test_journal_rejects_degenerate_caps():
    with pytest.raises(ValueError):
        QueryJournal(max_file_bytes=0)
    with pytest.raises(ValueError):
        QueryJournal(max_files=0)
    with pytest.raises(ValueError):
        QueryJournal(max_memory_records=0)


def test_in_memory_journal_is_a_bounded_ring():
    journal = QueryJournal(max_memory_records=5)
    for i in range(8):
        journal.append(make_record(i))
    records = journal.records()
    assert [r.rows for r in records] == [3, 4, 5, 6, 7]
    assert journal.appended_count == 8
    assert journal.file_count() == 0


def test_journal_renders_template_from_parsed_query(example_graph):
    """The session hands the journal a rendered template: the cached one for a
    text (first and later instances alike), a fresh rendering for a ``Query``."""
    text = "SELECT ?x WHERE { ?x <follows> <%s> }"
    parsed = parse_query(text % "B")
    with S2RDFSession.from_graph(example_graph) as session:
        session.query(text % "B")
        session.query(text % "D")
        session.query(parsed)
        records = session.journal.records()
    assert len(records) == 3
    for record in records:
        assert record.template == template_text(parsed)
        assert record.fingerprint == fingerprint_query(parsed)
        assert record.ts > 0.0  # stamped on append


def test_persistent_journal_survives_reopening(tmp_path):
    directory = str(tmp_path / "journal")
    journal = QueryJournal(directory=directory)
    parsed = parse_query("SELECT ?x WHERE { ?x <follows> ?y }")
    for i in range(3):
        journal.append(make_record(i, fingerprint_query(parsed), template_text(parsed)))
    journal.close()

    reopened = QueryJournal(directory=directory)
    records = reopened.records()
    assert [r.rows for r in records] == [0, 1, 2]
    # Templates come back from the sidecar even though record lines omit them.
    assert all(r.template == template_text(parsed) for r in records)
    assert reopened.appended_count == 0  # counts this object's appends only
    reopened.append(make_record(3, fingerprint_query(parsed), template_text(parsed)))
    assert [r.rows for r in reopened.records()] == [0, 1, 2, 3]
    reopened.close()


def test_template_sidecar_stores_each_template_once(tmp_path):
    directory = str(tmp_path / "journal")
    journal = QueryJournal(directory=directory)
    parsed = parse_query("SELECT ?x WHERE { ?x <follows> ?y }")
    for i in range(10):
        journal.append(make_record(i, fingerprint_query(parsed), template_text(parsed)))
    journal.close()
    with open(os.path.join(directory, TEMPLATES_FILE), encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    assert len(entries) == 1
    assert entries[0]["template"] == template_text(parsed)
    # ...and the record lines themselves never carry the template text.
    with open(os.path.join(directory, "queries-00001.jsonl"), encoding="utf-8") as handle:
        assert all("template" not in json.loads(line) for line in handle if line.strip())


def test_reads_are_read_your_writes_despite_buffering(tmp_path):
    journal = QueryJournal(directory=str(tmp_path / "journal"))
    appended = FLUSH_INTERVAL // 2  # below the flush interval
    for i in range(appended):
        journal.append(make_record(i))
    assert len(journal.records()) == appended
    journal.close()


def test_rotation_caps_bytes_per_file_and_prunes_oldest(tmp_path):
    directory = str(tmp_path / "journal")
    journal = QueryJournal(directory=directory, max_file_bytes=300, max_files=3)
    for i in range(60):
        journal.append(make_record(i))
    assert journal.file_count() == 3
    for name in os.listdir(directory):
        if name.startswith("queries-"):
            assert os.path.getsize(os.path.join(directory, name)) <= 300 + 120
    records = journal.records()
    # Oldest files were pruned: the survivors are a strict, contiguous tail.
    rows = [r.rows for r in records]
    assert rows == list(range(60 - len(rows), 60))
    assert 0 < len(rows) < 60
    journal.close()


def test_corrupt_and_truncated_lines_are_skipped(tmp_path):
    directory = str(tmp_path / "journal")
    journal = QueryJournal(directory=directory)
    journal.append(make_record(0))
    journal.append(make_record(1))
    journal.close()
    path = os.path.join(directory, "queries-00001.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("this is not json\n")
        handle.write('{"rows": 99}\n')  # parseable but missing required keys
        handle.write('{"ts":3.0,"fingerprint":"fp0","epoch":0,"rows":2,"wall_ms":1.0}\n')
        handle.write('{"ts":4.0,"fingerprint":"fp0","ep')  # truncated write
    records = QueryJournal(directory=directory).records()
    assert [r.rows for r in records] == [0, 1, 2]


def test_read_dataset_journal_without_a_journal_is_empty(tmp_path):
    assert read_dataset_journal(str(tmp_path / "nowhere")) == []


# --------------------------------------------------------------------------- #
# Session integration
# --------------------------------------------------------------------------- #
def test_ephemeral_session_journals_in_memory():
    with small_session(num_partitions=2) as session:
        session.query("SELECT ?f WHERE { <u1> <follows> ?f }")
        session.query("SELECT ?f WHERE { <u2> <follows> ?f }")
        session.query("SELECT ?x ?p WHERE { ?x <follows> ?y . ?y <likes> ?p }")
        records = session.journal.records()
    assert len(records) == 3
    assert not session.journal.persistent
    # The two instantiations of one template share a fingerprint.
    assert records[0].fingerprint == records[1].fingerprint
    assert records[0].fingerprint != records[2].fingerprint
    for record in records:
        assert record.epoch is None  # never touched a stored dataset
        assert record.wall_ms > 0.0
        assert record.scanned_tables
        assert set(record.phase_ms) == {"parse", "compile", "plan", "execute"}
        assert record.estimate_q_error is None or record.estimate_q_error >= 1.0


def test_journal_can_be_disabled():
    with small_session(journal_enabled=False) as session:
        result = session.query("SELECT ?f WHERE { <u1> <follows> ?f }")
        assert session.journal is None
        assert result.metrics is not None


def test_save_dataset_migrates_memory_records_and_stamps_epochs(tmp_path):
    path = str(tmp_path / "ds")
    with small_session(num_partitions=2) as session:
        session.query("SELECT ?f WHERE { <u1> <follows> ?f }")  # pre-save
        session.save_dataset(path)
        session.query("SELECT ?f WHERE { <u2> <follows> ?f }")  # epoch 0
        session.append_triples([Triple.of("u99", "follows", "u1")])
        session.query("SELECT ?f WHERE { <u3> <follows> ?f }")  # epoch 1

    records = read_dataset_journal(path)
    assert [r.epoch for r in records] == [None, 0, 1]
    assert session.journal.persistent
    assert os.path.isdir(journal_directory(path))

    # A fresh session over the same dataset appends to the same journal.
    with S2RDFSession.open_dataset(path) as reopened:
        reopened.query("SELECT ?f WHERE { <u4> <follows> ?f }")
    records = read_dataset_journal(path)
    assert [r.epoch for r in records] == [None, 0, 1, 1]
    # All four are instantiations of one template, written by two sessions.
    assert len({r.fingerprint for r in records}) == 1
    assert all(r.template for r in records)


def test_mid_append_queries_carry_the_pre_append_epoch(tmp_path, monkeypatch):
    """The journal epoch advances only after the manifest swap: a query that
    runs while an append is being written still executed against the old
    epoch's data, and its record must say so."""
    import repro.store.writer as writer_module

    path = str(tmp_path / "ds")
    session = small_session(num_partitions=2)
    session.save_dataset(path)
    real_write_manifest = writer_module.write_manifest
    seen = {}

    def write_manifest_with_concurrent_query(target, manifest, *args, **kwargs):
        # Runs at the append's commit point, *before* the session refreshes:
        # a concurrent reader would observe exactly this window.
        if "epoch" not in seen:
            result = session.query("SELECT ?f WHERE { <u7> <follows> ?f }")
            assert result is not None
            seen["epoch"] = session.journal.records()[-1].epoch
        return real_write_manifest(target, manifest, *args, **kwargs)

    monkeypatch.setattr(writer_module, "write_manifest", write_manifest_with_concurrent_query)
    session.append_triples([Triple.of("u98", "follows", "u2")])
    monkeypatch.undo()

    assert seen["epoch"] == 0  # the old epoch, not the appended one
    session.query("SELECT ?f WHERE { <u8> <follows> ?f }")
    assert session.journal.records()[-1].epoch == 1
    session.close()


def test_statically_empty_queries_are_journaled():
    with small_session() as session:
        session.query("SELECT ?x WHERE { ?x <no-such-predicate> ?y }")
        (record,) = session.journal.records()
    assert record.statically_empty
    assert record.rows == 0


def test_session_config_direct_construction_defaults_journal_on():
    graph = Graph([Triple.of("a", "p", "b")], name="t")
    with S2RDFSession.from_graph(graph, config=SessionConfig()) as session:
        session.query("SELECT ?x WHERE { ?x <p> ?y }")
        assert session.journal.record_count() == 1
