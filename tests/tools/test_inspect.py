"""Store health inspector tests: per-file base/delta/selection accounting,
live, dead and uncommitted bytes, write amplification, compaction
recommendations, journal-derived pruning stats and the
``python -m repro.tools.inspect`` CLI."""

import json

import pytest

from repro.core.config import StoreConfig
from repro.core.session import S2RDFSession
from repro.mappings.extvp import correlation_keys
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.store.format import read_manifest
from repro.tools.inspect import (
    DEFAULT_DELTA_SEGMENT_THRESHOLD,
    StoreHealthReport,
    inspect_dataset,
    main,
)


def build_session() -> S2RDFSession:
    triples = [Triple.of(f"u{i}", "follows", f"u{(i * 3) % 8}") for i in range(24)]
    triples += [Triple.of(f"u{i}", "likes", f"p{i % 3}") for i in range(0, 24, 2)]
    return S2RDFSession.from_graph(Graph(triples, name="health"), num_partitions=2)


@pytest.fixture()
def dataset(tmp_path):
    """A persisted dataset with one append epoch and a few journaled queries."""
    path = str(tmp_path / "ds")
    with build_session() as session:
        session.save_dataset(path)
        session.query("SELECT ?f WHERE { <u1> <follows> ?f }")
        # New followers of u2, who likes things: the new rows also enter
        # ExtVP_OS[follows|likes], a selection over ``vp_follows``.
        session.append_triples([Triple.of(f"u{30 + i}", "follows", "u2") for i in range(4)])
        session.query("SELECT ?f WHERE { <u2> <follows> ?f }")
        session.query("SELECT ?x ?p WHERE { ?x <follows> ?y . ?y <likes> ?p }")
    return path


def test_report_reflects_manifest_and_journal(dataset):
    report = inspect_dataset(dataset)
    manifest = read_manifest(dataset)
    assert isinstance(report, StoreHealthReport)
    assert report.append_epoch == 1
    assert report.format_version == manifest.format_version
    assert report.table_count == len(manifest.tables)  # the VP tables and ``triples``
    assert report.selection_count == len(manifest.extvp.materialized()) > 0
    # Every maintained correlation without a table, the empty ones included.
    maintained = len(correlation_keys(list(manifest.vp_tables)))
    assert report.statistics_only_count == maintained - report.selection_count > 0
    assert report.dictionary_terms == manifest.dictionary_size
    assert report.dictionary_bytes > 0
    assert report.total_bytes == report.base_bytes + report.delta_bytes + report.selection_bytes
    assert report.delta_bytes > 0  # the append left unfolded deltas
    assert report.selection_bytes > 0
    assert report.triples == manifest.tables["triples"].row_count
    assert report.bytes_per_triple == pytest.approx(report.total_bytes / report.triples)
    # Three queries were journaled; they scanned stored segments.
    assert report.journal_records == 3
    assert report.journal_files >= 1
    assert report.observed_prune_fraction is None or 0.0 <= report.observed_prune_fraction <= 1.0


def test_per_table_health_accounts_base_and_delta(dataset):
    report = inspect_dataset(dataset)
    by_name = {t.name: t for t in report.tables}
    follows = by_name["vp_follows"]  # the appended predicate
    assert follows.delta_segments > 0
    assert follows.delta_rows > 0
    assert follows.rows == follows.base_rows + follows.delta_rows
    assert follows.total_bytes == (
        follows.base_bytes + follows.delta_bytes + follows.selection_bytes
    )
    assert follows.zone_width_fraction is None or 0.0 <= follows.zone_width_fraction <= 1.0
    likes = by_name["vp_likes"]  # no new row, and no new value for its reductions to match
    assert likes.delta_segments == 0
    assert likes.delta_bytes == 0
    assert likes.dead_bytes == 0
    # Only physically stored tables have a file, so only they are listed; the
    # ExtVP tables show as what their VP table's file carries.
    assert set(by_name) == {"triples", "vp_follows", "vp_likes"}
    manifest = read_manifest(dataset)
    for table in report.tables:
        entry = manifest.tables[table.name]
        assert table.selections == len(entry.selections)
        assert table.selection_bytes == sum(s.size_bytes() for s in entry.selections.values())
    assert follows.selections > 0 and by_name["triples"].selections == 0


def test_superseded_bitmaps_are_dead_bytes_until_compaction(dataset):
    """The new ``follows`` rows joined ExtVP tables over ``vp_follows``: their
    bitmaps were written anew behind the deltas and the old blobs still lie
    in the file, referenced by nothing."""
    report = inspect_dataset(dataset)
    follows = next(t for t in report.tables if t.name == "vp_follows")
    assert follows.dead_bytes > 0
    assert follows.committed_bytes == follows.total_bytes + follows.dead_bytes
    assert report.dead_bytes == sum(t.dead_bytes for t in report.tables)
    assert f"{report.dead_bytes} dead" in report.render_text()
    with S2RDFSession.open_dataset(dataset) as session:
        session.compact()
    after = inspect_dataset(dataset)
    assert after.dead_bytes == 0
    assert all(t.committed_bytes == t.total_bytes for t in after.tables)


def test_compaction_recommendation_appears_and_clears(dataset):
    report = inspect_dataset(dataset, delta_segment_threshold=1)
    assert "vp_follows" in report.compaction_candidates
    candidate = next(t for t in report.tables if t.name == "vp_follows")
    assert candidate.needs_compaction
    assert "delta segment" in candidate.compaction_reason

    with S2RDFSession.open_dataset(dataset) as session:
        session.compact(compaction_threshold=1)
    after = inspect_dataset(dataset, delta_segment_threshold=1)
    assert after.compaction_candidates == []
    assert after.delta_bytes == 0
    assert after.append_epoch >= 1  # compaction does not lose the epoch


def test_fresh_dataset_needs_no_compaction(tmp_path):
    path = str(tmp_path / "fresh")
    with build_session() as session:
        session.save_dataset(path)
    report = inspect_dataset(path)
    assert report.append_epoch == 0
    assert report.compaction_candidates == []
    assert report.delta_bytes == 0
    assert report.journal_records == 0
    assert report.observed_prune_fraction is None
    assert "query journal: empty" in report.render_text()


def test_as_dict_is_json_serializable(dataset):
    data = inspect_dataset(dataset).as_dict()
    encoded = json.dumps(data)
    decoded = json.loads(encoded)
    assert decoded["append_epoch"] == 1
    assert decoded["tables"]
    assert {
        "name", "rows", "delta_segments", "needs_compaction", "file", "selections",
        "selection_bytes", "live_bytes", "dead_bytes", "uncommitted_bytes",
    } <= set(decoded["tables"][0])  # fmt: skip
    assert {"selection_count", "selection_bytes", "dead_bytes"} <= set(decoded)


def test_render_text_mentions_the_headline_numbers(dataset):
    text = inspect_dataset(dataset).render_text(top_tables=3)
    assert "manifest epoch 1" in text
    assert "write amplification" in text
    assert "Largest tables (top 3" in text
    assert "Compaction" in text


def test_cli_text_and_json_modes(dataset, capsys):
    assert main([dataset]) == 0
    assert "Store health" in capsys.readouterr().out
    assert main([dataset, "--json", "--delta-threshold", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["append_epoch"] == 1
    assert "vp_follows" in payload["compaction_candidates"]


def test_default_threshold_matches_module_constant():
    """The inspector's default is the session's own default, taken from the
    config and not restated (it used to say 2 where the session says 1)."""
    assert DEFAULT_DELTA_SEGMENT_THRESHOLD == StoreConfig().compaction_threshold


def test_default_advice_is_what_the_session_would_compact(dataset):
    """The inspector's rule is the compactor's: with defaults on both sides,
    the files it recommends are the files ``compact()`` rewrites."""
    recommended = inspect_dataset(dataset).compaction_candidates
    assert "vp_follows" in recommended
    with S2RDFSession.open_dataset(dataset) as session:
        report = session.compact()
    assert sorted(name for name in report.touched_tables if name in recommended) == recommended
    assert report.tables_compacted == len(recommended)
    assert inspect_dataset(dataset).compaction_candidates == []


def test_dead_bytes_alone_recommend_compaction(dataset):
    """Below the delta threshold, a file with superseded bitmaps is still
    recommended — and still rewritten by a compaction with that threshold."""
    report = inspect_dataset(dataset, delta_segment_threshold=50)
    follows = next(t for t in report.tables if t.name == "vp_follows")
    assert follows.needs_compaction and "dead bytes" in follows.compaction_reason
    triples = next(t for t in report.tables if t.name == "triples")
    assert triples.delta_segments and not triples.needs_compaction  # no bitmaps, no dead bytes
    with S2RDFSession.open_dataset(dataset) as session:
        compaction = session.compact(compaction_threshold=50)
    assert "vp_follows" in compaction.touched_tables
    assert "triples" not in compaction.touched_tables


def test_uncommitted_tail_of_a_table_file_is_reported(dataset):
    """Bytes behind a table file's committed end (a write that crashed before
    its manifest swap) show up per table and in the headline."""
    clean = inspect_dataset(dataset)
    assert clean.uncommitted_bytes == 0
    assert "uncommitted tails" not in clean.render_text()
    follows = next(t for t in clean.tables if t.name == "vp_follows")
    assert follows.file == "tables/vp_follows.seg"
    assert follows.committed_bytes == follows.total_bytes + follows.dead_bytes

    with open(f"{dataset}/{follows.file}", "ab") as handle:
        handle.write(b"x" * 17)
    report = inspect_dataset(dataset)
    torn = next(t for t in report.tables if t.name == "vp_follows")
    assert torn.uncommitted_bytes == report.uncommitted_bytes == 17
    assert torn.committed_bytes == follows.committed_bytes
    assert "uncommitted tails: 17 bytes" in report.render_text()
    assert "tables/vp_follows.seg" in report.render_text()


def test_served_queries_show_their_queue_wait_and_worker_hop(dataset):
    """From the journal alone: how long served queries queued, and what the
    hop to a process worker cost them."""
    assert inspect_dataset(dataset).served_queue_ms_p50 is None  # nothing was served yet
    assert "served queries" not in inspect_dataset(dataset).render_text()
    with S2RDFSession.open_dataset(
        dataset, execution_mode="process", worker_processes=1
    ) as session:
        with session.serve() as scheduler:
            handle = scheduler.submit("SELECT ?f WHERE { <u1> <follows> ?f }")
            handle.result(timeout=30)
    report = inspect_dataset(dataset)
    assert report.served_queue_ms_p50 == pytest.approx(handle.queue_ms, abs=1e-3)
    assert report.served_dispatch_ms_p50 == pytest.approx(handle.dispatch_ms, abs=1e-3)
    assert "worker hop p50" in report.render_text()
    assert json.loads(json.dumps(report.as_dict()))["served_dispatch_ms_p50"] > 0.0
