"""Workload analyzer tests: synthetic-record aggregation rules plus the
50-query golden test — a mixed-template workload run through a real session
whose hot-template and table-reuse report must match ground truth exactly."""

import json
import os

import pytest

from repro.core.session import S2RDFSession
from repro.obs.journal import JournalRecord, fingerprint_query, journal_directory
from repro.obs.workload import (
    Q_ERROR_BUCKETS,
    WorkloadAnalysis,
    analyze_dataset,
    analyze_journal,
)
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.sparql.parser import parse_query
from repro.tools.inspect import main as inspect_main


def record(
    fingerprint: str,
    wall_ms: float = 1.0,
    rows: int = 1,
    epoch=0,
    scanned_tables=None,
    estimate_q_error=None,
    **kwargs,
) -> JournalRecord:
    return JournalRecord(
        fingerprint=fingerprint,
        template=f"T:{fingerprint}",
        epoch=epoch,
        rows=rows,
        wall_ms=wall_ms,
        ts=1.0,
        scanned_tables=dict(scanned_tables or {}),
        estimate_q_error=estimate_q_error,
        **kwargs,
    )


# --------------------------------------------------------------------------- #
# Aggregation rules on synthetic records
# --------------------------------------------------------------------------- #
def test_empty_journal_analyzes_to_an_empty_report():
    analysis = analyze_journal([])
    assert analysis.total_queries == 0
    assert analysis.hot_templates == []
    assert analysis.advice == []
    assert "none recorded" in analysis.render_text()


def test_hot_templates_rank_by_count_then_time_then_fingerprint():
    records = (
        [record("bb", wall_ms=1.0)] * 3
        + [record("aa", wall_ms=5.0)] * 2
        + [record("cc", wall_ms=9.0)] * 2
    )
    analysis = analyze_journal(records, top_k=2)
    assert [t.fingerprint for t in analysis.hot_templates] == ["bb", "cc"]
    assert analysis.hot_templates[0].count == 3
    assert analysis.total_queries == 7
    assert analysis.total_wall_ms == pytest.approx(3 + 10 + 18)


def test_table_reuse_counts_queries_templates_and_rows():
    records = [
        record("aa", scanned_tables={"vp_likes": 10, "vp_follows": 5}),
        record("aa", scanned_tables={"vp_likes": 20}),
        record("bb", scanned_tables={"vp_likes": 1}),
    ]
    analysis = analyze_journal(records)
    likes = next(t for t in analysis.table_reuse if t.table == "vp_likes")
    assert (likes.query_count, likes.rows_scanned, likes.template_count) == (3, 31, 2)
    follows = next(t for t in analysis.table_reuse if t.table == "vp_follows")
    assert (follows.query_count, follows.template_count) == (1, 1)
    assert analysis.table_reuse[0].table == "vp_likes"  # ranked by query count


def test_q_error_histogram_buckets_and_max():
    records = [
        record("aa", estimate_q_error=1.0),
        record("aa", estimate_q_error=1.4),
        record("aa", estimate_q_error=3.0),
        record("aa", estimate_q_error=100.0),
        record("aa"),  # no estimate: excluded from the histogram
    ]
    analysis = analyze_journal(records)
    assert analysis.estimated_queries == 4
    assert analysis.max_q_error == 100.0
    assert analysis.q_error_histogram == {
        "exact": 1,
        "(1, 1.5]": 1,
        "(2, 4]": 1,
        f"> {Q_ERROR_BUCKETS[-1]:g}": 1,
    }


def test_result_cache_advice_requires_stable_rows_on_one_epoch():
    stable = [record("aa", rows=7, epoch=2)] * 3
    unstable = [record("bb", rows=i, epoch=2) for i in range(3)]
    split_epochs = [record("cc", rows=7, epoch=e) for e in (0, 1, 2)]
    analysis = analyze_journal(stable + unstable + split_epochs)
    cache = [c for c in analysis.advice if c.kind == "result-cache"]
    assert [(c.key, c.epoch, c.count) for c in cache] == [("aa", 2, 3)]


def test_hot_table_advice_requires_reuse_across_templates():
    shared = [
        record("aa", scanned_tables={"vp_hot": 5}),
        record("bb", scanned_tables={"vp_hot": 5}),
        record("cc", scanned_tables={"vp_hot": 5, "vp_single": 1}),
    ]
    analysis = analyze_journal(shared, min_cache_count=99)
    hot = [c for c in analysis.advice if c.kind == "hot-table"]
    assert [c.key for c in hot] == ["vp_hot"]  # vp_single: one template only
    assert hot[0].count == 3


#: A journal line with the exchange counters sessions wrote while joins ran
#: on a partitioned runtime: all of them, once any counter was nonzero; and
#: with the ``engine`` key of a session that ran its plans on sqlite.
EXCHANGE_ERA_LINE = (
    '{"ts":1.000,"fingerprint":"aa","epoch":0,"rows":3,"wall_ms":2.000,'
    '"template":"T:aa","scanned_tables":{"vp_likes":4},'
    '"aqe_replans":1,"aqe_skew_splits":2,"broadcast_guard_trips":1,'
    '"segments_scanned":6,"segments_pruned":2,"engine":"sqlite","shuffled_bytes":1024,'
    '"broadcast_bytes":2048}'
)


@pytest.mark.parametrize(
    "counter",
    ["aqe_replans", "aqe_skew_splits", "broadcast_guard_trips", "shuffled_bytes", "broadcast_bytes"],
)
def test_each_exchange_counter_is_dropped_on_load(counter):
    """One retired counter on an otherwise current line: it loads, the
    counter is gone from the record and from what is written back, and the
    analysis reports nothing of it."""
    line = {"ts": 1.0, "fingerprint": "aa", "epoch": 0, "rows": 3, "wall_ms": 2.0, "template": "T:aa"}
    restored = JournalRecord.from_json(dict(line, **{counter: 5}))
    assert not hasattr(restored, counter)
    assert json.loads(restored.to_json_line()) == line
    analysis = analyze_journal([restored, restored])
    assert analysis.total_queries == 2
    assert counter not in json.dumps(analysis.as_dict())


def test_a_journal_with_exchange_counters_still_loads(tmp_path, capsys):
    restored = JournalRecord.from_json(json.loads(EXCHANGE_ERA_LINE))
    assert (restored.segments_scanned, restored.segments_pruned) == (6, 2)
    assert json.loads(restored.to_json_line()) == {
        key: value
        for key, value in json.loads(EXCHANGE_ERA_LINE).items()
        if key not in ("aqe_replans", "aqe_skew_splits", "broadcast_guard_trips", "engine")
        and not key.endswith("_bytes")
    }
    assert not hasattr(restored, "engine")
    assert "engine" not in json.dumps(analyze_journal([restored]).as_dict())

    path = str(tmp_path / "dataset")
    with S2RDFSession.from_graph(golden_graph(), journal_enabled=False) as session:
        session.save_dataset(path)
    os.makedirs(journal_directory(path))
    with open(os.path.join(journal_directory(path), "queries-00001.jsonl"), "w") as handle:
        handle.write((EXCHANGE_ERA_LINE + "\n") * 3)
    analysis = analyze_dataset(path)
    assert analysis.total_queries == 3
    assert analysis.hot_templates[0].template == "T:aa"
    assert inspect_main([path]) == 0
    assert "query journal: 3 record(s)" in capsys.readouterr().out


def test_as_dict_round_trips_through_render_text():
    analysis = analyze_journal([record("aa", estimate_q_error=2.5)] * 4)
    data = analysis.as_dict()
    assert data["total_queries"] == 4
    assert data["hot_templates"][0]["fingerprint"] == "aa"
    text = analysis.render_text()
    assert "aa  x4" in text
    assert "Materialization advice" in text
    assert isinstance(analysis, WorkloadAnalysis)


# --------------------------------------------------------------------------- #
# The 50-query golden test
# --------------------------------------------------------------------------- #
TEMPLATE_A = "SELECT ?f ?p WHERE {{ <{user}> <follows> ?f . ?f <likes> ?p }}"
TEMPLATE_B = "SELECT ?u WHERE {{ ?u <likes> <{product}> }}"
TEMPLATE_C = "SELECT ?a ?b WHERE {{ ?a <follows> ?b . ?b <follows> <{user}> }}"


def golden_graph() -> Graph:
    triples = [Triple.of(f"u{i}", "follows", f"u{(i * 3) % 10}") for i in range(30)]
    triples += [Triple.of(f"u{i}", "likes", f"p{i % 4}") for i in range(0, 30, 2)]
    return Graph(triples, name="golden")


def golden_workload():
    """50 queries: 25 + 15 + 10 instantiations of three templates."""
    queries = [TEMPLATE_A.format(user=f"u{i % 9}") for i in range(25)]
    queries += [TEMPLATE_B.format(product=f"p{i % 4}") for i in range(15)]
    queries += [TEMPLATE_C.format(user=f"u{i % 7}") for i in range(10)]
    return queries


def test_fifty_query_workload_matches_ground_truth_exactly(tmp_path):
    queries = golden_workload()
    assert len(queries) == 50

    # Ground truth, computed independently of the journal: fingerprints from
    # the public fingerprint_query(), per-table demand from each result's own
    # execution metrics.
    expected_counts = {}
    expected_tables = {}
    expected_templates_per_table = {}
    path = str(tmp_path / "golden-ds")
    with S2RDFSession.from_graph(golden_graph(), num_partitions=2) as session:
        session.save_dataset(path)
        for query_text in queries:
            fingerprint = fingerprint_query(parse_query(query_text))
            expected_counts[fingerprint] = expected_counts.get(fingerprint, 0) + 1
            result = session.query(query_text)
            for table, rows in result.metrics.scanned_tables.items():
                count, total = expected_tables.get(table, (0, 0))
                expected_tables[table] = (count + 1, total + rows)
                expected_templates_per_table.setdefault(table, set()).add(fingerprint)

    assert sorted(expected_counts.values(), reverse=True) == [25, 15, 10]

    analysis = analyze_dataset(path, top_k=3)
    assert analysis.total_queries == 50

    # Exact top-k: the three templates, in count order, with exact counts.
    ranked = [(t.fingerprint, t.count) for t in analysis.hot_templates]
    assert ranked == sorted(
        expected_counts.items(), key=lambda item: (-item[1], item[0])
    )
    for stats in analysis.hot_templates:
        assert stats.template  # rehydrated from the sidecar
        assert stats.epochs == [0]

    # Exact per-table reuse: query counts, tuples read and template counts.
    observed = {t.table: (t.query_count, t.rows_scanned) for t in analysis.table_reuse}
    assert observed == expected_tables
    for reuse in analysis.table_reuse:
        assert reuse.template_count == len(expected_templates_per_table[reuse.table])

    # Every query had a root estimate on this workload.
    assert analysis.estimated_queries == 50
    assert analysis.max_q_error >= 1.0
