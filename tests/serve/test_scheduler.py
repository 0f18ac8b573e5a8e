"""QueryScheduler: handles, priority dispatch, admission backpressure,
result sharing, bounded bookkeeping and the journal's queue_ms / dispatch_ms
fields."""

import threading
import time

import pytest

import repro
from repro.baselines.base import SparqlEngine
from repro.baselines.binding_iteration import index_nested_loop_execute
from repro.core.config import ServingConfig
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import AdmissionError, QueryScheduler
from repro.sparql import parse_query


Q_BLOCK = "SELECT * WHERE { ?x <follows> ?y }"
Q_LOW = "SELECT * WHERE { ?x <likes> ?w }"
Q_HIGH = "SELECT ?y WHERE { <A> <follows> ?y }"


@pytest.fixture()
def session(example_graph):
    session = repro.create(example_graph)  # in-memory journal on by default
    yield session
    session.close()


class GatedQuery:
    """Wrap session._run (where the scheduler's thread mode runs a query):
    record execution order, block on Q_BLOCK."""

    def __init__(self, session):
        self.gate = threading.Event()
        self.order = []
        self._original = session._run
        session._run = self  # instance attribute shadows the bound method

    def __call__(self, query_text, *args, **kwargs):
        self.order.append(query_text)
        if query_text == Q_BLOCK:
            assert self.gate.wait(timeout=30)
        return self._original(query_text, *args, **kwargs)

    def wait_for_block(self):
        deadline = time.monotonic() + 30
        while Q_BLOCK not in self.order:
            assert time.monotonic() < deadline
            time.sleep(0.001)


def test_handle_result_done_and_iteration(session):
    with session.serve() as scheduler:
        handle = scheduler.submit(Q_LOW)
        result = handle.result(timeout=30)
        assert handle.done()
        assert handle.exception() is None
        assert len(result) == 3
        stats = scheduler.stats()
        assert stats["completed"] == 1
        assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0


def test_failed_query_raises_through_the_handle(session):
    with session.serve() as scheduler:
        handle = scheduler.submit("SELECT * WHERE { broken syntax")
        with pytest.raises(Exception):
            handle.result(timeout=30)
        assert handle.done()
        assert handle.exception() is not None


def test_result_timeout_raises_timeout_error(session):
    gated = GatedQuery(session)
    with session.serve(serving=ServingConfig(share_results=False)) as scheduler:
        handle = scheduler.submit(Q_BLOCK)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        gated.gate.set()
        handle.result(timeout=30)


def test_priority_orders_dispatch_fifo_within_equals(session):
    gated = GatedQuery(session)
    serving = ServingConfig(max_concurrent_queries=1, share_results=False)
    with session.serve(serving=serving) as scheduler:
        blocker = scheduler.submit(Q_BLOCK)
        gated.wait_for_block()  # the only dispatcher is now busy
        low = scheduler.submit(Q_LOW, priority=0)
        high = scheduler.submit(Q_HIGH, priority=5)
        gated.gate.set()
        for handle in (blocker, low, high):
            handle.result(timeout=30)
    assert gated.order == [Q_BLOCK, Q_HIGH, Q_LOW]


def test_reject_policy_raises_admission_error(session):
    gated = GatedQuery(session)
    serving = ServingConfig(
        max_concurrent_queries=1,
        admission_queue_limit=1,
        admission_policy="reject",
        share_results=False,
    )
    with session.serve(serving=serving) as scheduler:
        blocker = scheduler.submit(Q_BLOCK)
        gated.wait_for_block()  # blocker left the queue; the dispatcher holds it
        queued = scheduler.submit(Q_LOW)  # fills the one-slot admission queue
        with pytest.raises(AdmissionError, match="admission queue is full"):
            scheduler.submit(Q_HIGH)
        gated.gate.set()
        blocker.result(timeout=30)
        queued.result(timeout=30)
    assert session.metrics.counter_value("s2rdf_scheduler_rejected_total") == 1


def test_queue_policy_blocks_submitter_until_a_slot_frees(session):
    gated = GatedQuery(session)
    serving = ServingConfig(
        max_concurrent_queries=1,
        admission_queue_limit=1,
        admission_policy="queue",
        share_results=False,
    )
    with session.serve(serving=serving) as scheduler:
        scheduler.submit(Q_BLOCK)
        gated.wait_for_block()
        scheduler.submit(Q_LOW)  # fills the queue
        admitted = []

        def submitter():
            admitted.append(scheduler.submit(Q_HIGH))

        thread = threading.Thread(target=submitter)
        thread.start()
        time.sleep(0.05)
        assert not admitted  # still blocked on the full queue
        gated.gate.set()  # blocker finishes; the queue drains; slot frees
        thread.join(timeout=30)
        assert not thread.is_alive()
        admitted[0].result(timeout=30)


def test_identical_inflight_queries_share_one_execution(session):
    gated = GatedQuery(session)
    with session.serve() as scheduler:  # share_results defaults True
        leader = scheduler.submit(Q_BLOCK)
        gated.wait_for_block()
        followers = [scheduler.submit(Q_BLOCK) for _ in range(3)]
        gated.gate.set()
        result = leader.result(timeout=30)
        assert not leader.shared
        for follower in followers:
            assert follower.shared
            assert follower.result(timeout=30) is result  # same object, one run
    assert gated.order.count(Q_BLOCK) == 1
    assert session.metrics.counter_value("s2rdf_scheduler_shared_results_total") == 3


def test_sharing_disabled_runs_every_submission(session):
    gated = GatedQuery(session)
    with session.serve(serving=ServingConfig(share_results=False)) as scheduler:
        gated.gate.set()  # never block
        handles = [scheduler.submit(Q_BLOCK) for _ in range(3)]
        for handle in handles:
            handle.result(timeout=30)
    assert gated.order.count(Q_BLOCK) == 3


def test_queue_ms_lands_in_the_journal(session):
    with session.serve() as scheduler:
        scheduler.submit(Q_LOW).result(timeout=30)
        scheduler.drain(timeout=30)
    records = session.journal.records()
    assert records, "scheduled query must be journaled"
    assert records[-1].queue_ms is not None
    assert records[-1].queue_ms >= 0.0
    # A direct (unscheduled) query has no admission queue to wait in.
    session.query(Q_HIGH)
    assert session.journal.records()[-1].queue_ms is None


def test_closed_scheduler_rejects_submissions(session):
    scheduler = session.serve()
    scheduler.submit(Q_LOW).result(timeout=30)
    scheduler.close()
    with pytest.raises(RuntimeError, match="closed"):
        scheduler.submit(Q_LOW)


def test_a_raising_prewarm_fails_neither_the_query_nor_the_dispatcher(
    example_graph, tmp_path, monkeypatch
):
    # Prewarm runs once per manifest epoch, so the session must be a stored one.
    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    calls = []

    def broken_prewarm(self, tables=None, epoch=None):
        calls.append(epoch)
        raise RuntimeError("dictionary changed size during iteration")

    monkeypatch.setattr(QueryScheduler, "prewarm", broken_prewarm)
    serving = ServingConfig(max_concurrent_queries=1)
    with repro.connect(path) as session, session.serve(serving=serving) as scheduler:
        assert len(scheduler.submit(Q_LOW).result(timeout=30)) == 3
        assert calls == [0]  # prewarm did run, and did raise
        # The only dispatcher survived to serve the next submission.
        assert len(scheduler.submit(Q_HIGH).result(timeout=30)) == 1
        scheduler.drain(timeout=30)
        assert session.metrics.counter_value("s2rdf_scheduler_prewarm_failed_total") == 1


def test_completed_keeps_counting_past_the_latency_window(session, monkeypatch):
    monkeypatch.setattr(scheduler_module, "LATENCY_WINDOW", 4)
    with session.serve(serving=ServingConfig(share_results=False)) as scheduler:
        for handle in [scheduler.submit(Q_LOW) for _ in range(9)]:
            handle.result(timeout=30)
        scheduler.drain(timeout=30)
        stats = scheduler.stats()
        assert stats["completed"] == 9
        assert len(scheduler._latencies_ms) == 4
        assert stats["p99_ms"] >= stats["p50_ms"] > 0.0


def test_dispatch_ms_is_journaled_for_process_workers_only(session, tmp_path):
    from repro.obs.journal import JournalRecord

    path = str(tmp_path / "dataset")
    session.save_dataset(path)
    with repro.connect(path, execution_mode="process", worker_processes=1) as served:
        with served.serve() as scheduler:
            handle = scheduler.submit(Q_LOW)
            result = handle.result(timeout=30)
            scheduler.drain(timeout=30)
        record = served.journal.records()[-1]
    # The hop is named next to the queue wait; the result's own clock is
    # still the worker's time for the query.
    assert handle.dispatch_ms is not None and handle.dispatch_ms > 0.0
    # (The record was read back from the dataset's journal: 3 decimals.)
    assert record.dispatch_ms == pytest.approx(handle.dispatch_ms, abs=1e-3)
    assert record.queue_ms == pytest.approx(handle.queue_ms, abs=1e-3)
    assert record.wall_ms == pytest.approx(result.wall_clock_ms, abs=1e-3)
    assert '"dispatch_ms":' in record.to_json_line()
    assert JournalRecord.from_json(record.to_json()).dispatch_ms == record.dispatch_ms
    # Thread-mode serving has no hop to name.
    with session.serve() as scheduler:
        local = scheduler.submit(Q_HIGH)
        local.result(timeout=30)
        scheduler.drain(timeout=30)
    assert local.dispatch_ms is None
    assert session.journal.records()[-1].dispatch_ms is None
    assert "dispatch_ms" not in session.journal.records()[-1].to_json_line()


#: Joins, a constant (and Q_HIGH's template again, with another: a template
#: cache hit), an aggregate (rows at the root, not ids), ORDER BY, no
#: variables at all (one pattern, and two that must not join on anything),
#: and a predicate the store does not hold.
PARITY_QUERIES = [
    Q_BLOCK,
    Q_LOW,
    Q_HIGH,
    "SELECT ?y WHERE { <B> <follows> ?y }",
    "SELECT * WHERE { ?x <follows> ?y . ?y <likes> ?w }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?x <follows> ?y }",
    "SELECT ?x WHERE { ?x <likes> <I2> } ORDER BY DESC(?x)",
    "SELECT * WHERE { <A> <follows> <B> }",
    "SELECT * WHERE { <A> <follows> <B> . <B> <follows> <C> }",
    "SELECT * WHERE { <A> <unknown> ?y }",
]


def served_in(path, mode):
    """Serve every parity query once in ``mode``: results, registry, journal records."""
    with repro.connect(path, execution_mode=mode, worker_processes=1) as served:
        with served.serve(ServingConfig(share_results=False)) as scheduler:
            results = [scheduler.submit(text).result(timeout=30) for text in PARITY_QUERIES]
            scheduler.drain(timeout=30)
        snapshot = served.metrics.snapshot()
        records = served.journal.records()[-len(PARITY_QUERIES):]
    return results, snapshot, records


def test_process_serving_counts_and_journals_as_thread_serving(session, tmp_path):
    """The worker's record reaches the parent's registry and journal: both
    modes make the same registry updates (every counter's value, every
    histogram's count, the template and plan caches' and the join times'
    included), and write the same records but for what a clock decides
    (``estimated_rows`` and its q-error included)."""
    import dataclasses

    path = str(tmp_path / "dataset")
    session.save_dataset(path)
    threaded, thread_snapshot, thread_records = served_in(path, "thread")
    processed, process_snapshot, process_records = served_in(path, "process")

    for thread_result, process_result in zip(threaded, processed):
        assert sorted(map(repr, process_result.relation.rows)) == sorted(
            map(repr, thread_result.relation.rows)
        )
        assert process_result.sql == thread_result.sql
        assert process_result.join_strategies == thread_result.join_strategies
        assert process_result.metrics.input_tuples == thread_result.metrics.input_tuples

    def counted(snapshot):
        """Every counter's value and every histogram's count: no name is exempt."""
        histograms = snapshot["histograms"]
        return snapshot["counters"], {name: histograms[name]["count"] for name in histograms}

    assert counted(process_snapshot) == counted(thread_snapshot)
    counters, histograms = counted(thread_snapshot)
    assert counters["s2rdf_queries_total"] == len(PARITY_QUERIES)
    for name in ("s2rdf_template_cache_hits_total", "s2rdf_plan_cache_hits_total"):
        assert counters[name] == 1, name
    for name in ("s2rdf_template_cache_misses_total", "s2rdf_plan_cache_misses_total"):
        assert counters[name] == len(PARITY_QUERIES) - 1, name
    assert histograms["s2rdf_join_critical_path_ms"] > 0

    def untimed(record):
        fields = dataclasses.asdict(record)
        for name in ("ts", "wall_ms", "phase_ms", "queue_ms", "dispatch_ms"):
            del fields[name]
        return fields

    assert [untimed(record) for record in process_records] == [
        untimed(record) for record in thread_records
    ]
    assert any(record.estimated_rows is not None for record in process_records)
    assert all(record.dispatch_ms is not None for record in process_records)


#: Patterns without a variable: one that holds, two that hold (they join on
#: nothing), one beside a pattern with variables, and one that does not hold.
GROUND_QUERIES = [
    "SELECT * WHERE { <A> <follows> <B> }",
    "SELECT * WHERE { <A> <follows> <B> . <B> <follows> <C> }",
    "SELECT * WHERE { ?x <likes> ?w . <A> <follows> <B> }",
    "SELECT * WHERE { <A> <follows> <C> }",
]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_patterns_without_a_variable_answer_as_the_graph_oracle(
    session, example_graph, tmp_path, mode
):
    """A pattern without a variable adds no column: alone it gives one empty
    solution or none, and beside others it neither joins nor shows up."""
    path = str(tmp_path / "dataset")
    session.save_dataset(path)
    with repro.connect(path, execution_mode=mode, worker_processes=1) as served:
        with served.serve() as scheduler:
            results = [scheduler.submit(text).result(timeout=30) for text in GROUND_QUERIES]
        results += [served.query(text) for text in GROUND_QUERIES]

    def solutions(bindings):
        return sorted(repr(sorted(binding.items())) for binding in bindings)

    for text, result in zip(GROUND_QUERIES * 2, results):
        patterns = SparqlEngine.extract_single_bgp(parse_query(text)).patterns
        expected = index_nested_loop_execute(example_graph, patterns)
        variables = {variable.name for pattern in patterns for variable in pattern.variables()}
        assert set(result.variables) == variables, text
        assert solutions(result.bindings) == solutions(expected), text
    assert [len(result) for result in results[: len(GROUND_QUERIES)]] == [1, 1, 3, 0]
