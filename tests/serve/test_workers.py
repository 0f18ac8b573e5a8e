"""Worker pool: scan/query tasks, epoch refresh inside the workers, and the
lifecycle the pool owns (worker death, respawn, close with work in flight)."""

import os
import pickle
import shutil
import signal
import sys
import threading
import time

import pytest

from repro.core.session import S2RDFSession
from repro.engine.ops import TableScanNode
from repro.engine.estimates import estimate_rows
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.serve import workers
from repro.serve.workers import PartitionWorkerPool, WorkerDiedError
from repro.sparql.parser import SparqlParseError

QUERY = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"


def bag(relation):
    return sorted(map(repr, relation.rows))


def run_query(pool, session, text, epoch=None):
    """``text`` served on ``pool`` and finished by ``session``, as the
    scheduler's process path does: the result with the routing metadata, the
    worker's task time and what the hop cost."""
    record, pid, task_ms, dispatch_ms = pool.query_reply(
        text, epoch, len(session._dataset.dictionary)
    )
    return {
        "result": session._finish(record, None, dispatch_ms),
        "template": record.template,
        "fingerprint": record.fingerprint,
        "epoch": record.epoch,
        "pid": pid,
        "task_ms": task_ms,
        "dispatch_ms": dispatch_ms,
    }


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    graph = Graph(
        [Triple.of(f"u{i}", "follows", f"u{(i * 3 + 1) % 20}") for i in range(20)]
        + [Triple.of(f"u{i}", "likes", f"i{i % 4}") for i in range(20)]
    )
    saver = S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False)
    path = str(tmp_path_factory.mktemp("workers") / "dataset")
    saver.save_dataset(path)
    saver.close()
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    yield path, session
    session.close()


def test_scan_and_query_tasks_require_dataset():
    """Both task kinds open the dataset, so the pool cannot be built without one."""
    with pytest.raises(TypeError, match="dataset_path"):
        PartitionWorkerPool(num_workers=1)


def test_query_task_matches_parent_session(stored):
    path, session = stored
    query = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"
    expected = session.query(query)
    with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
        outcome = run_query(pool, session, query, epoch=session._journal_epoch)
        assert bag(outcome["result"].relation) == bag(expected.relation)
        assert outcome["epoch"] == session._journal_epoch
        assert outcome["fingerprint"]
        # The reply is the result plus routing metadata and the task time; the
        # pool adds what the hop cost on top of that.
        assert sorted(outcome) == sorted(
            ["result", "template", "fingerprint", "epoch", "pid", "task_ms", "dispatch_ms"]
        )
        assert outcome["pid"] != os.getpid()
        assert outcome["task_ms"] > 0.0 and outcome["dispatch_ms"] > 0.0


def test_a_served_task_is_the_query_text_an_epoch_and_a_dictionary_length(stored, monkeypatch):
    """What goes out is what the worker cannot know: the text, the epoch to
    run at, and how many terms the caller's dictionary holds (a pool without
    a dictionary names 0, and gets every result id's line back)."""
    path, session = stored
    sent = []
    real_dumps = pickle.dumps

    def recording_dumps(obj, *args, **kwargs):
        sent.append(obj)
        return real_dumps(obj, *args, **kwargs)

    with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
        pool.start()
        monkeypatch.setattr(workers.pickle, "dumps", recording_dumps)
        pool.query_reply(QUERY, session._journal_epoch, 0)
        monkeypatch.undo()
    assert sent == [("query", {"query": QUERY, "epoch": session._journal_epoch, "terms": 0})]
    assert len(real_dumps(sent[0], -1)) < len(QUERY) + 64


def test_workers_plan_joins_as_the_parent_does_at_every_epoch(stored, tmp_path):
    """Row estimates read only the manifest's row counts, which every
    process reads for itself: nothing about cardinalities has to cross the
    pipe for a worker to estimate a query's plan as the parent does."""
    path, _ = stored
    queries = [
        QUERY,
        "SELECT ?a ?c WHERE { ?a <follows> ?b . ?b <follows> ?c }",
        "SELECT ?w WHERE { <u5> <follows> ?b . ?b <likes> ?w }",
    ]
    copy = shutil.copytree(path, str(tmp_path / "copy"))  # this test appends
    with S2RDFSession.open_dataset(copy, journal_enabled=False) as session:
        catalog = session.layout.catalog

        def check(stage, pool):
            manifest_rows = {
                name: entry.row_count for name, entry in session._dataset.manifest.tables.items()
            }
            for name, rows in manifest_rows.items():
                assert estimate_rows(TableScanNode(name, ("s", "o")), catalog) == rows, (stage, name)
            for text in queries:
                direct = session.query(text)
                estimated = session.executor.last_estimates.root_rows
                record, *_ = pool.query_reply(
                    text, session._journal_epoch, len(session._dataset.dictionary)
                )
                assert record.estimated_rows == estimated, (stage, text)
                assert bag(session._finish(record).relation) == bag(direct.relation), (stage, text)
            return manifest_rows

        with PartitionWorkerPool(dataset_path=copy, num_workers=1) as pool:
            saved = check("as saved", pool)
            session.append_triples(
                [Triple.of("u3", "follows", "u99"), Triple.of("u99", "likes", "i1")]
            )
            appended = check("after an append", pool)
            assert appended["vp_follows"] == saved["vp_follows"] + 1
            assert check("after compact()", pool) == appended


def test_direct_query_on_a_process_session_submits_nothing(stored, monkeypatch):
    """Process mode is where ``serve()`` runs queries: a direct ``query()``
    runs in the calling thread."""
    path, thread_session = stored
    query = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"
    with S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=1, journal_enabled=False
    ) as session:
        assert session._worker_pool.started

        def must_not_send(self, *args, **kwargs):
            raise AssertionError("a direct query() sent a task to the worker pool")

        # Every task (query or scan) leaves the parent through _run.
        monkeypatch.setattr(PartitionWorkerPool, "_run", must_not_send)
        with pytest.raises(AssertionError):  # the patch does sit on the send path
            session._worker_pool.query_reply(query, None, 0)
        result = session.query(query)
    assert bag(result.relation) == bag(thread_session.query(query).relation)


def test_query_task_parses_the_text_once(stored, monkeypatch):
    """The worker entry point, run in this process: one trip through the
    session's front end feeds both the execution and the template/fingerprint,
    and its time stays in the result the parent finishes its record to."""
    import repro.core.template_cache as template_cache
    from repro.obs.journal import fingerprint_text, template_text
    from repro.sparql import parse_query

    path, session = stored
    query = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"
    parses = []
    real_tokenize = template_cache.tokenize_query

    def counting_tokenize(text):
        parses.append(text)
        return real_tokenize(text)

    monkeypatch.setattr(template_cache, "tokenize_query", counting_tokenize)
    workers._worker_init(path, {})
    try:
        dictionary = session._dataset.dictionary
        record, _, _ = workers._run_query_task(
            {"query": query, "epoch": session._journal_epoch, "terms": len(dictionary)}
        )
    finally:
        if workers._WORKER_SESSION is not None:
            workers._WORKER_SESSION.close()
        workers._worker_init(None, {})
    assert parses == [query]
    assert record.template == template_text(parse_query(query))
    assert record.fingerprint == fingerprint_text(record.template)
    _, _, lines = record.root
    assert lines == {}  # ids only: the parent holds every term
    result = session._finish(record)
    assert bag(result.relation) == bag(session.query(query).relation)
    assert result.phase_ms["parse"] > 0.0
    assert result.wall_clock_ms >= sum(result.phase_ms.values())


def test_worker_refreshes_on_epoch_advance(tmp_path):
    graph = Graph([Triple.of(f"u{i}", "p", f"v{i}") for i in range(10)])
    saver = S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False)
    path = str(tmp_path / "dataset")
    saver.save_dataset(path)
    saver.close()
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    query = "SELECT * WHERE { ?x <p> ?y }"
    with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
        before = run_query(pool, session, query, epoch=session._journal_epoch)
        assert len(before["result"].relation.rows) == 10
        # Append in the parent: the manifest epoch advances on disk; a task
        # carrying the new epoch makes the worker re-read the manifest.
        session.append_triples([Triple.of("extra", "p", "row")])
        after = run_query(pool, session, query, epoch=session._journal_epoch)
        assert len(after["result"].relation.rows) == 11
        assert after["epoch"] == session._journal_epoch
    session.close()


def test_start_brings_up_all_workers(stored):
    path, _ = stored
    pool = PartitionWorkerPool(dataset_path=path, num_workers=2)
    assert not pool.started
    pool.start()
    assert pool.started
    pool.close()
    assert not pool.started


def test_prewarm_reads_id_columns_and_decodes_no_term(stored, monkeypatch):
    """What the scheduler and the workers' scan tasks warm is what queries
    read: decoded id columns.  No term is decoded, each segment is decoded
    once, and a query after the warm-up reads and decodes no segment."""
    import repro.store.reader as reader_module
    from repro.store.format import StoredTermDictionary

    path, _ = stored
    decoded = []
    real_decode = StoredTermDictionary.decode

    def counting_decode(self, term_id):
        decoded.append(term_id)
        return real_decode(self, term_id)

    monkeypatch.setattr(StoredTermDictionary, "decode", counting_decode)
    segments = []
    real_decode_segment = reader_module.decode_segment

    def counting_decode_segment(*args):
        segments.append(args)
        return real_decode_segment(*args)

    monkeypatch.setattr(reader_module, "decode_segment", counting_decode_segment)
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    try:
        catalog = session.layout.catalog
        assert segments == []
        with session.serve() as scheduler:
            assert scheduler.prewarm() == len(catalog.table_names())
            warmed = len(segments)
            assert warmed > 0
            scheduler.prewarm()
            assert len(segments) == warmed
        assert decoded == []

        reads = []
        real_read = reader_module.DatasetFiles.read

        def counting_read(*args, **kwargs):
            reads.append(args)
            return real_read(*args, **kwargs)

        monkeypatch.setattr(reader_module.DatasetFiles, "read", counting_read)
        result = session.query("SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }")
        assert len(result.relation) == 20 and reads == [] and len(segments) == warmed
    finally:
        session.close()

    # The worker entry point, run in this process.
    del decoded[:]
    workers._worker_init(path, {})
    try:
        warmed = workers._run_scan_task({"tables": ["triples"]})
        assert warmed["tables"] == 1 and warmed["rows_scanned"] == 40 and decoded == []
    finally:
        if workers._WORKER_SESSION is not None:
            workers._WORKER_SESSION.close()
        workers._worker_init(None, {})


def test_warm_tables_runs_one_rowless_scan_per_worker_and_table(stored):
    path, session = stored
    with PartitionWorkerPool(dataset_path=path, num_workers=2) as pool:
        assert pool.warm_tables(["triples", "vp_likes"], epoch=session._journal_epoch) == 4


# --------------------------------------------------------------------- #
# What the pool owns now that no executor hides it
# --------------------------------------------------------------------- #
def _wait_until(condition, what):
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting until {what}"
        time.sleep(0.001)


def test_worker_exception_arrives_as_itself(stored):
    path, _ = stored
    with S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=1, journal_enabled=False
    ) as session:
        with session.serve() as scheduler:
            handle = scheduler.submit("SELECT * WHERE { broken syntax")
            with pytest.raises(SparqlParseError, match="line 1"):
                handle.result(timeout=30)
            assert len(scheduler.submit(QUERY).result(timeout=30)) == 20  # same worker, still up


def test_dead_worker_fails_its_request_and_is_respawned(stored):
    path, _ = stored
    session = S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=1, journal_enabled=False
    )
    pool = session._worker_pool
    scheduler = session.serve()
    try:
        scheduler.submit(QUERY).result(timeout=30)  # the epoch's prewarm is behind us
        victim = pool._workers[0].process.pid
        os.kill(victim, signal.SIGSTOP)  # it will take the query and never answer
        handle = scheduler.submit(QUERY)
        _wait_until(pool._idle.empty, "the worker is checked out")
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(WorkerDiedError, match=f"worker process {victim} died"):
            handle.result(timeout=30)
        # One request lost, not the pool: the slot holds a fresh worker.
        assert len(scheduler.submit(QUERY).result(timeout=30)) == 20
        assert pool._workers[0].process.pid != victim
    finally:
        scheduler.close()
        session.close()  # returns: nothing left to hang on


def test_close_with_a_request_in_flight_fails_it_and_leaves_no_process(stored, monkeypatch):
    path, _ = stored
    # Workers are forked from this process, so they inherit the patched table.
    monkeypatch.setitem(workers._TASKS, "query", lambda task: time.sleep(600))
    session = S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=2, journal_enabled=False
    )
    pool = session._worker_pool
    scheduler = session.serve()
    handle = scheduler.submit(QUERY)
    _wait_until(lambda: pool._idle.qsize() == 1, "one worker is checked out")
    session.close()  # must neither wait out the sleeping task nor hang
    with pytest.raises(WorkerDiedError):
        handle.result(timeout=30)
    assert not pool.started
    scheduler.close()
    # The autouse fixture asserts no child process is left.


def test_queries_and_warmups_from_many_threads_share_the_slots(stored):
    """More callers than slots, warm-ups (which take every slot) in between:
    every call completes, with its own answer, and no slot is lost."""
    path, session = stored
    epoch = session._journal_epoch
    texts = {QUERY: 20, "SELECT * WHERE { ?a <likes> ?w }": 20, "SELECT * WHERE { <u1> ?p ?o }": 2}
    wrong = []

    def querier(offset):
        for step in range(40):
            text = list(texts)[(offset + step) % len(texts)]
            rows = len(run_query(pool, session, text, epoch=epoch)["result"].relation)
            if rows != texts[text]:
                wrong.append((text, rows))

    def warmer():
        for _ in range(10):
            if pool.warm_tables(["triples", "vp_likes"], epoch=epoch) != 4:
                wrong.append("warm")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PartitionWorkerPool(dataset_path=path, num_workers=2) as pool:
            threads = [threading.Thread(target=querier, args=(i,)) for i in range(6)]
            threads += [threading.Thread(target=warmer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not wrong, wrong[:5]
            assert pool._idle.qsize() == 2
    finally:
        sys.setswitchinterval(interval)


class _LosesAnArgument(Exception):
    """Pickles (by class and ``args``) but cannot be rebuilt: ``args`` lacks ``detail``."""

    def __init__(self, message, detail):
        super().__init__(message)


def _raise_what_cannot_be_unpickled(task):
    raise _LosesAnArgument("scan failed", "and why")


def test_an_exchange_left_half_way_never_hands_a_stale_reply_to_the_next_task(
    stored, monkeypatch
):
    """warm_tables talks to both workers at once.  If the caller leaves the
    exchange early (here: the first reply does not unpickle), the other
    worker's reply is still in its pipe — that pipe must not be reused."""
    path, session = stored
    monkeypatch.setitem(workers._TASKS, "scan", _raise_what_cannot_be_unpickled)
    with PartitionWorkerPool(dataset_path=path, num_workers=2) as pool:
        pool.start()
        before = {worker.process.pid for worker in pool._workers}
        with pytest.raises(TypeError, match="detail"):
            pool.warm_tables(["triples"], epoch=session._journal_epoch)
        assert before.isdisjoint(worker.process.pid for worker in pool._workers)
        for _ in range(4):  # whichever slot comes up: a query gets a query's reply
            outcome = run_query(pool, session, QUERY, epoch=session._journal_epoch)
            assert len(outcome["result"].relation) == 20


def test_terms_another_session_appends_reach_a_served_answer(tmp_path):
    """A second session appends after the serving one opened.  A freshly
    spawned worker opens the store at the newer epoch (and one that meets an
    epoch it did not run at refreshes to the newest): the ids of terms the
    serving session's dictionary does not hold come with their lines, so the
    answer shows the new term — never a ``KeyError`` or another term."""
    path = str(tmp_path / "dataset")
    graph = Graph([Triple.of(f"u{i}", "likes", f"i{i}") for i in range(5)])
    with S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False) as saver:
        saver.save_dataset(path)
    query = "SELECT ?w WHERE {{ <{}> <likes> ?w }}"

    def append(*triples):
        with S2RDFSession.open_dataset(path, journal_enabled=False) as writer:
            writer.append_triples(list(triples))

    def answer(scheduler, user):
        result = scheduler.submit(query.format(user)).result(timeout=30)
        return result.epoch, sorted(term.value for term in result.values("w"))

    session = S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=1, journal_enabled=False
    )
    pool = session._worker_pool
    scheduler = session.serve()
    try:
        known = len(session._dataset.dictionary)
        assert answer(scheduler, "u1") == (0, ["i1"])
        append(Triple.of("u1", "likes", "brand-new"))
        # The worker ran at epoch 0, the task still names it: the same snapshot.
        assert answer(scheduler, "u1") == (0, ["i1"])
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        with pytest.raises(WorkerDiedError):
            scheduler.submit(query.format("u1")).result(timeout=30)
        assert answer(scheduler, "u1") == (1, ["brand-new", "i1"])
        append(Triple.of("u2", "likes", "newer"), Triple.of("u2", "likes", "i0"))
        # Another process appended again; the task names epoch 0, the worker
        # ran at 1: it re-reads the store, at 2.
        assert answer(scheduler, "u2") == (2, ["i0", "i2", "newer"])
        assert answer(scheduler, "u1") == (2, ["brand-new", "i1"])
        assert session._journal_epoch == 0 and len(session._dataset.dictionary) == known
    finally:
        scheduler.close()
        session.close()


def test_a_session_saved_anew_serves_the_store_it_wrote(tmp_path):
    """``save_dataset`` lays a connected session's store out anew, and term
    ids follow the sorted triples: the workers of the store served before
    are stopped, and the next served query runs on the store just written —
    not on the old one, whose ids would lower to other terms."""
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    graph = Graph([Triple.of(f"u{i}", "likes", f"i{i}") for i in range(6)])
    with S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False) as saver:
        saver.save_dataset(old)
    query = "SELECT * WHERE { ?u <likes> ?w }"
    with S2RDFSession.open_dataset(
        old, execution_mode="process", worker_processes=1, journal_enabled=False
    ) as session:
        with session.serve() as scheduler:
            assert len(scheduler.submit(query).result(timeout=30)) == 6
        session.append_triples([Triple.of("aaa", "likes", "zzz"), Triple.of("u3", "likes", "b")])
        session.save_dataset(new)
        with session.serve() as scheduler:
            served = scheduler.submit(query).result(timeout=30)
        assert bag(served.relation) == bag(session.query(query).relation)
        assert len(served) == 8 and session._worker_pool.dataset_path == new


def test_a_reply_from_a_pool_a_save_closed_is_not_lowered_through_the_new_store(
    tmp_path, monkeypatch
):
    """A save lays the store out anew, under other ids, and closes the pool
    serving the store before.  A reply that pool sent just before the save
    fails its request: its ids are not lowered through the new dictionary."""
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    graph = Graph([Triple.of(f"u{i}", "likes", f"i{i}") for i in range(6)])
    with S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False) as saver:
        saver.save_dataset(old)
    real_query_reply = PartitionWorkerPool.query_reply
    with S2RDFSession.open_dataset(
        old, execution_mode="process", worker_processes=1, journal_enabled=False
    ) as session:
        session.append_triples([Triple.of("aaa", "likes", "zzz")])  # the new layout moves ids

        def reply_then_save(pool, *args):
            answer = real_query_reply(pool, *args)
            session.save_dataset(new)
            return answer

        monkeypatch.setattr(PartitionWorkerPool, "query_reply", reply_then_save)
        with session.serve() as scheduler:
            with pytest.raises(WorkerDiedError, match="closed"):
                scheduler.submit("SELECT * WHERE { ?u <likes> ?w }").result(timeout=30)
