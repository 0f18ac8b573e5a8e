"""Worker pool: scan/query tasks and epoch refresh inside the workers."""

import pytest

from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.serve.workers import PartitionWorkerPool


def bag(relation):
    return sorted(map(repr, relation.rows))


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
        outcome = pool.run_query(query, epoch=session._journal_epoch)
        assert bag(outcome["result"].relation) == bag(expected.relation)
        assert outcome["epoch"] == session._journal_epoch
        assert outcome["fingerprint"]
        assert outcome["observed"]  # the worker observed real cardinalities


def test_direct_query_on_a_process_session_submits_nothing(
    stored, force_partitioned_joins, monkeypatch
):
    """Process mode is where ``serve()`` runs queries: a direct ``query()``
    runs its partitioned joins on the session's own threads."""
    from concurrent.futures import ProcessPoolExecutor

    path, thread_session = stored
    query = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"
    with S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=1, journal_enabled=False
    ) as session:
        assert session._worker_pool.started

        def must_not_submit(self, *args, **kwargs):
            raise AssertionError("a direct query() submitted a task to the worker pool")

        monkeypatch.setattr(ProcessPoolExecutor, "submit", must_not_submit)
        result = session.query(query)
        assert result.metrics.parallel_tasks > 0  # the joins did take the exchange
    assert bag(result.relation) == bag(thread_session.query(query).relation)


def test_query_task_parses_the_text_once(stored, monkeypatch):
    """The worker entry point, run in this process: one parse feeds both the
    execution and the template/fingerprint, and its time stays in the result."""
    import repro.core.session as session_module
    from repro.obs.journal import fingerprint_text, template_text
    from repro.serve import workers

    path, session = stored
    query = "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }"
    parses = []
    real_parse = session_module.parse_query

    def counting_parse(text):
        parses.append(text)
        return real_parse(text)

    monkeypatch.setattr(session_module, "parse_query", counting_parse)
    workers._worker_init(path, {})
    try:
        outcome = workers._run_query_task({"query": query, "epoch": session._journal_epoch})
    finally:
        if workers._WORKER_SESSION is not None:
            workers._WORKER_SESSION.close()
        workers._worker_init(None, {})
    assert parses == [query]
    assert outcome["template"] == template_text(real_parse(query))
    assert outcome["fingerprint"] == fingerprint_text(outcome["template"])
    result = outcome["result"]
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
        before = pool.run_query(query, epoch=session._journal_epoch)
        assert len(before["result"].relation.rows) == 10
        # Append in the parent: the manifest epoch advances on disk; a task
        # carrying the new epoch makes the worker re-read the manifest.
        session.append_triples([Triple.of("extra", "p", "row")])
        after = pool.run_query(query, epoch=session._journal_epoch)
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
    read: decoded id columns.  No term is decoded, no row relation is built,
    and a query after the warm-up reads no segment."""
    import repro.store.reader as reader_module
    from repro.serve import workers
    from repro.store.format import StoredTermDictionary

    path, _ = stored
    decoded = []
    real_decode = StoredTermDictionary.decode

    def counting_decode(self, term_id):
        decoded.append(term_id)
        return real_decode(self, term_id)

    monkeypatch.setattr(StoredTermDictionary, "decode", counting_decode)
    session = S2RDFSession.open_dataset(path, journal_enabled=False)
    try:
        catalog = session.layout.catalog
        with session.serve() as scheduler:
            assert scheduler.prewarm() == len(catalog.table_names())
        assert decoded == []
        assert not any(catalog.is_loaded(name) for name in catalog.table_names())

        reads = []
        real_read = reader_module.read_segment_arrays

        def counting_read(*args, **kwargs):
            reads.append(args)
            return real_read(*args, **kwargs)

        monkeypatch.setattr(reader_module, "read_segment_arrays", counting_read)
        result = session.query("SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }")
        assert len(result.relation) == 20 and reads == []
    finally:
        session.close()

    # The worker entry point, run in this process.
    del decoded[:]
    workers._worker_init(path, {})
    try:
        warmed = workers._run_scan_task({"table": "triples"})
        assert warmed["rows_scanned"] == 40 and decoded == []
    finally:
        if workers._WORKER_SESSION is not None:
            workers._WORKER_SESSION.close()
        workers._worker_init(None, {})


def test_warm_tables_runs_one_rowless_scan_per_worker_and_table(stored):
    path, session = stored
    with PartitionWorkerPool(dataset_path=path, num_workers=2) as pool:
        assert pool.warm_tables(["triples", "vp_likes"], epoch=session._journal_epoch) == 4
