"""Concurrency stress: many client threads through one scheduler while the
dataset grows underneath them via append_triples.

Every query runs against *some* committed manifest snapshot; the epoch
stamped on its result tells us which one.  The test precomputes the expected
bag of answers for every (query, epoch) pair by replaying the appends
serially, then checks each concurrent result against the reference for its
own epoch — catching torn reads (a query seeing half an append) as well as
stale-cache bugs (a query reporting epoch N with epoch N-1's rows).  On
process workers, a worker may run at a newer epoch than the task names: the
ids of the terms that epoch added come back with their dictionary lines."""

import threading

import pytest

import repro
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple


QUERIES = {
    "join": "SELECT * WHERE { ?a <follows> ?b . ?b <likes> ?w }",
    "scan": "SELECT * WHERE { ?a <likes> ?w }",
    "pushdown": "SELECT ?a WHERE { ?a <likes> <item1> }",
    "count": "SELECT (COUNT(*) AS ?n) WHERE { ?a <follows> ?b }",
}

CLIENTS = 6
ROUNDS = 5


def base_graph() -> Graph:
    triples = []
    for i in range(30):
        triples.append(Triple.of(f"user{i}", "follows", f"user{(i * 7 + 1) % 30}"))
        triples.append(Triple.of(f"user{i}", "likes", f"item{i % 5}"))
    return Graph(triples)


def batch(round_index: int):
    """The triples append round ``round_index`` commits (deterministic).

    ``item<round>`` becomes a subject of <follows>: the six old <likes> rows
    with that object are revived into ExtVP_OS[likes|follows], so the
    appender reads <likes> through the table handle the readers scan.
    """
    base = 100 + round_index * 10
    return (
        [Triple.of(f"user{base + j}", "follows", f"user{j}") for j in range(3)]
        + [Triple.of(f"user{base + j}", "likes", f"item{j}") for j in range(3)]
        + [Triple.of(f"item{round_index}", "follows", f"user{base}")]
    )


def bag(relation):
    return sorted(map(repr, relation.rows))


@pytest.mark.parametrize("execution_mode", ["thread", "process"])
def test_concurrent_queries_see_consistent_epochs(tmp_path, execution_mode):
    path = str(tmp_path / "dataset")
    repro.create(base_graph(), path=path, num_partitions=2).close()

    # Serial replay: reference bags per (query, epoch).  Epoch e holds the
    # base dataset plus append batches 0..e-1.
    reference = {}
    with repro.connect(path, journal_enabled=False) as serial:
        for epoch in range(ROUNDS + 1):
            assert serial._journal_epoch == epoch
            for name, text in QUERIES.items():
                reference[(name, epoch)] = bag(serial.query(text).relation)
            if epoch < ROUNDS:
                serial.append_triples(batch(epoch))
    # The appends really changed the answers (the test would be vacuous).
    assert reference[("scan", 0)] != reference[("scan", ROUNDS)]
    assert reference[("join", 0)] != reference[("join", 1)]

    path2 = str(tmp_path / "dataset2")
    repro.create(base_graph(), path=path2, num_partitions=2).close()
    session = repro.connect(path2, execution_mode=execution_mode)
    failures = []
    stop = threading.Event()
    # Every client has an answer before the first append: the journal below
    # is never empty, however the threads are scheduled.
    answered = threading.Barrier(CLIENTS + 1, timeout=120)

    def client(index: int) -> None:
        names = sorted(QUERIES)
        step = 0
        while not stop.is_set():
            name = names[(index + step) % len(names)]
            step += 1
            handle = scheduler.submit(QUERIES[name])
            result = handle.result(timeout=120)
            expected = reference.get((name, result.epoch))
            if expected is None:
                failures.append((name, result.epoch, "unknown epoch"))
            elif bag(result.relation) != expected:
                failures.append((name, result.epoch, "bag mismatch"))
            if step == 1:
                answered.wait()

    with session:
        with session.serve() as scheduler:
            threads = [
                threading.Thread(target=client, args=(i,), name=f"stress-{i}")
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            answered.wait()
            # Interleave the appends with the query storm: each commit
            # atomically advances the manifest epoch.
            for round_index in range(ROUNDS):
                report = session.append_triples(batch(round_index))
                assert report.triples_appended == len(batch(round_index))
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            scheduler.drain(timeout=120)
        assert not failures, failures[:5]
        assert session._journal_epoch == ROUNDS

        # Every journaled record carries an epoch the manifest actually
        # committed, and the journal survives in the dataset directory.
        records = session.journal.records()
        assert records
        assert all(0 <= record.epoch <= ROUNDS for record in records)
        assert all(record.queue_ms is not None for record in records)
