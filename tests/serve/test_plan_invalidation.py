"""A store change drops the compiled plans of the template cache, and only them.

Three changes, each on one long-lived session queried directly and again
through ``serve()`` on process workers (whose own sessions refresh by epoch
and run the same invalidation): an append that makes a statically empty
template non-empty, an append that moves a template to another table, and a
compaction.  Every answer after a change must come from a fresh compile and be
bag-equal to a store rebuilt from the same triples; the parsed template
survives the change, the compiled plan does not.
"""

import pytest

from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple

T = Triple.of

BASE = [
    T("a1", "p", "b1"),
    T("a2", "p", "b2"),
    T("b1", "q", "c1"),
    T("x", "r", "y"),
]

#: No ``p`` object is an ``r`` subject: ExtVP_OS(p|r) is empty, the BGP provably so.
EMPTY_THEN_NOT = "SELECT * WHERE { <%s> <p> ?b . ?b <r> ?c }"
#: Half of ``p`` survives the semi-join with ``q``: ExtVP_OS(p|q) is selected —
#: until every ``p`` object is a ``q`` subject and plain VP(p) is as good.
MOVES_TABLE = "SELECT * WHERE { ?a <p> ?b . ?b <q> <%s> }"

STEPS = (
    ("append", [T("b1", "r", "z")]),
    ("append", [T("b2", "q", "c2")]),
    ("compact", None),
)


def bag(result):
    return sorted(map(repr, result.relation.rows))


def rebuilt_answers(triples, texts):
    with S2RDFSession.from_graph(Graph(triples)) as rebuilt:
        return [bag(rebuilt.query(text)) for text in texts]


@pytest.fixture
def dataset_path(tmp_path):
    path = str(tmp_path / "dataset")
    with S2RDFSession.from_graph(Graph(BASE), num_partitions=2) as saver:
        saver.save_dataset(path)
    return path


def test_a_store_change_drops_the_plans_and_keeps_the_templates(dataset_path, cache_counters):
    texts = [EMPTY_THEN_NOT % "a1", MOVES_TABLE % "c1"]
    # The same templates with other constants: hits wherever a plan is cached.
    again = [EMPTY_THEN_NOT % "a2", MOVES_TABLE % "c2"]
    triples = list(BASE)
    with S2RDFSession.open_dataset(dataset_path) as session:
        invalidations = lambda: session.metrics.counter_value(
            "s2rdf_plan_cache_invalidations_total"
        )
        assert [bag(session.query(text)) for text in texts] == rebuilt_answers(triples, texts)
        assert session.compile(texts[0]).statically_empty
        assert session.compile(texts[1]).selected_tables == ["vp_q", "extvp_os_p__q"]
        assert session._templates.plan_count() == 2
        for step, (kind, batch) in enumerate(STEPS):
            dropped = invalidations()
            if kind == "append":
                session.append_triples(batch)
                triples += batch
            else:
                session.compact(compaction_threshold=1)
            assert invalidations() == dropped + 1
            assert len(session._templates) == 2 and session._templates.plan_count() == 0
            before = cache_counters(session)
            answers = [bag(session.query(text)) for text in texts]
            # Parsed from the surviving templates, compiled afresh.
            assert cache_counters(session, before) == (2, 0, 0, 2), (step, kind)
            assert answers == rebuilt_answers(triples, texts), (step, kind)
            # ... and the fresh plans serve the next instances.
            before = cache_counters(session)
            assert [bag(session.query(text)) for text in again] == rebuilt_answers(triples, again)
            assert cache_counters(session, before) == (2, 0, 2, 0), (step, kind)
        # What the first append and the second one changed, as compiled now.
        assert not session.compile(texts[0]).statically_empty
        assert session.compile(texts[1]).selected_tables == ["vp_q", "vp_p"]
        assert bag(session.query(texts[0])) == ["(IRI(value='b1'), IRI(value='z'))"]


def test_process_workers_drop_their_plans_with_the_epoch(dataset_path):
    texts = [EMPTY_THEN_NOT % "a1", MOVES_TABLE % "c1", EMPTY_THEN_NOT % "a2", MOVES_TABLE % "c2"]
    triples = list(BASE)
    session = S2RDFSession.open_dataset(
        dataset_path, execution_mode="process", worker_processes=2
    )
    try:
        with session.serve() as served:

            def answers():
                handles = [served.submit(text) for text in texts]
                return [bag(handle.result(timeout=60)) for handle in handles]

            assert answers() == rebuilt_answers(triples, texts)
            for kind, batch in STEPS:
                if kind == "append":
                    session.append_triples(batch)
                    triples += batch
                else:
                    session.compact(compaction_threshold=1)
                assert answers() == rebuilt_answers(triples, texts), kind
            records = session.journal.records()
    finally:
        session.close()
    # The workers' template entries fed the parent's journal: one fingerprint
    # per template, whatever the constants and the epoch.
    assert len(records) == (1 + len(STEPS)) * len(texts)
    assert len({record.fingerprint for record in records}) == 2
    assert {record.epoch for record in records} == {0, 1, 2, 3}
