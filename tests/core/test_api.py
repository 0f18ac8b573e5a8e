"""The public entry points: repro.connect / repro.create, session lifecycle
and the QueryResult iteration surface."""

import pytest

import repro
from repro.rdf.triple import Triple


NTRIPLES = """\
<http://ex/A> <http://ex/follows> <http://ex/B> .
<http://ex/B> <http://ex/follows> <http://ex/C> .
<http://ex/A> <http://ex/likes> <http://ex/I1> .
"""

QUERY = "SELECT * WHERE { ?x <http://ex/follows> ?y }"


def test_create_from_graph_object(example_graph):
    session = repro.create(example_graph, journal_enabled=False)
    try:
        assert len(session.query("SELECT * WHERE { ?x <follows> ?y }")) == 4
    finally:
        session.close()


def test_create_from_ntriples_string_and_triple_iterable():
    with repro.create(NTRIPLES, journal_enabled=False) as session:
        assert len(session.query(QUERY)) == 2
    triples = [Triple.of("A", "p", "B"), Triple.of("B", "p", "C")]
    with repro.create(triples, journal_enabled=False) as session:
        assert len(session.query("SELECT * WHERE { ?x <p> ?y }")) == 2


def test_create_persists_and_connect_reopens(tmp_path):
    path = str(tmp_path / "dataset")
    repro.create(NTRIPLES, path=path, num_partitions=2).close()
    with repro.connect(path, journal_enabled=False) as session:
        result = session.query(QUERY)
        assert len(result) == 2
        assert result.epoch == 0


def test_connect_accepts_config_object(tmp_path):
    path = str(tmp_path / "dataset")
    repro.create(NTRIPLES, path=path).close()
    config = repro.SessionConfig(
        execution=repro.ExecutionConfig(num_partitions=2),
        observability=repro.ObservabilityConfig(journal_enabled=False),
    )
    with repro.connect(path, config=config) as session:
        assert session.config.execution.num_partitions == 2
        assert len(session.query(QUERY)) == 2


def test_query_result_iteration_surface(example_graph):
    with repro.create(example_graph, journal_enabled=False) as session:
        result = session.query("SELECT * WHERE { ?x <likes> ?w }")
        assert len(result) == 3
        assert len(list(result)) == 3  # __iter__ yields bindings
        dicts = result.to_dicts()
        assert all(set(d) == {"x", "w"} for d in dicts)
        assert {"x": "A", "w": "I1"} in dicts  # plain strings, not Terms


def test_close_is_idempotent_and_context_manager_closes(example_graph):
    session = repro.create(example_graph, journal_enabled=False)
    session.close()
    session.close()  # second close is a no-op
    with repro.create(example_graph, journal_enabled=False) as inner:
        inner.query("SELECT * WHERE { ?x <likes> ?w }")


def test_factories_reject_unknown_knobs(example_graph):
    with pytest.raises(TypeError):
        repro.create(example_graph, not_a_knob=True)
    with pytest.raises(TypeError):
        repro.create(example_graph, config=repro.SessionConfig(), num_partitions=2)
