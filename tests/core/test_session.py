"""Integration tests for the S2RDF session (the paper's running example plus
SPARQL operator coverage)."""

import threading

import pytest

from engine.sqlite_oracle import SqliteExecutor
from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple


@pytest.fixture(scope="module")
def session(example_graph):
    return S2RDFSession.from_graph(example_graph)


class TestRunningExample:
    def test_q1_single_solution(self, session, query_q1):
        result = session.query(query_q1)
        assert len(result) == 1
        binding = result.bindings[0]
        assert binding["x"] == IRI("A")
        assert binding["y"] == IRI("B")
        assert binding["z"] == IRI("C")
        assert binding["w"] == IRI("I2")

    def test_q1_uses_extvp_tables(self, session, query_q1):
        result = session.query(query_q1)
        assert any(name.startswith("extvp_") for name in result.selected_tables)

    def test_result_sql_is_rendered_on_first_read_and_survives_pickle(self, session, query_q1):
        import pickle

        result = session.query(query_q1)
        assert "sql" not in vars(result)  # nothing rendered per query
        shipped = pickle.loads(pickle.dumps(result))  # process workers return whole results
        assert shipped.sql_renderer is None
        assert shipped.sql == session.explain(query_q1)
        assert result.sql == session.explain(query_q1)
        assert result.sql is result.sql  # cached, not re-rendered
        assert shipped == result

    def test_q1_sql_is_generated(self, session, query_q1):
        sql = session.explain(query_q1)
        assert "SELECT" in sql and "JOIN" in sql

    def test_metrics_populated(self, session, query_q1):
        result = session.query(query_q1)
        assert result.metrics.joins == 3
        assert result.metrics.input_tuples > 0
        assert result.wall_clock_ms >= 0

    def test_statistics_short_circuit(self, session):
        result = session.query("SELECT * WHERE { ?a <likes> ?b . ?b <likes> ?c }")
        assert result.statically_empty
        assert len(result) == 0
        assert result.metrics.input_tuples == 0

    def test_vp_only_session_same_result(self, example_graph, query_q1):
        vp_session = S2RDFSession.from_graph(example_graph, use_extvp=False)
        result = vp_session.query(query_q1)
        assert len(result) == 1
        assert all(not name.startswith("extvp_") for name in result.selected_tables)


class TestSparqlOperators:
    @pytest.fixture(scope="class")
    def rich_session(self):
        graph = Graph(
            [
                Triple(IRI("A"), IRI("follows"), IRI("B")),
                Triple(IRI("B"), IRI("follows"), IRI("C")),
                Triple(IRI("A"), IRI("age"), Literal("30")),
                Triple(IRI("B"), IRI("age"), Literal("15")),
                Triple(IRI("A"), IRI("name"), Literal("ada")),
            ]
        )
        return S2RDFSession.from_graph(graph)

    def test_projection(self, rich_session):
        result = rich_session.query("SELECT ?x WHERE { ?x <follows> ?y }")
        assert result.variables == ("x",)
        assert len(result) == 2

    def test_distinct(self, rich_session):
        result = rich_session.query("SELECT DISTINCT ?p WHERE { ?s ?p ?o }")
        assert len(result) == 3

    def test_filter(self, rich_session):
        result = rich_session.query("SELECT ?x WHERE { ?x <age> ?a . FILTER(?a > 20) }")
        assert result.values("x") == [IRI("A")]

    def test_optional(self, rich_session):
        result = rich_session.query(
            "SELECT ?x ?n WHERE { ?x <follows> ?y . OPTIONAL { ?x <name> ?n } }"
        )
        by_subject = {b["x"]: b.get("n") for b in result.bindings}
        assert by_subject[IRI("A")] == Literal("ada")
        assert by_subject.get(IRI("B")) is None

    def test_union(self, rich_session):
        result = rich_session.query(
            "SELECT ?x WHERE { { ?x <age> ?a } UNION { ?x <name> ?n } }"
        )
        assert len(result) == 3

    def test_order_by_and_limit(self, rich_session):
        result = rich_session.query(
            "SELECT ?x ?a WHERE { ?x <age> ?a } ORDER BY ?a LIMIT 1"
        )
        assert len(result) == 1
        assert result.bindings[0]["x"] == IRI("B")

    def test_offset(self, rich_session):
        result = rich_session.query("SELECT ?x WHERE { ?x <age> ?a } ORDER BY ?x LIMIT 5 OFFSET 1")
        assert len(result) == 1

    def test_bound_object_pattern(self, rich_session):
        result = rich_session.query("SELECT ?x WHERE { ?x <follows> <C> }")
        assert result.values("x") == [IRI("B")]

    def test_unbound_predicate_query(self, rich_session):
        result = rich_session.query("SELECT ?p WHERE { <A> ?p ?o }")
        assert len(result) == 3

    def test_result_as_table_rendering(self, rich_session):
        result = rich_session.query("SELECT ?x ?a WHERE { ?x <age> ?a }")
        rendered = result.as_table()
        assert "x" in rendered and "|" in rendered


class TestAggregateQueries:
    """GROUP BY through parser -> algebra -> compiler -> the engine, and the
    same plans through the sqlite oracle."""

    GRAPH = Graph(
        [
            Triple(IRI("A"), IRI("follows"), IRI("B")),
            Triple(IRI("A"), IRI("follows"), IRI("C")),
            Triple(IRI("B"), IRI("follows"), IRI("C")),
            Triple(IRI("A"), IRI("age"), Literal("30", datatype="http://www.w3.org/2001/XMLSchema#integer")),
            Triple(IRI("B"), IRI("age"), Literal("15", datatype="http://www.w3.org/2001/XMLSchema#integer")),
        ]
    )

    @pytest.fixture(scope="class", params=["native", "sqlite"])
    def agg_query(self, request):
        """``text -> Relation``: the session's answer, or the sqlite oracle's
        over the session's catalog and compiled plan."""
        session = S2RDFSession.from_graph(self.GRAPH)
        if request.param == "native":
            yield lambda text: session.query(text).relation
        else:
            oracle = SqliteExecutor(session.layout.catalog)
            yield lambda text: oracle.execute(session.compile(text).plan)
            oracle.close()
        session.close()

    def test_grouped_count(self, agg_query):
        relation = agg_query("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <follows> ?y } GROUP BY ?x")
        assert relation.columns == ("x", "n")
        assert sorted(relation.rows, key=repr) == [(IRI("A"), 2), (IRI("B"), 1)]

    def test_implicit_group(self, agg_query):
        relation = agg_query("SELECT (SUM(?a) AS ?total) (AVG(?a) AS ?mean) WHERE { ?x <age> ?a }")
        assert relation.rows == [(45, 22.5)]

    def test_implicit_group_over_empty_input(self, agg_query):
        relation = agg_query(
            "SELECT (COUNT(?y) AS ?n) (SUM(?y) AS ?s) (MIN(?y) AS ?lo) "
            "WHERE { ?x <nothing> ?y }"
        )
        assert relation.rows == [(0, 0, None)]

    def test_count_distinct(self, agg_query):
        relation = agg_query("SELECT (COUNT(DISTINCT ?y) AS ?n) WHERE { ?x <follows> ?y }")
        assert relation.rows == [(2,)]

    def test_min_max(self, agg_query):
        relation = agg_query("SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?x <age> ?a }")
        # MIN/MAX select an *input value*, so the original terms come back.
        (lo, hi), = relation.rows
        assert (lo.to_python(), hi.to_python()) == (15, 30)


class TestSessionConstruction:
    def test_from_ntriples(self):
        document = "<A> <p> <B> .\n<B> <p> <C> ."
        session = S2RDFSession.from_ntriples(document)
        assert len(session.query("SELECT * WHERE { ?x <p> ?y }")) == 2

    def test_storage_summary_keys(self, session):
        summary = session.storage_summary()
        assert set(summary) == {
            "vp_tuples",
            "extvp_tuples",
            "total_tuples",
            "table_counts",
            "load_seconds",
        }

    def test_threshold_session_still_correct(self, example_graph, query_q1):
        session = S2RDFSession.from_graph(example_graph, selectivity_threshold=0.25)
        assert len(session.query(query_q1)) == 1


class TestInProcessExecution:
    def test_partitioned_session_matches_serial(self, example_graph, query_q1, tmp_path):
        """``num_partitions`` is the bucket count a save writes; a dataset
        bucketed four ways answers what the in-memory session does."""
        path = str(tmp_path / "dataset")
        with S2RDFSession.from_graph(example_graph) as serial:
            expected = sorted(map(repr, serial.query(query_q1).relation.rows))
        with S2RDFSession.from_graph(example_graph, num_partitions=4) as saver:
            saver.save_dataset(path)
        with S2RDFSession.open_dataset(path) as partitioned:
            assert partitioned.load_report.num_buckets == 4
            assert partitioned.config.execution.num_partitions == 4
            result = partitioned.query(query_q1)
        assert sorted(map(repr, result.relation.rows)) == expected

    def test_session_is_a_context_manager(self, example_graph, query_q1, tmp_path):
        path = str(tmp_path / "dataset")
        with S2RDFSession.from_graph(example_graph) as saver:
            saver.save_dataset(path)
        with S2RDFSession.open_dataset(path) as session:
            assert len(session.query(query_q1)) == 1
            journal = session.journal
            assert journal._handle is not None
        assert journal._handle is None  # the journal's file released

    def test_a_query_starts_no_thread(self, example_graph, query_q1):
        before = threading.active_count()
        with S2RDFSession.from_graph(example_graph, num_partitions=4) as session:
            assert len(session.query(query_q1)) == 1
            assert threading.active_count() == before


class TestStorageSummaryReport:
    def test_load_seconds_always_populated(self, session):
        summary = session.storage_summary()
        assert summary["load_seconds"] > 0.0

    def test_load_seconds_survive_appends_and_compactions(self, example_graph, tmp_path):
        """The load time is the build's or the cold open's, not the last
        re-registration's."""
        path = str(tmp_path / "dataset")
        with S2RDFSession.from_graph(example_graph) as built:
            load_seconds = built.storage_summary()["load_seconds"]
            built.save_dataset(path)
            built.append_triples([Triple(IRI("Z"), IRI("likes"), IRI("I9"))])
            built.compact(compaction_threshold=1)
            assert built.storage_summary()["load_seconds"] == load_seconds
        with S2RDFSession.open_dataset(path) as connected:
            load_seconds = connected.storage_summary()["load_seconds"]
            assert load_seconds == connected.load_report.load_seconds > 0.0
            connected.append_triples([Triple(IRI("Z"), IRI("follows"), IRI("A"))])
            connected.compact(compaction_threshold=1)
            assert connected.storage_summary()["load_seconds"] == load_seconds
