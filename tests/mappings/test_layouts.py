"""Unit tests for table naming and the VP tables a built session serves."""

import pytest

from repro.core.session import S2RDFSession
from repro.mappings.naming import predicate_key, triples_table_name, vp_table_name
from repro.rdf.namespaces import WATDIV_NAMESPACES
from repro.rdf.terms import IRI


class TestNaming:
    def test_predicate_key_compacts_namespace(self):
        key = predicate_key(IRI(WATDIV_NAMESPACES["wsdbm"] + "follows"))
        assert key == "wsdbm_follows"

    def test_predicate_key_unknown_namespace(self):
        assert predicate_key(IRI("urn:my-predicate")) == "my_predicate"

    def test_vp_table_name(self):
        name = vp_table_name(IRI(WATDIV_NAMESPACES["sorg"] + "email"))
        assert name == "vp_sorg_email"

    def test_triples_table_name(self):
        assert triples_table_name() == "triples"


class TestTriplesTableLayout:
    def test_build(self, example_graph):
        session = S2RDFSession.from_graph(example_graph)
        table = session.layout.catalog.table(triples_table_name())
        assert table.columns == ("s", "p", "o")
        assert len(table) == len(example_graph) == 7
        assert set(map(tuple, table.rows)) == {tuple(triple) for triple in example_graph}
        assert session.storage_summary()["hdfs_bytes"] > 0


class TestVerticalPartitioning:
    """One two-column table per predicate (Sec. 4.2), as the store view serves it."""

    @pytest.fixture(scope="class")
    def view(self, example_graph):
        return S2RDFSession.from_graph(example_graph).layout

    def test_one_table_per_predicate(self, view):
        assert view.table_counts()["vp"] == 2
        assert view.vp_size(IRI("follows")) == 4
        assert view.vp_size(IRI("likes")) == 3
        assert view.size_summary()["vp_tuples"] == 7

    def test_vp_tables_have_subject_object_schema(self, view):
        assert view.catalog.table(view.vp_table_name(IRI("follows"))).columns == ("s", "o")

    def test_missing_predicate_has_no_table(self, view):
        assert view.vp_table_name(IRI("missing")) is None
        assert view.vp_size(IRI("missing")) == 0

    def test_triples_table_kept_for_unbound_predicates(self, view):
        assert triples_table_name() in view.catalog

    def test_total_tuples_matches_graph(self, small_graph):
        view = S2RDFSession.from_graph(small_graph).layout
        assert view.size_summary()["vp_tuples"] == len(small_graph)

    def test_vp_content_matches_graph(self, example_graph, view):
        pairs = set(map(tuple, view.catalog.table(view.vp_table_name(IRI("likes"))).rows))
        assert pairs == set(example_graph.subject_object_pairs(IRI("likes")))
