"""Unit tests for Sempala's unified property table (Sec. 4.3)."""

import pytest

from repro.baselines.sempala import SempalaEngine
from repro.rdf.terms import IRI


@pytest.fixture
def engine(example_graph):
    engine = SempalaEngine()
    engine.load(example_graph)
    return engine


class TestPropertyTable:
    def test_columns_cover_all_predicates(self, engine):
        assert set(engine.layout.relation.columns) == {"s", "follows", "likes"}

    def test_row_duplication_for_multi_valued(self, engine):
        a_rows = [row for row in engine.layout.relation.to_dicts() if row["s"] == IRI("A")]
        # A has 1 follows value and 2 likes values -> 2 rows (Table 1 of the paper).
        assert len(a_rows) == 2
        assert {row["likes"] for row in a_rows} == {IRI("I1"), IRI("I2")}
        assert all(row["follows"] == IRI("B") for row in a_rows)

    def test_multi_valued_detection(self, engine):
        assert engine.layout.is_multi_valued(IRI("follows"))  # B follows C and D
        assert engine.layout.is_multi_valued(IRI("likes"))  # A likes I1 and I2

    def test_every_triple_represented(self, engine, example_graph):
        table = engine.layout.relation
        for triple in example_graph:
            column = engine.layout.column_for(triple.predicate)
            values = {
                row[column]
                for row in table.to_dicts()
                if row["s"] == triple.subject and row[column] is not None
            }
            assert triple.object in values

    def test_column_for_unknown_predicate(self, engine):
        assert engine.layout.column_for(IRI("nope")) is None

    def test_load_reports_one_table_and_its_bytes(self, example_graph):
        engine = SempalaEngine()
        report = engine.load(example_graph)
        assert (report.table_count, report.tuples_stored) == (1, len(engine.layout.relation))
        assert report.hdfs_bytes > 0
