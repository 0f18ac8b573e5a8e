"""Unit tests for the Parquet-like size model and the simulated HDFS."""

import pytest

from repro.baselines.hdfs import HdfsSimulator, ParquetSizeModel, format_bytes
from repro.engine.relation import Relation
from repro.rdf.terms import IRI


def make_relation(rows):
    return Relation(("s", "o"), rows)


class TestParquetSizeModel:
    def test_empty_relation_has_metadata_only(self):
        model = ParquetSizeModel()
        assert model.estimate_bytes(Relation((), [])) == model.metadata_bytes

    def test_size_grows_with_rows(self):
        model = ParquetSizeModel()
        small = make_relation([(IRI(f"s{i}"), IRI(f"o{i}")) for i in range(10)])
        large = make_relation([(IRI(f"s{i}"), IRI(f"o{i}")) for i in range(1000)])
        assert model.estimate_bytes(large) > model.estimate_bytes(small)

    def test_dictionary_encoding_rewards_repetition(self):
        model = ParquetSizeModel()
        repeated = make_relation([(IRI("s"), IRI("o"))] * 500)
        distinct = make_relation([(IRI(f"s{i}"), IRI(f"o{i}")) for i in range(500)])
        assert model.estimate_bytes(repeated) < model.estimate_bytes(distinct)

    def test_column_stats(self):
        model = ParquetSizeModel()
        relation = make_relation([(IRI("a"), IRI("x")), (IRI("a"), IRI("y"))])
        stats = model.column_stats(relation, "s")
        assert stats.distinct_count == 1
        assert stats.row_count == 2
        assert stats.run_length_runs == 1

    def test_ntriples_estimate_larger_than_parquet(self):
        model = ParquetSizeModel()
        relation = make_relation([(IRI("http://example.org/s"), IRI("http://example.org/o"))] * 200)
        assert model.estimate_ntriples_bytes(relation) > model.estimate_bytes(relation)


class TestParquetSizeModelEdgeCases:
    """Boundary accounting: empty relations, all-None columns, single rows."""

    def test_empty_relation_with_columns(self):
        model = ParquetSizeModel()
        empty = Relation(("s", "o"), [])
        stats = model.column_stats(empty, "s")
        assert stats.row_count == 0
        assert stats.distinct_count == 0
        assert stats.run_length_runs == 0
        assert stats.data_bytes == 0
        assert stats.dictionary_bytes == 0
        # Only metadata plus the per-column page overhead remains.
        assert model.estimate_bytes(empty) == model.metadata_bytes + 2 * model.page_overhead_bytes

    def test_empty_relation_ntriples_estimate_is_zero(self):
        model = ParquetSizeModel()
        assert model.estimate_ntriples_bytes(Relation(("s", "o"), [])) == 0

    def test_all_none_column(self):
        model = ParquetSizeModel()
        relation = Relation(("s", "o"), [(IRI("a"), None)] * 10)
        stats = model.column_stats(relation, "o")
        assert stats.row_count == 10
        assert stats.distinct_count == 1
        # One run of ten equal (None) values, one 1-byte dictionary entry.
        assert stats.run_length_runs == 1
        assert stats.dictionary_bytes == 1
        assert stats.total_bytes >= 1

    def test_single_row_table(self):
        model = ParquetSizeModel()
        relation = make_relation([(IRI("only-subject"), IRI("only-object"))])
        for column in relation.columns:
            stats = model.column_stats(relation, column)
            assert stats.row_count == 1
            assert stats.distinct_count == 1
            assert stats.run_length_runs == 1
            assert stats.data_bytes >= 1
        assert model.estimate_bytes(relation) > model.metadata_bytes

    def test_single_row_smaller_than_many_rows(self):
        model = ParquetSizeModel()
        single = make_relation([(IRI("s"), IRI("o"))])
        many = make_relation([(IRI(f"s{i}"), IRI(f"o{i}")) for i in range(100)])
        assert model.estimate_bytes(single) < model.estimate_bytes(many)


class TestHdfsSimulator:
    def test_write_and_read_metadata(self):
        hdfs = HdfsSimulator()
        stored = hdfs.write("layout/table.parquet", make_relation([(IRI("a"), IRI("b"))]))
        assert hdfs.exists("layout/table.parquet")
        assert hdfs.file("layout/table.parquet") == stored
        assert stored.row_count == 1

    def test_total_bytes_by_prefix(self):
        hdfs = HdfsSimulator()
        hdfs.write("vp/a.parquet", make_relation([(IRI("a"), IRI("b"))] * 10))
        hdfs.write("extvp/b.parquet", make_relation([(IRI("a"), IRI("b"))] * 10))
        assert hdfs.total_bytes("vp/") < hdfs.total_bytes()
        assert hdfs.file_count() == 2
        assert hdfs.total_rows() == 20

    def test_overwrite_replaces(self):
        hdfs = HdfsSimulator()
        hdfs.write("x", make_relation([(IRI("a"), IRI("b"))]))
        hdfs.write("x", make_relation([(IRI("a"), IRI("b"))] * 5))
        assert hdfs.file("x").row_count == 5
        assert hdfs.file_count() == 1

    def test_delete(self):
        hdfs = HdfsSimulator()
        hdfs.write("x", make_relation([]))
        hdfs.delete("x")
        assert not hdfs.exists("x")

    def test_write_text_uses_row_format(self):
        hdfs = HdfsSimulator()
        relation = make_relation([(IRI("http://e/s"), IRI("http://e/o"))] * 100)
        parquet = hdfs.write("a.parquet", relation)
        text = hdfs.write_text("a.nt", relation)
        assert text.size_bytes > parquet.size_bytes


class TestFormatBytes:
    @pytest.mark.parametrize(
        "size, expected",
        [(10, "10 B"), (2048, "2.0 KB"), (5 * 1024 * 1024, "5.0 MB")],
    )
    def test_formatting(self, size, expected):
        assert format_bytes(size) == expected
