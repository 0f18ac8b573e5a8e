"""Unit tests for the vectorized id-column execution kernels.

The contract under test: every :class:`ColumnBatch` kernel must produce the
same bag of rows as the corresponding :class:`Relation` operator once the
batch is lowered through ``to_relation`` — including the edge shapes the
selection-vector representation makes easy to get wrong (empty batches,
all-selected batches, RLE run boundaries) — and ids outside the dictionary
must be rejected at the decode boundary, never silently mapped to a term.
A join probing a stored column's resident index must answer what the
throwaway-index join and the row join answer, build that index once per
stored generation, and never probe one that a store change made stale.
"""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.binding_iteration import index_nested_loop_execute
from repro.core.session import S2RDFSession
from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation, SchemaError
from repro.engine.storage import (
    NULL_ID,
    decode_id_column,
    encode_id_column,
)
from repro.engine import vectorized
from repro.engine.vectorized import ColumnBatch, PositionIndex, concat_batches, null_column
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Term, Variable
from repro.rdf.triple import Triple
from repro.sparql.algebra import TriplePattern
from repro.store import format as store_format
from repro.store.format import StoredTermDictionary, TermMemo, decode_term_line
from repro.store.reader import StoredTable
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.template import instantiate_template

#: A tiny injective dictionary: id -> term, plus a decode that rejects
#: anything outside it — the same contract the stored dictionary enforces —
#: read through a memo, as every batch's ``decode`` is (``NULL_ID`` is ``None``).
TERMS = {i: IRI(f"t{i}") for i in range(10)}


def term_of(term_id: int):
    try:
        return TERMS[term_id]
    except KeyError:
        raise KeyError(f"unknown term id {term_id}") from None


decode = TermMemo(term_of).__getitem__


def batch(columns, rows, selection=None):
    ids = [[row[i] for row in rows] for i in range(len(columns))]
    sel = None if selection is None else list(selection)
    return ColumnBatch(columns, ids, decode, selection=sel)


def bag(relation):
    return sorted(map(repr, relation.rows))


class TestBatchBasics:
    def test_empty_batch(self):
        empty = ColumnBatch.empty(("a", "b"), decode)
        assert len(empty) == 0
        relation = empty.to_relation()
        assert relation.columns == ("a", "b")
        assert relation.rows == []
        # Every kernel must tolerate the empty shape.
        assert len(empty.filter_equal("a", 3)) == 0
        assert len(empty.distinct()) == 0
        assert len(empty.limit(5)) == 0
        assert len(empty.natural_join(empty)) == 0

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnBatch(("a", "a"), [[], []], decode)

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(SchemaError):
            ColumnBatch(("a", "b"), [[1], []], decode)

    def test_all_selected_equals_no_selection(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        implicit = batch(("a", "b"), rows)
        explicit = batch(("a", "b"), rows, selection=range(3))
        assert len(implicit) == len(explicit) == 3
        assert bag(implicit.to_relation()) == bag(explicit.to_relation())
        assert bag(implicit.distinct().to_relation()) == bag(
            explicit.distinct().to_relation()
        )

    def test_selection_narrows_without_copying(self):
        b = batch(("a",), [(1,), (2,), (3,)], selection=[2, 0])
        assert len(b) == 2
        # Order follows the selection vector, not physical order.
        assert [row[0] for row in b.to_relation().rows] == [TERMS[3], TERMS[1]]
        assert b.ids is b.filter_equal("a", 3).ids  # shared columns, new selection


class TestRLEDecoding:
    def test_run_boundaries_expand_exactly(self):
        """Runs of length 1 and >1, at the start, middle and end of a page."""
        ids = [5] + [7] * 4 + [NULL_ID] * 2 + [5, 9]
        page = encode_id_column(ids)
        expanded = decode_id_column(page)
        assert type(expanded) is list and expanded == ids

    def test_single_run_and_empty_column(self):
        assert decode_id_column(encode_id_column([3] * 100)) == [3] * 100
        assert decode_id_column(encode_id_column([])) == []

    def test_batch_over_run_boundaries_filters_correctly(self):
        """A filter on a column whose matches straddle run boundaries."""
        ids = [1] * 3 + [2] * 2 + [1] + [3] * 4 + [1]
        column = decode_id_column(encode_id_column(ids))
        b = ColumnBatch(("a",), [column], decode)
        kept = b.filter_equal("a", 1)
        assert len(kept) == 5
        assert all(row == (TERMS[1],) for row in kept.to_relation().rows)


class TestKernelsMatchRelation:
    def rows(self):
        return [(1, 2), (3, 2), (1, 4), (5, NULL_ID), (1, 2)]

    def relation(self):
        return Relation(
            ("a", "b"),
            [
                tuple(None if v == NULL_ID else TERMS[v] for v in row)
                for row in self.rows()
            ],
        )

    def test_filter_equal(self):
        expected = self.relation().select_eq({"a": TERMS[1]})
        actual = batch(("a", "b"), self.rows()).filter_equal("a", 1).to_relation()
        assert bag(actual) == bag(expected)

    def test_select_ids_memoises_per_distinct_id(self):
        calls = []

        def predicate(term_id):
            calls.append(term_id)
            return term_id != NULL_ID and decode(term_id).value > "t2"

        b = batch(("a", "b"), self.rows()).select_ids("b", predicate)
        assert sorted(calls) == sorted({row[1] for row in self.rows()})  # distinct only
        expected = self.relation().select(lambda r: r["b"] is not None and r["b"].value > "t2")
        assert bag(b.to_relation()) == bag(expected)

    def test_project_rename_distinct_limit(self):
        b = batch(("a", "b"), self.rows())
        assert bag(b.project(["b"]).to_relation()) == bag(self.relation().project(["b"]))
        assert bag(b.rename({"a": "x"}).to_relation()) == bag(
            self.relation().rename({"a": "x"})
        )
        assert bag(b.distinct().to_relation()) == bag(self.relation().distinct())
        assert bag(b.limit(2, offset=1).to_relation()) == bag(
            self.relation().limit(2, offset=1)
        )

    def test_natural_join_matches_relation_including_nulls(self):
        left_rows = [(1, 2), (3, NULL_ID), (5, 2)]
        right_rows = [(2, 7), (NULL_ID, 8), (2, 9)]
        left = batch(("a", "b"), left_rows)
        right = batch(("b", "c"), right_rows)
        expected = Relation(
            ("a", "b"),
            [tuple(None if v == NULL_ID else TERMS[v] for v in r) for r in left_rows],
        ).natural_join(
            Relation(
                ("b", "c"),
                [tuple(None if v == NULL_ID else TERMS[v] for v in r) for r in right_rows],
            )
        )
        joined = left.natural_join(right)
        assert joined.columns == expected.columns
        assert bag(joined.to_relation()) == bag(expected)

    def test_join_comparisons_counted_like_relation(self):
        left = batch(("a", "b"), [(1, 2), (3, 2)])
        right = batch(("b", "c"), [(2, 7), (2, 9)])
        batch_metrics = ExecutionMetrics()
        left.natural_join(right, batch_metrics)
        row_metrics = ExecutionMetrics()
        left.to_relation().natural_join(right.to_relation(), row_metrics)
        assert batch_metrics.join_comparisons == row_metrics.join_comparisons

    def test_cross_join_when_no_shared_columns(self):
        left = batch(("a",), [(1,), (3,)])
        right = batch(("c",), [(5,), (7,)])
        assert len(left.natural_join(right)) == 4

    def test_union_pads_missing_columns_with_nulls(self):
        left = batch(("a",), [(1,)])
        right = batch(("b",), [(2,)])
        unioned = left.union(right).to_relation()
        expected = Relation(("a",), [(TERMS[1],)]).union(Relation(("b",), [(TERMS[2],)]))
        assert sorted(unioned.columns) == sorted(expected.columns)
        assert bag(unioned.project(sorted(unioned.columns))) == bag(
            expected.project(sorted(expected.columns))
        )

    def test_pad_to_adds_null_columns(self):
        padded = batch(("a",), [(1,), (2,)]).pad_to(["a", "z"])
        assert padded.columns == ("a", "z")
        assert all(row[1] is None for row in padded.to_relation().rows)
        assert list(null_column(3)) == [NULL_ID] * 3


class TestDecodeBoundary:
    def test_ids_beyond_dictionary_rejected(self):
        """An id the dictionary never assigned must raise at the lowering
        boundary — never silently produce a wrong term."""
        rogue = batch(("a",), [(1,), (9999,)])
        with pytest.raises(KeyError, match="unknown term id"):
            rogue.to_relation()

    def test_stored_dictionary_rejects_out_of_range(self, tmp_path):
        """Same contract on a real persisted dataset's dictionary."""
        session = S2RDFSession.from_graph(
            Graph([Triple(IRI("a"), IRI("p"), IRI("b"))]), num_partitions=1
        )
        path = str(tmp_path / "dataset")
        session.save_dataset(path)
        session.close()
        stored = S2RDFSession.open_dataset(path)
        scan = stored.layout.catalog.scan_batch("vp_p")
        good = scan.batch
        rogue = ColumnBatch(good.columns, good.ids, good.decode, selection=None)
        assert rogue.to_relation().columns == ("s", "o")  # in-range ids decode
        forged = ColumnBatch(
            good.columns,
            [[10_000] for _ in good.columns],
            good.decode,
        )
        with pytest.raises(KeyError):
            forged.to_relation()
        stored.close()


class TestConcat:
    def test_concat_batches(self):
        left = batch(("a",), [(1,)], selection=[0])
        right = batch(("a",), [(2,), (3,)])
        merged = concat_batches([left, right])
        assert len(merged) == 3
        with pytest.raises(ValueError):
            concat_batches([])
        with pytest.raises(SchemaError):
            concat_batches([left, batch(("z",), [(1,)])])


# --------------------------------------------------------------------------- #
# Property tests: the kernels against the Relation operators as oracle
# --------------------------------------------------------------------------- #
#: NULL_ID plus a handful of ids, so keys collide, repeat and go unbound.
small_ids = st.integers(min_value=NULL_ID, max_value=4)
SCHEMAS = [(), ("a",), ("b",), ("a", "b"), ("b", "c"), ("c", "a"), ("a", "b", "c")]


@st.composite
def id_tables(draw, columns=None):
    """(columns, physical rows, selection or None) of a small id table.

    A selection may repeat, reorder and drop physical rows.  A zero-column
    table has no column to take a length from, so its rows *are* a selection.
    """
    if columns is None:
        columns = draw(st.sampled_from(SCHEMAS))
    rows = draw(st.lists(st.tuples(*[small_ids] * len(columns)), max_size=6))
    if not columns or draw(st.booleans()):
        indices = st.integers(min_value=0, max_value=max(len(rows) - 1, 0))
        selection = draw(st.lists(indices, max_size=8)) if rows else []
        return columns, rows, selection
    return columns, rows, None


def as_batch(table):
    columns, rows, selection = table
    return batch(columns, rows, selection)


def as_relation(table):
    """The same table built row by row, without going near ``to_relation``."""
    columns, rows, selection = table
    picked = rows if selection is None else [rows[i] for i in selection]
    return Relation(
        columns, [tuple(None if v == NULL_ID else TERMS[v] for v in row) for row in picked]
    )


class TestKernelProperties:
    @given(id_tables())
    def test_to_relation_decodes_every_selected_row_in_order(self, table):
        lowered = as_batch(table).to_relation()
        expected = as_relation(table)
        assert lowered.columns == expected.columns
        assert lowered.rows == expected.rows

    @given(id_tables(), id_tables())
    def test_natural_join(self, left, right):
        batch_metrics, row_metrics = ExecutionMetrics(), ExecutionMetrics()
        joined = as_batch(left).natural_join(as_batch(right), batch_metrics)
        expected = as_relation(left).natural_join(as_relation(right), row_metrics)
        assert joined.columns == expected.columns
        assert bag(joined.to_relation()) == bag(expected)
        assert batch_metrics.join_comparisons == row_metrics.join_comparisons
        assert batch_metrics.intermediate_tuples == row_metrics.intermediate_tuples

    @given(id_tables())
    def test_distinct_keeps_first_occurrences(self, table):
        assert as_batch(table).distinct().to_relation().rows == as_relation(table).distinct().rows

    @given(id_tables(), id_tables())
    def test_union_equal_and_differing_schemas(self, left, right):
        unioned = as_batch(left).union(as_batch(right)).to_relation()
        expected = as_relation(left).union(as_relation(right))
        assert unioned.columns == expected.columns
        assert unioned.rows == expected.rows

    @given(id_tables(), st.one_of(st.none(), st.integers(0, 9)), st.integers(0, 9))
    def test_limit_and_offset(self, table, count, offset):
        limited = as_batch(table).limit(count, offset).to_relation()
        assert limited.rows == as_relation(table).limit(count, offset).rows

    @given(id_tables(columns=("a", "b")), st.sampled_from(["a", "b"]), small_ids)
    def test_filter_equal(self, table, column, term_id):
        kept = as_batch(table).filter_equal(column, term_id).to_relation()
        wanted = None if term_id == NULL_ID else TERMS[term_id]
        assert kept.rows == as_relation(table).select_eq({column: wanted}).rows

    @given(id_tables(columns=("a", "b", "c")), st.lists(st.sampled_from("abc"), max_size=4))
    def test_project_including_to_no_column_at_all(self, table, columns):
        projected = as_batch(table).project(columns).to_relation()
        expected = as_relation(table).project(columns)
        assert projected.columns == expected.columns
        assert projected.rows == expected.rows

    @given(id_tables(), st.sampled_from(SCHEMAS))
    def test_pad_to_adds_unbound_columns(self, table, columns):
        padded = as_batch(table).pad_to(columns).to_relation()
        expected = as_relation(table)
        missing = [c for c in columns if c not in expected.columns]
        assert padded.columns == expected.columns + tuple(missing)
        assert padded.rows == [row + (None,) * len(missing) for row in expected.rows]

    @given(id_tables(), st.integers(min_value=5, max_value=99))
    def test_an_id_the_dictionary_never_assigned_raises_at_the_boundary(self, table, rogue):
        columns, rows, selection = table
        if not columns:
            return  # no column to forge an id into
        forged = (columns, rows + [(rogue + len(TERMS),) * len(columns)], None)
        with pytest.raises(KeyError, match="unknown term id"):
            as_batch(forged).to_relation()

    def test_adopt_checks_names_and_nothing_else(self):
        ids = ([1, 2], [3, 4])
        adopted = ColumnBatch.adopt(("a", "b"), ids, decode)
        assert adopted.ids is ids and adopted.selection is None and len(adopted) == 2
        assert bag(adopted.to_relation()) == bag(ColumnBatch(("a", "b"), ids, decode).to_relation())
        with pytest.raises(SchemaError, match="duplicate column"):
            ColumnBatch.adopt(("a", "a"), ids, decode)
        # The kernels hand their input's columns on instead of re-validating them.
        assert adopted.filter_equal("a", 1).ids is ids
        assert adopted.rename({"a": "x"}).ids is ids
        with pytest.raises(SchemaError, match="duplicate column"):
            adopted.rename({"a": "b"})


# --------------------------------------------------------------------------- #
# Joins probing a resident index
# --------------------------------------------------------------------------- #
def resident(columns, rows, selection=None):
    """A batch of whole resident columns: each carries its position index."""
    plain = batch(columns, rows, selection)
    indexes = tuple(PositionIndex(column) for column in plain.ids)
    return ColumnBatch.adopt(plain.columns, plain.ids, decode, plain.selection, indexes)


def built(side):
    """Whether any index ``side`` carries has been built."""
    return any(index._positions is not None for index in side.indexes)


@pytest.fixture
def builds(monkeypatch):
    """Counts every index build, resident or throwaway, from now on."""
    calls = []
    build = vectorized.index_positions

    def counting(rows):
        calls.append(1)
        return build(rows)

    monkeypatch.setattr(vectorized, "index_positions", counting)
    return calls


def joins_agree(left, right, left_resident, right_resident):
    """Join ``(columns, rows, selection)`` tables through resident indexes on
    the sides asked for, through a throwaway index and as rows: the three
    bags, columns and comparison counts must agree.  Returns the resident
    sides as joined."""
    plain_left, plain_right = as_batch(left), as_batch(right)
    left_side = resident(*left) if left_resident else plain_left
    right_side = resident(*right) if right_resident else plain_right
    index_metrics, throwaway_metrics, row_metrics = (
        ExecutionMetrics(), ExecutionMetrics(), ExecutionMetrics()
    )
    probed = left_side.natural_join(right_side, index_metrics)
    hashed = plain_left.natural_join(plain_right, throwaway_metrics)
    expected = as_relation(left).natural_join(as_relation(right), row_metrics)
    assert probed.columns == hashed.columns == expected.columns
    assert bag(probed.to_relation()) == bag(hashed.to_relation()) == bag(expected)
    assert (
        index_metrics.as_dict()
        == throwaway_metrics.as_dict()
        == row_metrics.as_dict()
    )
    return left_side, right_side


LEFT = (("a", "b"), [(1, 2), (3, 2), (5, 4), (6, NULL_ID), (7, 0)], None)
RIGHT = (("b", "c"), [(2, 7), (2, 8), (4, 9), (NULL_ID, 9), (NULL_ID, 1), (3, 3)], None)


class TestResidentIndexJoin:
    @pytest.mark.parametrize("sides", [(True, False), (False, True)])
    def test_duplicate_and_null_keys_on_both_sides(self, sides, builds):
        left, right = joins_agree(LEFT, RIGHT, *sides)
        # The resident side was probed where it lies: its index is the only
        # index built, and the throwaway join beside it built one more.
        assert built(left if sides[0] else right)
        assert len(builds) == 2

    def test_null_matches_null(self):
        left = (("a", "b"), [(1, NULL_ID), (2, NULL_ID)], None)
        right = (("b", "c"), [(NULL_ID, 3), (4, 3)], None)
        for sides in [(True, False), (False, True), (True, True)]:
            joins_agree(left, right, *sides)

    @pytest.mark.parametrize("sides", [(True, False), (False, True), (True, True)])
    def test_an_empty_side(self, sides):
        empty_left = (LEFT[0], [], None)
        empty_right = (RIGHT[0], [], None)
        joins_agree(empty_left, RIGHT, *sides)
        joins_agree(LEFT, empty_right, *sides)

    def test_indexes_on_both_sides_probe_the_larger_one(self, builds):
        small = (("b", "c"), RIGHT[1][:2], None)
        left, right = joins_agree(LEFT, small, True, True)
        assert built(left) and not built(right)
        left, right = joins_agree(small, LEFT, True, True)
        assert built(right) and not built(left)
        # Two resident builds, two throwaway ones beside them.
        assert len(builds) == 4

    def test_a_selection_on_the_resident_side_is_not_probed(self, builds):
        """A selection narrows the rows but not the index: the batch is
        indexed for the join like any other, and its own index stays unbuilt."""
        narrowed = (LEFT[0], LEFT[1], [4, 1, 1, 0])
        left, right = joins_agree(narrowed, RIGHT, True, False)
        assert not built(left)
        # One throwaway index per join: the resident one was never asked for.
        assert len(builds) == 2

    def test_a_second_join_probes_the_built_index(self, builds):
        left = resident(*LEFT)
        for right in (RIGHT, (("b", "c"), [(4, 1)], None)):
            joined = left.natural_join(as_batch(right))
            expected = as_relation(LEFT).natural_join(as_relation(right))
            assert bag(joined.to_relation()) == bag(expected)
        assert len(builds) == 1

    def test_kernels_keeping_the_lists_keep_the_indexes(self):
        table = resident(*LEFT)
        assert table.rename({"a": "x"}).indexes == table.indexes
        assert table.project(["b"]).indexes == table.indexes[1:]
        assert table.project(["b", "a"]).indexes == table.indexes[::-1]
        assert table.project([]).indexes is None
        narrowing = [
            table.filter_equal("b", 2),
            table.select_ids("b", lambda term_id: True),
            table.distinct(),
            table.limit(2),
            table.pad_to(["a", "b", "z"]),
            table.union(table),
            table.natural_join(table),
        ]
        assert all(result.indexes is None for result in narrowing)

    @given(id_tables(), id_tables(), st.booleans(), st.booleans())
    def test_natural_join_with_resident_indexes(self, left, right, left_resident, right_resident):
        joins_agree(left, right, left_resident, right_resident)


# --------------------------------------------------------------------------- #
# The stored scan: one loop, lowered for callers that want rows
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def delta_dataset(small_dataset, tmp_path_factory):
    """(in-memory session over the full graph, stored session whose dataset
    was saved from a subset and appended to, so tables carry pending deltas)."""
    graph = small_dataset.graph
    triples = sorted(graph, key=lambda t: (t.subject.n3(), t.predicate.n3(), t.object.n3()))
    in_memory = S2RDFSession.from_graph(graph, num_partitions=4)
    saver = S2RDFSession.from_graph(
        Graph([t for i, t in enumerate(triples) if i % 5]), num_partitions=4
    )
    path = str(tmp_path_factory.mktemp("vectorized") / "dataset")
    saver.save_dataset(path)
    saver.close()
    stored = repro.connect(path)
    report = stored.append_triples([t for i, t in enumerate(triples) if i % 5 == 0])
    assert report.delta_segments > 0
    yield in_memory, stored
    in_memory.close()
    stored.close()


class TestStoredScan:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scan_is_scan_batch_lowered(self, delta_dataset, data):
        """Same rows in the same order, same counters — with and without
        projection and equality conditions, over base + deltas —
        and the rows are the in-memory table's, filtered and projected."""
        in_memory, stored = delta_dataset
        catalog = stored.layout.catalog
        name = data.draw(st.sampled_from([n for n in catalog.table_names() if n.startswith("vp_")]))
        table = stored._dataset.tables[name]
        truth = in_memory.layout.catalog.table(name)
        columns = data.draw(st.sampled_from([None, ["s", "o"], ["o", "s"], ["s"], ["o"]]))
        conditions = {}
        for column in data.draw(st.sampled_from([[], ["s"], ["o"], ["s", "o"]])):
            # A value the column holds, one it does not, or one the dictionary never saw.
            values = truth.column_values(column)
            conditions[column] = data.draw(
                st.sampled_from([values[0], values[-1], truth.rows[0][0], IRI("http://nowhere/x")])
            )
        rows = table.scan(columns, conditions)
        ids = table.scan_batch(columns, conditions)
        assert rows.relation.columns == ids.batch.columns
        assert rows.relation.rows == ids.batch.to_relation().rows
        assert (rows.rows_scanned, rows.segments_scanned, rows.segments_pruned) == (
            ids.rows_scanned,
            ids.segments_scanned,
            ids.segments_pruned,
        )
        expected = truth.select_eq(conditions).project(rows.relation.columns)
        assert bag(rows.relation) == bag(expected)

    def test_full_scans_are_cached_as_ids_and_as_rows(self, delta_dataset):
        _, stored = delta_dataset
        table = next(iter(stored._dataset.tables.values()))
        assert table.scan_batch() is table.scan_batch()
        assert table.scan() is table.scan()
        assert table.scan().relation.rows == table.scan_batch().batch.to_relation().rows


class TestNativePathNeedsNoConfiguration:
    def test_in_memory_and_stored_sessions_both_run_on_ids(self, delta_dataset, small_dataset):
        """Same defaults on both sides: in memory (the held store image) and
        from a store carrying deltas, scans, joins and projections are
        batches, and the bags and the join work agree — on the 20 WatDiv
        Basic templates (what the retired A/B bench asserted)."""
        in_memory, stored = delta_dataset
        for template in BASIC_TEMPLATES:
            query = instantiate_template(template, small_dataset)
            held = in_memory.query(query)
            ids = stored.query(query)
            assert bag(ids.relation.project(held.relation.columns)) == bag(held.relation), template.name
            assert held.statically_empty == ids.statically_empty, template.name
            if not ids.statically_empty:
                for result in (held, ids):
                    assert result.metrics.vectorized_rows > 0, template.name
                    # Every scan and every join above it produced a batch.
                    assert result.metrics.vectorized_batches >= len(result.metrics.scanned_tables)
            assert ids.metrics.join_comparisons == held.metrics.join_comparisons, template.name

    def test_save_then_connect_answers_the_same_rows_decoded(self, example_graph, query_q1, tmp_path):
        in_memory = S2RDFSession.from_graph(example_graph)
        before = in_memory.query(query_q1)
        assert before.metrics.vectorized_rows > 0
        in_memory.save_dataset(str(tmp_path / "g1"))
        in_memory.close()
        with repro.connect(str(tmp_path / "g1")) as stored:
            after = stored.query(query_q1)
        assert after.metrics.vectorized_rows > 0
        # Lowering is eager: the session (and its dictionary) is closed, and
        # every row of the result is still there, decoded.
        assert isinstance(after.relation, Relation) and len(after.relation) > 0
        assert all(isinstance(value, Term) for row in after.relation.rows for value in row)
        assert bag(after.relation) == bag(before.relation)
        assert len(list(after)) == len(after.relation)


# --------------------------------------------------------------------------- #
# The resident index of a stored column: built once, raced safely, never stale
# --------------------------------------------------------------------------- #
USERS = 20
#: Every user's likes: a join of a bound ``follows`` scan with the whole
#: ``vp_likes`` table, which is probed on its resident ``s`` index.
TWO_HOPS = "SELECT ?w WHERE {{ <u{}> <follows> ?b . ?b <likes> ?w }}"
#: Who follows a liker of one item: the whole ExtVP selection of ``follows``
#: reduced by ``likes`` is probed on its resident ``o`` index.
FOLLOWERS_OF_LIKERS = "SELECT ?a WHERE {{ ?a <follows> ?b . ?b <likes> <i{}> }}"


def users_triples():
    return [Triple.of(f"u{i}", "follows", f"u{(i * 3 + 1) % USERS}") for i in range(USERS)] + [
        Triple.of(f"u{i}", "likes", f"i{i % 7}") for i in range(USERS) if i % 3
    ]


def two_hops(triples, user):
    """TWO_HOPS's answer, worked out from the triples themselves."""
    edges = [(t.subject, t.predicate, t.object) for t in triples]
    followed = [o for s, p, o in edges if s == IRI(f"u{user}") and p == IRI("follows")]
    return sorted(repr((o,)) for b in followed for s, p, o in edges if s == b and p == IRI("likes"))


def answers(session, triples):
    """Every TWO_HOPS and FOLLOWERS_OF_LIKERS answer of ``session``, checked
    against a session built from ``triples`` in memory; returns the tables
    the joins scanned."""
    scanned = set()
    with S2RDFSession.from_graph(Graph(triples), journal_enabled=False) as truth:
        for text in [TWO_HOPS.format(u) for u in range(USERS + 2)] + [
            FOLLOWERS_OF_LIKERS.format(i) for i in range(8)
        ]:
            result = session.query(text)
            assert bag(result.relation) == bag(truth.query(text).relation), text
            scanned.update(result.metrics.scanned_tables)
    return scanned


def test_two_queries_build_a_resident_index_once(builds):
    """The zero-work pin: the first query builds one index per resident
    column it touches — the bound scan's ``s`` and the joined table's ``s``
    — and later queries, with the same constant or another, look up and
    probe those two."""
    triples = users_triples()
    with S2RDFSession.from_graph(Graph(triples), journal_enabled=False) as session:
        built = []
        for user in (1, 2, 1):
            assert bag(session.query(TWO_HOPS.format(user)).relation) == two_hops(triples, user)
            built.append(len(builds))
    assert built == [2, 2, 2]


def followers_of_likers(triples, item):
    """FOLLOWERS_OF_LIKERS's answer, worked out from the triples themselves."""
    edges = [(t.subject, t.predicate, t.object) for t in triples]
    likers = {s for s, p, o in edges if p == IRI("likes") and o == IRI(f"i{item}")}
    return sorted(repr((s,)) for s, p, o in edges if p == IRI("follows") and o in likers)


@pytest.mark.parametrize(
    "query, expected",
    [(TWO_HOPS, two_hops), (FOLLOWERS_OF_LIKERS, followers_of_likers)],
    ids=["constant-on-s", "constant-on-o"],
)
def test_threads_racing_the_first_index_build_get_the_uncached_answers(
    monkeypatch, query, expected
):
    """Every thread's first index build is its bound scan's — ``s`` of the
    ``follows`` selection for a user, ``o`` of ``vp_likes`` for an item — and
    its second the joined table's; all of them are held inside each build
    before any publishes it: each builds its own, and each gets its own
    answer.  Every constant is in the store, so every thread builds both."""
    threads_count = 8
    triples = users_triples()
    # Users 1-8 all follow someone; items 0-6 are all liked.
    constants = [n % 7 if query is FOLLOWERS_OF_LIKERS else n for n in range(1, threads_count + 1)]
    barrier = threading.Barrier(threads_count, timeout=60)
    build = vectorized.index_positions

    def overlapping(rows):
        barrier.wait()
        return build(rows)

    monkeypatch.setattr(vectorized, "index_positions", overlapping)
    got, failures = {}, []

    def client(n: int, constant: int) -> None:
        try:
            got[n] = bag(session.query(query.format(constant)).relation)
        except BaseException as error:  # reported by the main thread
            failures.append(error)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with S2RDFSession.from_graph(Graph(triples), journal_enabled=False) as session:
            threads = [threading.Thread(target=client, args=pair) for pair in enumerate(constants)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert got == {n: expected(triples, constant) for n, constant in enumerate(constants)}
    assert len(set(map(tuple, got.values()))) > 1  # the answers differ


@pytest.mark.parametrize("mutation", ["append", "compact"])
def test_a_store_change_drops_the_resident_indexes(tmp_path, mutation):
    """Queries build the indexes of a VP table and of an ExtVP selection;
    an append touches both, and so does the compaction after it: every
    join after each change answers from the changed store."""
    triples = users_triples()
    path = str(tmp_path / "dataset")
    with S2RDFSession.from_graph(Graph(triples), num_partitions=4) as saver:
        saver.save_dataset(path)
    # Old subjects gain likes and follows (their rows move inside their
    # buckets) and two new users join.
    added = [Triple.of(f"u{i}", "likes", "i7") for i in range(0, USERS, 4)]
    added += [Triple.of("u1", "follows", f"u{USERS}"), Triple.of(f"u{USERS}", "likes", "i3")]
    added += [Triple.of(f"u{USERS + 1}", "follows", "u0"), Triple.of("u5", "likes", "i0")]
    with repro.connect(path, journal_enabled=False) as session:
        scanned = answers(session, triples)
        assert {"vp_likes", "extvp_os_follows__likes"} <= scanned
        report = session.append_triples(added)
        assert {"vp_likes", "extvp_os_follows__likes"} <= set(report.touched_tables)
        if mutation == "compact":
            answers(session, triples + added)
            compacted = session.compact(compaction_threshold=1)
            assert compacted.delta_rows_merged
            assert {"vp_likes", "extvp_os_follows__likes"} <= set(compacted.touched_tables)
        assert {"vp_likes", "extvp_os_follows__likes"} <= answers(session, triples + added)


class ReadsRecorded(list):
    """A resident column that records every position read from it."""

    def __init__(self, column, reads):
        super().__init__(column)
        self.reads = reads

    def __getitem__(self, position):
        self.reads.append(position)
        return list.__getitem__(self, position)


#: Per table: the constants of a warm-up scan, then scans with new ones —
#: on ``s`` and ``o`` at once (a base row, an appended row, no common row),
#: a constant the dictionary holds but the table lacks, one the store never held.
BOUND_SCANS = {
    "vp_likes": (
        {"s": "u1", "o": "i1"},
        [
            {"s": "u2", "o": "i2"},
            {"s": "u8", "o": "i7"},
            {"s": "u4", "o": "i2"},
            {"o": "u3"},
            {"o": "http://nowhere/x"},
        ],
    ),
    # The follows rows whose object likes something.
    "extvp_os_follows__likes": (
        {"s": "u1", "o": "u4"},
        [
            {"s": "u2", "o": "u7"},
            {"s": "u1", "o": f"u{USERS}"},
            {"s": "u2", "o": "u4"},
            {"o": "i2"},
            {"s": "http://nowhere/x"},
        ],
    ),
}


def bound_scan_oracle(graph, table, conditions):
    """The ``(s, o)`` rows of ``table`` under ``conditions``, from the graph."""
    subject = conditions.get("s", Variable("s"))
    object_ = conditions.get("o", Variable("o"))
    patterns = [TriplePattern(subject, IRI("likes" if table == "vp_likes" else "follows"), object_)]
    if table != "vp_likes":
        patterns.append(TriplePattern(object_, IRI("likes"), Variable("x")))
    rows = {
        (solution.get("s", subject), solution.get("o", object_))
        for solution in index_nested_loop_execute(graph, patterns)
    }
    return sorted(map(repr, rows))


@pytest.mark.parametrize("num_partitions", [1, 4])
@pytest.mark.parametrize("name", sorted(BOUND_SCANS))
def test_a_warm_bound_scan_reads_only_its_constants_rows(tmp_path, monkeypatch, num_partitions, name):
    """The zero-work pin: once a bound scan made a table's columns resident,
    a scan with new constants decodes no segment and reads no row of the
    resident columns but the ones its rarest constant's position list
    holds; every answer is the graph's, on stores with an appended delta."""
    triples = users_triples()
    added = [Triple.of(f"u{i}", "likes", "i7") for i in range(0, USERS, 4)]
    added += [Triple.of("u1", "follows", f"u{USERS}"), Triple.of(f"u{USERS}", "likes", "i3")]
    graph = Graph(triples + added)
    path = str(tmp_path / "dataset")
    with S2RDFSession.from_graph(Graph(triples), num_partitions=num_partitions) as saver:
        saver.save_dataset(path)
    warm_up, cases = BOUND_SCANS[name]
    with repro.connect(path, journal_enabled=False) as session:
        session.append_triples(added)
        table = session._dataset.tables[name]
        assert table.entry.deltas
        dictionary = session._dataset.dictionary
        table.scan(["s", "o"], {column: IRI(value) for column, value in warm_up.items()})

        def unread(*args):
            raise AssertionError("a warm bound scan read the store")

        monkeypatch.setattr(StoredTable, "_segment_arrays", unread)
        monkeypatch.setattr(StoredTable, "bucket_arrays", unread)
        reads = []
        for index in table._columns.values():
            index.column = ReadsRecorded(index.column, reads)
        for case in cases:
            conditions = {column: IRI(value) for column, value in case.items()}
            reads.clear()
            scan = table.scan(["s", "o"], conditions)
            expected = bound_scan_oracle(graph, name, conditions)
            assert sorted(map(repr, scan.relation.rows)) == expected, case
            assert reads or not expected
            rarest = min(
                (
                    table._columns[column].positions().get(dictionary.lookup(term), [])
                    for column, term in conditions.items()
                ),
                key=len,
            )
            assert set(reads) <= set(rarest), case


# --------------------------------------------------------------------------- #
# The dictionary's decode memo: an id is decoded once per session
# --------------------------------------------------------------------------- #
@pytest.fixture
def saved_users(tmp_path):
    path = str(tmp_path / "dataset")
    graph = Graph(users_triples())
    with S2RDFSession.from_graph(graph, num_partitions=2, journal_enabled=False) as saver:
        saver.save_dataset(path)
    return path


def count_decodes(monkeypatch):
    """Counts every step of a decode: lines parsed, memo misses, dictionary calls."""
    calls = Counter()
    line, missing, decode = (
        store_format.decode_term_line,
        TermMemo.__missing__,
        StoredTermDictionary.decode,
    )
    monkeypatch.setattr(
        store_format, "decode_term_line", lambda text: calls.update(["line"]) or line(text)
    )
    monkeypatch.setattr(
        TermMemo, "__missing__", lambda memo, term_id: calls.update(["miss"]) or missing(memo, term_id)
    )
    monkeypatch.setattr(
        StoredTermDictionary,
        "decode",
        lambda dictionary, term_id: calls.update(["decode"]) or decode(dictionary, term_id),
    )
    return calls


def test_lowering_ids_a_session_lowered_before_decodes_nothing(saved_users, monkeypatch):
    """The zero-work pin: a query returning ids an earlier query of the
    session returned parses no line, misses no memo and calls no dictionary
    method — a memo per lowering would decode them again."""
    triples = users_triples()
    calls = count_decodes(monkeypatch)
    with repro.connect(saved_users, journal_enabled=False) as session:
        assert bag(session.query(TWO_HOPS.format(1)).relation) == two_hops(triples, 1)
        assert calls["line"] > 0 and calls["miss"] == calls["line"]
        calls.clear()
        # The constant is in the plan entry's slot memo, every answer id in the session's.
        for _ in range(2):
            assert bag(session.query(TWO_HOPS.format(1)).relation) == two_hops(triples, 1)
        assert calls == Counter()


def test_appended_terms_reach_a_query_through_the_memo_built_before(saved_users):
    triples = users_triples()
    added = [Triple.of("u1", "follows", f"u{USERS}"), Triple.of(f"u{USERS}", "likes", "brand-new")]
    with repro.connect(saved_users, journal_enabled=False) as session:
        dictionary = session._dataset.dictionary
        memo, known = dictionary.terms, len(dictionary)
        assert bag(session.query(TWO_HOPS.format(1)).relation) == two_hops(triples, 1)
        session.append_triples(added)
        assert session._dataset.dictionary is dictionary and dictionary.terms is memo
        result = session.query(TWO_HOPS.format(1))
        assert bag(result.relation) == two_hops(triples + added, 1)
        assert IRI("brand-new") in result.values("w")
        new = dictionary.lookup(IRI("brand-new"))
        assert new >= known and memo[new] == IRI("brand-new")


def test_threads_racing_the_first_decodes_get_the_uncached_terms(tmp_path):
    """Rounds of 8 threads released at once on a dictionary no id was read
    from, each lowering every id (and NULL) in its own order through the one
    memo, under a short switch interval: every row is the uncached term."""
    threads_count, rounds = 8, 4
    terms = [IRI(f"http://example.org/t{i}") for i in range(300)]
    terms += [Literal(f"v{i}", language="en") for i in range(150)]
    terms += [Literal(str(i), datatype="http://www.w3.org/2001/XMLSchema#integer") for i in range(150)]
    root = str(tmp_path)
    StoredTermDictionary.of_terms(terms).write(root)
    ids = list(range(len(terms))) + [NULL_ID]
    failures = []

    def lower(dictionary, offset, barrier):
        try:
            column = ids[offset * 71 :] + ids[: offset * 71]
            barrier.wait()
            rows = ColumnBatch(("t",), [column], dictionary.terms.__getitem__).to_relation().rows
            expected = [(None if i == NULL_ID else decode_term_line(dictionary.line(i)),) for i in column]
            assert rows == expected
        except BaseException as error:  # reported by the main thread
            failures.append(error)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(rounds):
            dictionary = StoredTermDictionary.open(root, expected_size=len(terms))
            assert len(dictionary.terms) == 1  # NULL_ID only
            barrier = threading.Barrier(threads_count, timeout=60)
            threads = [
                threading.Thread(target=lower, args=(dictionary, n, barrier))
                for n in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[0]
            assert len(dictionary.terms) == len(ids)
    finally:
        sys.setswitchinterval(interval)
