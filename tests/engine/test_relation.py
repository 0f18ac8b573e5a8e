"""Unit and property tests for the Relation operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation, SchemaError


@pytest.fixture
def people():
    return Relation(("name", "city"), [("ada", "london"), ("alan", "cambridge"), ("grace", "nyc")])


@pytest.fixture
def jobs():
    return Relation(("name", "job"), [("ada", "math"), ("alan", "cs"), ("alan", "crypto")])


class TestBasics:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation(("a", "a"), [])

    def test_row_arity_checked(self):
        with pytest.raises(SchemaError):
            Relation(("a", "b"), [(1,)])

    def test_public_constructor_copies_and_tuples_outside_rows(self):
        rows = [[1, 2], (3, 4)]
        relation = Relation(("a", "b"), rows)
        assert relation.rows == [(1, 2), (3, 4)]
        assert relation.rows is not rows
        with pytest.raises(SchemaError, match="row has 1 values"):
            Relation(("a", "b"), [(1, 2), (3,)])

    def test_adopt_shares_the_row_list_but_still_checks_the_schema(self):
        rows = [(1, 2), (3, 4)]
        relation = Relation.adopt(("a", "b"), rows)
        assert relation.rows is rows
        assert relation.columns == ("a", "b")
        assert relation == Relation(("a", "b"), rows)
        with pytest.raises(SchemaError, match="duplicate column"):
            Relation.adopt(("a", "a"), rows)

    def test_operators_share_rows_instead_of_copying(self, people):
        assert people.rename({"name": "who"}).rows is people.rows
        assert people.project(["name", "city"]) is people
        # A real projection builds new rows and leaves the input alone.
        assert people.project(["city"]).rows == [("london",), ("cambridge",), ("nyc",)]
        assert len(people.rows[0]) == 2
        with pytest.raises(SchemaError, match="duplicate column"):
            people.rename({"name": "city"})

    def test_len_and_iter(self, people):
        assert len(people) == 3
        assert ("ada", "london") in list(people)

    def test_column_values_and_distinct(self, jobs):
        assert jobs.column_values("name") == ["ada", "alan", "alan"]
        assert jobs.distinct_count("name") == 2

    def test_unknown_column(self, people):
        with pytest.raises(SchemaError):
            people.column_index("nope")

    def test_to_dicts(self, people):
        assert {"name": "ada", "city": "london"} in people.to_dicts()

    def test_equality_is_bag_equality(self):
        left = Relation(("a",), [(1,), (2,)])
        right = Relation(("a",), [(2,), (1,)])
        assert left == right

    def test_hash_consistent_with_equality(self):
        left = Relation(("a",), [(1,), (2,)])
        right = Relation(("a",), [(2,), (1,)])
        assert hash(left) == hash(right)
        assert len({left, right}) == 1

    def test_hashable_in_sets_and_dicts(self):
        """Relations must be usable as set members / dict keys (store code)."""
        one = Relation(("a",), [(1,)])
        other = Relation(("a",), [(2,)])
        assert {one: "x"}[Relation(("a",), [(1,)])] == "x"
        assert len({one, other}) == 2

    def test_hash_distinguishes_columns(self):
        assert hash(Relation(("a",), [(1,)])) != hash(Relation(("b",), [(1,)]))

    def test_equality_under_shuffled_column_order(self):
        """Regression: equality must align values by column *name*, not by
        position or by the sorted textual repr of whole rows.  The same
        logical rows stated under a permuted column order are equal; the
        same positional tuples under a permuted column order are not."""
        left = Relation(("a", "b"), [(1, "x"), (2, "y")])
        permuted_same = Relation(("b", "a"), [("y", 2), ("x", 1)])
        permuted_different = Relation(("b", "a"), [(1, "x"), (2, "y")])
        assert left == permuted_same
        assert hash(left) == hash(permuted_same)
        assert left != permuted_different

    def test_equality_not_fooled_by_repr_collisions(self):
        """Bag equality compares values, not concatenated row reprs."""
        left = Relation(("a", "b"), [("x", "y,z")])
        right = Relation(("a", "b"), [("x,y", "z")])
        assert left != right

    def test_non_relation_comparison(self):
        assert Relation(("a",), [(1,)]) != "not a relation"


class TestUnaryOperators:
    def test_project_reorders_and_drops(self, people):
        projected = people.project(["city"])
        assert projected.columns == ("city",)
        assert len(projected) == 3

    def test_project_duplicates_collapse(self, people):
        assert people.project(["name", "name"]).columns == ("name",)

    def test_rename(self, people):
        renamed = people.rename({"name": "person"})
        assert renamed.columns == ("person", "city")

    def test_rename_unknown_column(self, people):
        with pytest.raises(SchemaError):
            people.rename({"nope": "x"})

    def test_select_predicate(self, people):
        assert len(people.select(lambda row: row["city"] == "london")) == 1

    def test_select_eq(self, jobs):
        assert len(jobs.select_eq({"name": "alan"})) == 2

    def test_distinct(self):
        relation = Relation(("a",), [(1,), (1,), (2,)])
        assert len(relation.distinct()) == 2

    def test_order_by_ascending_and_descending(self, people):
        ascending = people.order_by([("name", True)]).column_values("name")
        assert ascending == ["ada", "alan", "grace"]
        descending = people.order_by([("name", False)]).column_values("name")
        assert descending == ["grace", "alan", "ada"]

    def test_order_by_none_sorts_last(self):
        relation = Relation(("a",), [(None,), (1,), (2,)])
        assert relation.order_by([("a", True)]).column_values("a") == [1, 2, None]

    def test_limit_and_offset(self, people):
        assert len(people.limit(2)) == 2
        assert len(people.limit(2, offset=2)) == 1
        assert len(people.limit(None, offset=1)) == 2


class TestTopK:
    """``top_k`` must return exactly ``order_by(keys).limit(count, offset)``
    without materialising the full sort — including descending keys, NULL
    placement and tie stability."""

    def test_matches_order_by_limit(self, people):
        for keys in ([("name", True)], [("name", False)], [("city", True), ("name", False)]):
            expected = people.order_by(keys).limit(2)
            assert people.top_k(keys, 2).rows == expected.rows, keys

    def test_offset(self, people):
        expected = people.order_by([("name", True)]).limit(1, offset=1)
        assert people.top_k([("name", True)], 1, offset=1).rows == expected.rows

    def test_none_placement_matches_order_by(self):
        relation = Relation(("a",), [(None,), (1,), (2,), (None,)])
        for ascending in (True, False):
            keys = [("a", ascending)]
            expected = relation.order_by(keys).limit(3)
            assert relation.top_k(keys, 3).rows == expected.rows, ascending

    def test_ties_keep_original_row_order(self):
        relation = Relation(("k", "tag"), [(1, "first"), (0, "x"), (1, "second"), (1, "third")])
        top = relation.top_k([("k", True)], 3)
        assert top.rows == [(0, "x"), (1, "first"), (1, "second")]

    def test_count_larger_than_relation(self, people):
        keys = [("name", True)]
        assert people.top_k(keys, 99).rows == people.order_by(keys).rows

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-5, 5)),
                st.integers(0, 3),
            ),
            max_size=30,
        ),
        count=st.integers(1, 10),
        offset=st.integers(0, 5),
        first_ascending=st.booleans(),
        second_ascending=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equivalent_to_sort_then_limit(
        self, rows, count, offset, first_ascending, second_ascending
    ):
        relation = Relation(("a", "b"), rows)
        keys = [("a", first_ascending), ("b", second_ascending)]
        expected = relation.order_by(keys).limit(count, offset=offset)
        assert relation.top_k(keys, count, offset=offset).rows == expected.rows


class TestAggregate:
    @pytest.fixture
    def scores(self):
        return Relation(
            ("player", "score"),
            [("ada", 3), ("ada", 5), ("alan", 2), ("alan", 2), ("grace", None)],
        )

    def spec(self, function, column, alias="out", distinct=False):
        from repro.engine.ops import AggregateSpec

        return AggregateSpec(function=function, column=column, alias=alias, distinct=distinct)

    def test_grouped_in_first_seen_order(self, scores):
        result = scores.aggregate(["player"], [self.spec("sum", "score")])
        assert result.columns == ("player", "out")
        assert result.rows == [("ada", 8), ("alan", 4), ("grace", 0)]

    def test_nones_excluded_from_arguments(self, scores):
        result = scores.aggregate(["player"], [self.spec("count", "score")])
        assert result.rows == [("ada", 2), ("alan", 2), ("grace", 0)]

    def test_count_star_counts_rows_not_values(self, scores):
        result = scores.aggregate(["player"], [self.spec("count", None)])
        assert result.rows == [("ada", 2), ("alan", 2), ("grace", 1)]

    def test_distinct_dedups_before_aggregating(self, scores):
        result = scores.aggregate([], [self.spec("sum", "score", distinct=True)])
        assert result.rows == [(3 + 5 + 2,)]

    def test_implicit_group_on_empty_input_yields_one_row(self):
        empty = Relation(("v",), [])
        result = empty.aggregate(
            [],
            [self.spec("count", "v", "n"), self.spec("sum", "v", "s"),
             self.spec("min", "v", "lo")],
        )
        # SPARQL: empty COUNT/SUM are 0, MIN of nothing is unbound.
        assert result.columns == ("n", "s", "lo")
        assert result.rows == [(0, 0, None)]

    def test_avg(self, scores):
        result = scores.aggregate([], [self.spec("avg", "score")])
        assert result.rows == [(3.0,)]

    def test_aggregate_value_shared_semantics(self):
        from repro.engine.relation import aggregate_value

        assert aggregate_value("count", [1, 1, 2], distinct=True) == 2
        assert aggregate_value("sum", [], distinct=False) == 0
        assert aggregate_value("avg", [], distinct=False) == 0
        assert aggregate_value("min", [], distinct=False) is None
        assert aggregate_value("max", [2, 10], distinct=False) == 10


class TestJoins:
    def test_natural_join(self, people, jobs):
        joined = people.natural_join(jobs)
        assert set(joined.columns) == {"name", "city", "job"}
        assert len(joined) == 3  # ada x1, alan x2

    def test_natural_join_metrics(self, people, jobs):
        metrics = ExecutionMetrics()
        people.natural_join(jobs, metrics)
        assert metrics.joins == 1
        assert metrics.shuffled_tuples == len(people) + len(jobs)
        assert metrics.join_comparisons >= 3

    def test_cross_join_when_no_shared_columns(self):
        left = Relation(("a",), [(1,), (2,)])
        right = Relation(("b",), [(3,)])
        assert len(left.natural_join(right)) == 2

    def test_left_outer_join_keeps_unmatched(self, people, jobs):
        joined = people.left_outer_join(jobs)
        grace_rows = [row for row in joined.to_dicts() if row["name"] == "grace"]
        assert grace_rows and grace_rows[0]["job"] is None

    def test_union_same_schema(self, people):
        doubled = people.union(people)
        assert len(doubled) == 6

    def test_union_different_schema_pads_with_none(self):
        left = Relation(("a",), [(1,)])
        right = Relation(("b",), [(2,)])
        merged = left.union(right)
        assert set(merged.columns) == {"a", "b"}
        assert len(merged) == 2


_values = st.integers(min_value=0, max_value=5)
_rows = st.lists(st.tuples(_values, _values), max_size=25)


class TestJoinProperties:
    @given(left_rows=_rows, right_rows=_rows)
    @settings(max_examples=60, deadline=None)
    def test_natural_join_matches_nested_loop(self, left_rows, right_rows):
        """Hash join must agree with a naive nested-loop join."""
        left = Relation(("a", "b"), left_rows)
        right = Relation(("b", "c"), right_rows)
        joined = left.natural_join(right)
        expected = sorted(
            (la, lb, rc) for (la, lb) in left_rows for (rb, rc) in right_rows if lb == rb
        )
        assert sorted(joined.rows) == expected

    @given(left_rows=_rows, right_rows=_rows)
    @settings(max_examples=40, deadline=None)
    def test_left_outer_join_preserves_left_cardinality_lower_bound(self, left_rows, right_rows):
        left = Relation(("a", "b"), left_rows)
        right = Relation(("b", "c"), right_rows)
        joined = left.left_outer_join(right)
        assert len(joined) >= len(left)
        # Every left row key must still be present.
        assert {row[0] for row in joined.rows} >= {row[0] for row in left_rows}

    @given(rows=_rows)
    @settings(max_examples=40, deadline=None)
    def test_distinct_idempotent(self, rows):
        relation = Relation(("a", "b"), rows)
        once = relation.distinct()
        assert once == once.distinct()
        assert len(once) == len(set(rows))
