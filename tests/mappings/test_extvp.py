"""Unit and property tests for the ExtVP layout (the paper's contribution)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import S2RDFSession
from repro.mappings.extvp import (
    CorrelationKind,
    correlation_keys,
    is_correlation_key,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple


def build_layout(graph, **kwargs):
    """A built layout as a session serves it: the session's store image
    computes the ExtVP tables and hands their statistics back."""
    return S2RDFSession.from_graph(graph, **kwargs).layout


class TestExtVPOnRunningExample:
    """Fig. 10 of the paper enumerates every ExtVP table of graph G1."""

    @pytest.fixture(scope="class")
    def layout(self, example_graph):
        return build_layout(example_graph)

    def test_os_follows_follows(self, layout):
        info = layout.extvp_info(CorrelationKind.OS, IRI("follows"), IRI("follows"))
        assert info.row_count == 2  # (A,B), (B,C)
        assert info.selectivity == pytest.approx(0.5)
        assert info.materialized

    def test_os_follows_likes(self, layout):
        info = layout.extvp_info(CorrelationKind.OS, IRI("follows"), IRI("likes"))
        assert info.row_count == 1  # (B,C)
        assert info.selectivity == pytest.approx(0.25)

    def test_so_follows_follows(self, layout):
        info = layout.extvp_info(CorrelationKind.SO, IRI("follows"), IRI("follows"))
        assert info.row_count == 3  # (B,C), (B,D), (C,D)
        assert info.selectivity == pytest.approx(0.75)

    def test_so_follows_likes_empty(self, layout):
        info = layout.extvp_info(CorrelationKind.SO, IRI("follows"), IRI("likes"))
        assert info.is_empty
        assert not info.materialized

    def test_ss_follows_likes(self, layout):
        info = layout.extvp_info(CorrelationKind.SS, IRI("follows"), IRI("likes"))
        assert info.row_count == 2  # (A,B), (C,D)
        assert info.selectivity == pytest.approx(0.5)

    def test_os_likes_follows_empty(self, layout):
        info = layout.extvp_info(CorrelationKind.OS, IRI("likes"), IRI("follows"))
        assert info.is_empty

    def test_so_likes_follows(self, layout):
        info = layout.extvp_info(CorrelationKind.SO, IRI("likes"), IRI("follows"))
        assert info.row_count == 1  # (C,I2)
        assert info.selectivity == pytest.approx(1 / 3)

    def test_ss_likes_follows_equal_to_vp_not_stored(self, layout):
        info = layout.extvp_info(CorrelationKind.SS, IRI("likes"), IRI("follows"))
        assert info.row_count == 3
        assert info.selectivity == pytest.approx(1.0)
        assert not info.materialized  # SF = 1 tables are not stored (Fig. 10, red)

    def test_ss_self_correlation_not_built(self, layout):
        assert layout.extvp_info(CorrelationKind.SS, IRI("follows"), IRI("follows")) is None

    def test_oo_not_built_by_default(self, layout):
        assert layout.extvp_info(CorrelationKind.OO, IRI("follows"), IRI("likes")) is None

    def test_materialized_table_contents(self, layout):
        name = layout.extvp_info(CorrelationKind.OS, IRI("follows"), IRI("likes")).name
        # The table is a selection over VP_follows' stored rows, decoded.
        assert layout.catalog.is_stored(name)
        assert set(layout.catalog.scan(name).relation.rows) == {(IRI("B"), IRI("C"))}

    def test_vp_tables_still_available(self, layout):
        assert layout.vp_size(IRI("follows")) == 4
        assert layout.vp_size(IRI("likes")) == 3


class TestSelectivityThreshold:
    def test_threshold_limits_materialization(self, example_graph):
        full = build_layout(example_graph, selectivity_threshold=1.0)
        limited = build_layout(example_graph, selectivity_threshold=0.3)
        assert len(limited.statistics.materialized()) < len(full.statistics.materialized())
        # Only tables with SF < 0.3 survive.
        assert all(info.selectivity < 0.3 for info in limited.statistics.materialized())

    def test_threshold_zero_disables_extvp(self, example_graph):
        layout = build_layout(example_graph, selectivity_threshold=0.0)
        assert layout.statistics.materialized() == []
        # Statistics are still collected for the compiler.
        assert len(layout.statistics) > 0

    def test_invalid_threshold_rejected(self, example_graph):
        with pytest.raises(ValueError, match="selectivity_threshold"):
            S2RDFSession.from_graph(example_graph, selectivity_threshold=1.5)

    def test_statistics_survive_for_unmaterialized_tables(self, example_graph):
        layout = build_layout(example_graph, selectivity_threshold=0.3)
        info = layout.extvp_info(CorrelationKind.SO, IRI("follows"), IRI("follows"))
        assert info is not None
        assert not info.materialized
        assert info.selectivity == pytest.approx(0.75)


class TestOOAblation:
    def test_oo_built_when_requested(self, example_graph):
        layout = build_layout(example_graph, include_oo=True)
        info = layout.extvp_info(CorrelationKind.OO, IRI("follows"), IRI("likes"))
        assert info is not None

    def test_oo_self_join_is_trivial(self, example_graph):
        layout = build_layout(example_graph, include_oo=True)
        info = layout.extvp_info(CorrelationKind.OO, IRI("follows"), IRI("follows"))
        # Semi-joining a table with itself on o=o returns the table (SF = 1).
        assert info.selectivity == pytest.approx(1.0)
        assert not info.materialized


class TestTable2Accounting:
    def test_size_summary(self, example_graph):
        summary = S2RDFSession.from_graph(example_graph).storage_summary()
        assert summary["vp_tuples"] == 7
        assert summary["total_tuples"] == summary["vp_tuples"] + summary["extvp_tuples"]
        assert summary["hdfs_bytes"] > 0

    def test_table_counts(self, example_graph):
        layout = build_layout(example_graph)
        counts = layout.table_counts()
        assert counts["vp"] == 2
        assert counts["total"] == counts["vp"] + counts["extvp"]


# --------------------------------------------------------------------------- #
# Property-based invariants on random graphs
# --------------------------------------------------------------------------- #
_node = st.integers(min_value=0, max_value=8).map(lambda i: IRI(f"n{i}"))
_predicate = st.sampled_from([IRI("p"), IRI("q"), IRI("r")])
_graphs = st.lists(st.tuples(_node, _predicate, _node), min_size=1, max_size=40).map(
    lambda triples: Graph(Triple(s, p, o) for s, p, o in triples)
)

_KIND_COLUMNS = {
    CorrelationKind.SS: ("s", "s"),
    CorrelationKind.OS: ("o", "s"),
    CorrelationKind.SO: ("s", "o"),
}


class TestExtVPProperties:
    @given(graph=_graphs)
    @settings(max_examples=40, deadline=None)
    def test_extvp_tables_are_semijoin_reductions(self, graph):
        """Every materialised ExtVP table equals VP_p1 ⋉ VP_p2 on the right columns."""
        layout = build_layout(graph)
        for info in layout.statistics.materialized():
            vp_first = layout.catalog.table(layout.vp_table_name(info.first))
            vp_second = layout.catalog.table(layout.vp_table_name(info.second))
            left_column, right_column = _KIND_COLUMNS[info.kind]
            values = set(vp_second.column_values(right_column))
            index = vp_first.column_index(left_column)
            expected = [row for row in vp_first.rows if row[index] in values]
            actual = layout.catalog.table(info.name)
            assert sorted(map(repr, actual.rows)) == sorted(map(repr, expected))

    @given(graph=_graphs)
    @settings(max_examples=40, deadline=None)
    def test_extvp_subset_of_vp_and_sf_bounds(self, graph):
        layout = build_layout(graph)
        for info in layout.statistics.tables.values():
            assert 0.0 <= info.selectivity <= 1.0
            assert info.row_count <= info.vp_row_count
            if info.materialized:
                table = layout.catalog.table(info.name)
                vp_rows = set(layout.catalog.table(layout.vp_table_name(info.first)).rows)
                assert set(table.rows) <= vp_rows

    @given(graph=_graphs, threshold=st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=30, deadline=None)
    def test_threshold_monotone_in_storage(self, graph, threshold):
        """A smaller threshold never stores more tuples than a larger one."""
        limited = build_layout(graph, selectivity_threshold=threshold)
        full = build_layout(graph, selectivity_threshold=1.0)
        assert limited.statistics.total_materialized_tuples() <= full.statistics.total_materialized_tuples()


class TestStorageSummaryAlwaysPopulated:
    def test_summary_on_success(self, example_graph):
        summary = S2RDFSession.from_graph(example_graph).storage_summary()
        assert summary["load_seconds"] > 0.0
        assert summary["table_counts"]["total"] > 0

    def test_summary_on_empty_graph(self):
        summary = S2RDFSession.from_graph(Graph([])).storage_summary()
        assert summary["table_counts"]["total"] == 0
        assert summary["load_seconds"] > 0.0


@pytest.mark.parametrize("include_oo", (False, True))
def test_one_key_space_rule(include_oo):
    """``is_correlation_key`` accepts exactly the keys ``correlation_keys``
    lists — over predicates and over their indexes alike — and the key space
    has every ordered pair per kind except SS of a predicate with itself."""
    predicates = [IRI("p"), IRI("q"), IRI("r")]
    for stand_ins in (predicates, range(len(predicates))):
        keys = correlation_keys(stand_ins, include_oo)
        assert len(keys) == len(set(keys)) == 9 * (4 if include_oo else 3) - 3
        every = [(kind, a, b) for kind in CorrelationKind for a in stand_ins for b in stand_ins]
        assert {key for key in every if is_correlation_key(*key, include_oo)} == set(keys)
