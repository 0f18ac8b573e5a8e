"""Unit tests for table selection (Alg. 1), TP2SQL (Alg. 2) and BGP2SQL (Alg. 3/4)."""

import pytest

from repro.core.bgp import compile_bgp
from repro.core.session import S2RDFSession
from repro.core.table_selection import TableSelector
from repro.core.translation import triple_pattern_to_subquery
from repro.engine.ops import EmptyNode, NaturalJoinNode, SubqueryNode, count_joins
from repro.rdf.terms import IRI, Variable
from repro.sparql.algebra import BGP, TriplePattern


def tp(s, p, o):
    def term(x):
        return Variable(x[1:]) if x.startswith("?") else IRI(x)

    return TriplePattern(term(s), term(p), term(o))


@pytest.fixture(scope="module")
def session(example_graph):
    """A session over the running example: it serves the built layout from
    its store image, whose build computed the ExtVP statistics."""
    return S2RDFSession.from_graph(example_graph)


@pytest.fixture(scope="module")
def layout(session):
    return session.layout


@pytest.fixture(scope="module")
def selector(layout):
    return TableSelector(layout)


@pytest.fixture(scope="module")
def executor(session):
    return session.executor


class TestTableSelection:
    """The examples follow Fig. 11 of the paper (query Q1 over graph G1)."""

    Q1 = [
        tp("?x", "likes", "?w"),
        tp("?x", "follows", "?y"),
        tp("?y", "follows", "?z"),
        tp("?z", "likes", "?w"),
    ]

    def test_tp1_keeps_vp_table(self, selector):
        # TP1 (?x likes ?w): candidate SS likes|follows has SF 1, so VP wins.
        choice = selector.select(self.Q1[0], self.Q1)
        assert choice.source == "vp"
        assert choice.table_name == "vp_likes"

    def test_tp3_picks_best_selectivity(self, selector):
        # TP3 (?y follows ?z): candidates are SO follows|follows (0.75) and
        # OS follows|likes (0.25) -> the OS table wins.
        choice = selector.select(self.Q1[2], self.Q1)
        assert choice.source == "extvp"
        assert choice.selectivity == pytest.approx(0.25)
        assert "os" in choice.table_name

    def test_tp4_picks_so_table(self, selector):
        choice = selector.select(self.Q1[3], self.Q1)
        assert choice.source == "extvp"
        assert choice.selectivity == pytest.approx(1 / 3)

    def test_unbound_predicate_uses_triples_table(self, selector):
        pattern = tp("?s", "?p", "?o")
        choice = selector.select(pattern, [pattern])
        assert choice.is_triples_table

    def test_missing_predicate_is_statically_empty(self, selector):
        pattern = tp("?s", "missing", "?o")
        choice = selector.select(pattern, [pattern])
        assert choice.is_empty

    def test_empty_correlation_detected_from_statistics(self, selector):
        # likes -> follows OS correlation is empty in G1 (nobody follows an item).
        patterns = [tp("?a", "likes", "?b"), tp("?b", "follows", "?c")]
        choice = selector.select(patterns[0], patterns)
        assert choice.is_empty

    def test_vp_only_selector_ignores_extvp(self, layout):
        vp_selector = TableSelector(layout, use_extvp=False)
        choice = vp_selector.select(self.Q1[2], self.Q1)
        assert choice.source == "vp"

    def test_candidates_listing(self, selector):
        candidates = selector.candidates(self.Q1[2], self.Q1)
        kinds = {c.kind.value for c in candidates}
        assert kinds == {"so", "os"}


class TestTP2SQL:
    def test_two_variables(self, selector):
        pattern = tp("?x", "likes", "?w")
        choice = selector.select(pattern, [pattern])
        node = triple_pattern_to_subquery(pattern, choice)
        assert node.projections == (("s", "x"), ("o", "w"))
        assert node.conditions == ()

    def test_bound_subject_becomes_condition(self, selector):
        pattern = tp("A", "likes", "?w")
        choice = selector.select(pattern, [pattern])
        node = triple_pattern_to_subquery(pattern, choice)
        assert node.projections == (("o", "w"),)
        assert node.conditions == (("s", IRI("A")),)

    def test_unbound_predicate_adds_condition_on_p(self, selector):
        pattern = tp("?s", "?p", "?o")
        choice = selector.select(pattern, [pattern])
        node = triple_pattern_to_subquery(pattern, choice)
        assert ("p", "p") in node.projections
        assert node.table_name == "triples"

    def test_fully_bound_pattern(self, selector):
        pattern = tp("A", "likes", "I1")
        choice = selector.select(pattern, [pattern])
        node = triple_pattern_to_subquery(pattern, choice)
        assert node.conditions == (("s", IRI("A")), ("o", IRI("I1")))
        # No column: nothing to join on, nothing to show, only a row count.
        assert node.projections == () and node.output_columns() == ()


class TestBGP2SQL:
    def test_q1_produces_three_joins(self, selector, executor):
        result = compile_bgp(BGP(TestTableSelection.Q1), selector)
        assert count_joins(result.plan) == 3
        assert not result.statically_empty
        executed = executor.execute(result.plan)
        assert len(executed) == 1  # the single solution of the running example

    def test_empty_bgp(self, selector):
        result = compile_bgp(BGP([]), selector)
        assert isinstance(result.plan, EmptyNode)

    def test_single_pattern_is_a_subquery(self, selector):
        result = compile_bgp(BGP([tp("?x", "likes", "?w")]), selector)
        assert isinstance(result.plan, SubqueryNode)

    def test_statically_empty_short_circuit(self, selector):
        result = compile_bgp(BGP([tp("?a", "likes", "?b"), tp("?b", "follows", "?c")]), selector)
        assert result.statically_empty
        assert isinstance(result.plan, EmptyNode)

    def test_join_order_prefers_bound_patterns(self, selector):
        patterns = [tp("?x", "follows", "?y"), tp("A", "likes", "?w"), tp("?x", "likes", "?w")]
        result = compile_bgp(BGP(patterns), selector, optimize_join_order=True)
        assert result.join_order[0].bound_count() == 2

    def test_join_order_starts_with_smallest_table(self, selector):
        result = compile_bgp(BGP(TestTableSelection.Q1), selector, optimize_join_order=True)
        first_choice = result.choices[0][1]
        assert first_choice.row_count == min(choice.row_count for _, choice in result.choices)

    def test_unoptimized_preserves_textual_order(self, selector):
        result = compile_bgp(BGP(TestTableSelection.Q1), selector, optimize_join_order=False)
        assert result.join_order == list(TestTableSelection.Q1)

    def test_optimization_does_not_change_results(self, selector, executor):
        optimized = compile_bgp(BGP(TestTableSelection.Q1), selector, optimize_join_order=True)
        unoptimized = compile_bgp(BGP(TestTableSelection.Q1), selector, optimize_join_order=False)
        left = executor.execute(optimized.plan)
        right = executor.execute(unoptimized.plan)
        assert sorted(map(repr, left.project(sorted(left.columns)).rows)) == sorted(
            map(repr, right.project(sorted(left.columns)).rows)
        )

    def test_sql_rendering_mentions_selected_tables(self, selector):
        result = compile_bgp(BGP(TestTableSelection.Q1), selector)
        sql = result.plan.to_sql()
        for table in result.selected_tables:
            assert table in sql


def _reference_order(patterns, choices):
    """Algorithm 4 straight off the page, recomputing every pattern's variable
    set and bound count wherever the loop needs one — what ``_order_patterns``
    did before it computed them once per BGP.  Kept as the oracle."""
    names = lambda pattern: {v.name for v in pattern.variables()}  # noqa: E731
    remaining = list(range(len(patterns)))
    remaining.sort(key=lambda i: (-patterns[i].bound_count(), choices[i].row_count))
    ordered, seen = [], set()
    while remaining:
        best = None
        for index in remaining:
            if ordered and not (seen & names(patterns[index])):
                continue
            if best is None:
                best = index
            elif patterns[index].bound_count() > patterns[best].bound_count():
                best = index
            elif (
                patterns[index].bound_count() == patterns[best].bound_count()
                and choices[index].row_count < choices[best].row_count
            ):
                best = index
        if best is None:
            best = min(remaining, key=lambda i: choices[i].row_count)
        ordered.append(best)
        seen |= names(patterns[best])
        remaining.remove(best)
    return ordered


class TestJoinOrderOnWatDivBasic:
    """Precomputing per-pattern variable sets must not move a single join."""

    def test_same_order_and_same_plan_as_the_reference(self, small_dataset, monkeypatch):
        from repro.core import bgp as bgp_module
        from repro.core.session import S2RDFSession
        from repro.sparql.parser import parse_query
        from repro.watdiv.basic_queries import BASIC_TEMPLATES
        from repro.watdiv.template import instantiate_template

        session = S2RDFSession.from_graph(small_dataset.graph)
        texts = [instantiate_template(template, small_dataset) for template in BASIC_TEMPLATES]
        assert len(texts) == 20
        compiled = [session.compile(text) for text in texts]
        monkeypatch.setattr(bgp_module, "_order_patterns", _reference_order)
        # Past the session's plan cache, which would answer with ``compiled``.
        reference = [session.compiler.compile(parse_query(text)) for text in texts]
        session.close()
        multi_pattern = 0
        for new, old in zip(compiled, reference):
            assert new.plan == old.plan
            assert new.sql() == old.sql()
            assert new.selected_tables == old.selected_tables
            for new_bgp, old_bgp in zip(new.bgp_results, old.bgp_results):
                assert new_bgp.join_order == old_bgp.join_order
                multi_pattern += len(new_bgp.join_order) > 2
        assert multi_pattern >= 10  # the comparison is not vacuous


class TestCompiledQueryStaticallyEmpty:
    """Regression tests for CompiledQuery.statically_empty over multiple BGPs."""

    @pytest.fixture(scope="class")
    def compiler(self, layout):
        from repro.core.compiler import QueryCompiler

        return QueryCompiler(TableSelector(layout))

    @pytest.fixture(scope="class")
    def parse(self):
        from repro.sparql.parser import parse_query

        return parse_query

    def test_mixed_union_is_not_statically_empty(self, compiler, parse):
        # One UNION branch has a non-existing correlation, the other matches:
        # the query must not be pruned to empty.
        compiled = compiler.compile(
            parse(
                "SELECT * WHERE { { ?a <likes> ?b . ?b <likes> ?c } "
                "UNION { ?x <follows> ?y } }"
            )
        )
        assert len(compiled.bgp_results) == 2
        assert any(result.statically_empty for result in compiled.bgp_results)
        assert not compiled.statically_empty

    def test_union_of_two_empty_branches_is_statically_empty(self, compiler, parse):
        compiled = compiler.compile(
            parse(
                "SELECT * WHERE { { ?a <likes> ?b . ?b <likes> ?c } "
                "UNION { ?x <missing> ?y } }"
            )
        )
        assert all(result.statically_empty for result in compiled.bgp_results)
        assert compiled.statically_empty

    def test_no_bgps_is_not_statically_empty(self):
        from repro.core.compiler import CompiledQuery
        from repro.engine.ops import EmptyNode

        assert not CompiledQuery(plan=EmptyNode()).statically_empty
