"""Unit tests for the SPARQL tokenizer and parser."""

import pytest

from repro.rdf.namespaces import WATDIV_NAMESPACES
from repro.rdf.terms import IRI, Literal, Variable, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.algebra import BGP, Filter, LeftJoin, Union
from repro.sparql.parser import SparqlParseError, parse_query
from repro.sparql.tokenizer import TokenizeError, tokenize


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT ?x WHERE { ?x <p> ?y }")
        kinds = [t.kind for t in tokens]
        assert kinds == ["KEYWORD", "VAR", "KEYWORD", "LBRACE", "VAR", "IRI", "VAR", "RBRACE"]

    def test_keywords_lowercased(self):
        tokens = tokenize("SELECT")
        assert tokens[0].value == "select"

    def test_prefixed_name(self):
        tokens = tokenize("wsdbm:User0")
        assert tokens[0].kind == "PNAME"

    def test_comments_skipped(self):
        tokens = tokenize("?x # comment here\n?y")
        assert [t.value for t in tokens] == ["?x", "?y"]

    def test_string_with_datatype(self):
        tokens = tokenize('"5"^^<http://www.w3.org/2001/XMLSchema#integer>')
        assert tokens[0].kind == "STRING"

    def test_comparison_operators(self):
        kinds = [t.kind for t in tokenize("?x >= 5 && ?y != 3")]
        assert "GE" in kinds and "ANDAND" in kinds and "NEQ" in kinds

    def test_unexpected_character(self):
        with pytest.raises(TokenizeError):
            tokenize("SELECT ?x WHERE § { }")

    def test_a_comment_runs_to_the_end_of_its_line(self):
        # Nothing inside a comment is a token, even when no token follows it.
        assert [t.value for t in tokenize("?x # not ?these tokens")] == ["?x"]
        assert [t.value for t in tokenize("# only\n# comments\n")] == []
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("?x # fine\n  § ?y")
        assert excinfo.value.position == 12

    def test_token_positions_skip_whitespace_and_comments(self):
        text = "  ?x # c\n\t<p>  ex:a.b ."
        assert [(t.value, text[t.position :][: len(t.value)]) for t in tokenize(text)] == [
            (value, value) for value in ("?x", "<p>", "ex:a.b", ".")
        ]

    def test_the_dot_that_ends_a_triple_is_not_part_of_the_name(self):
        # PN_LOCAL may contain dots but not end in one; the same goes for the
        # prefixed datatype of a literal and for a number.
        assert [t.value for t in tokenize("wsdbm:User1.")] == ["wsdbm:User1", "."]
        assert [t.value for t in tokenize("ex:a.b ex:a.b.")] == ["ex:a.b", "ex:a.b", "."]
        assert [t.value for t in tokenize('"5"^^xsd:integer.')] == ['"5"^^xsd:integer', "."]
        assert [t.value for t in tokenize("5. 5.5. .5 5.e3")] == ["5", ".", "5.5", ".", ".5", "5.e3"]


class TestBasicParsing:
    def test_select_star_single_pattern(self):
        query = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert isinstance(query.pattern, BGP)
        assert len(query.pattern) == 1
        assert query.select_variables == ()

    def test_select_specific_variables(self):
        query = parse_query("SELECT ?s ?o WHERE { ?s <p> ?o }")
        assert [v.name for v in query.select_variables] == ["s", "o"]

    def test_multiple_patterns(self, query_q1):
        query = parse_query(query_q1)
        assert len(query.pattern) == 4

    def test_prefixed_names_expanded(self):
        query = parse_query("SELECT * WHERE { ?x wsdbm:likes wsdbm:Product0 }")
        pattern = query.pattern.patterns[0]
        assert pattern.predicate == IRI(WATDIV_NAMESPACES["wsdbm"] + "likes")
        assert pattern.object == IRI(WATDIV_NAMESPACES["wsdbm"] + "Product0")

    def test_explicit_prefix_declaration(self):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT * WHERE { ?x ex:knows ?y }"
        )
        assert query.pattern.patterns[0].predicate == IRI("http://example.org/knows")

    def test_a_keyword_is_rdf_type(self):
        query = parse_query("SELECT * WHERE { ?x a wsdbm:Role2 }")
        assert query.pattern.patterns[0].predicate == IRI(WATDIV_NAMESPACES["rdf"] + "type")

    def test_predicate_object_list(self):
        query = parse_query("SELECT * WHERE { ?x <p> ?a ; <q> ?b , ?c . }")
        patterns = query.pattern.patterns
        assert len(patterns) == 3
        assert all(p.subject == Variable("x") for p in patterns)

    def test_numeric_literal_object(self):
        query = parse_query("SELECT * WHERE { ?x <age> 42 }")
        assert isinstance(query.pattern.patterns[0].object, Literal)

    def test_string_literal_object(self):
        query = parse_query('SELECT * WHERE { ?x <name> "Ada" }')
        assert query.pattern.patterns[0].object == Literal("Ada")

    def test_undeclared_prefix_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT * WHERE { ?x nope:p ?y }")

    def test_non_select_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query("ASK { ?s ?p ?o }")

    def test_missing_brace_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT * WHERE { ?s ?p ?o ")

    def test_empty_select_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT WHERE { ?s ?p ?o }")

    def test_query_text_preserved(self, query_q1):
        assert parse_query(query_q1).text == query_q1


class TestAggregates:
    def test_grouped_count(self):
        query = parse_query(
            "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <p> ?y } GROUP BY ?x"
        )
        assert query.group_by == (Variable("x"),)
        binding = query.aggregates[0]
        assert binding.function == "count"
        assert binding.variable == Variable("y")
        assert binding.alias == Variable("n")
        assert not binding.distinct

    def test_count_star_and_distinct(self):
        query = parse_query(
            "SELECT (COUNT(*) AS ?all) (COUNT(DISTINCT ?y) AS ?uniq) WHERE { ?x <p> ?y }"
        )
        star, uniq = query.aggregates
        assert star.variable is None and not star.distinct
        assert uniq.variable == Variable("y") and uniq.distinct
        assert query.group_by == ()  # implicit single group

    def test_every_function_parses(self):
        for function in ("SUM", "AVG", "MIN", "MAX"):
            query = parse_query(
                f"SELECT ({function}(?y) AS ?a) WHERE {{ ?x <p> ?y }}"
            )
            assert query.aggregates[0].function == function.lower()

    def test_ungrouped_bare_variable_rejected(self):
        with pytest.raises(SparqlParseError, match="GROUP BY"):
            parse_query("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <p> ?y }")

    def test_star_with_aggregates_rejected(self):
        with pytest.raises(SparqlParseError, match=r"SELECT \*"):
            parse_query("SELECT * WHERE { ?x <p> ?y } GROUP BY ?x")

    def test_star_argument_only_for_count(self):
        with pytest.raises(SparqlParseError, match="COUNT"):
            parse_query("SELECT (SUM(*) AS ?s) WHERE { ?x <p> ?y }")


class TestErrorPositions:
    """Parse errors carry the 1-based source position and offending token."""

    def test_offending_token_and_position(self):
        text = "SELECT * WHERE { ?s ?p ?o } BOGUS"
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query(text)
        error = excinfo.value
        assert error.token == "BOGUS"
        assert error.line == 1
        assert error.column == text.index("BOGUS") + 1

    def test_multiline_position(self):
        text = "SELECT *\nWHERE {\n  ?s ?p ?o .\n  OPTIONAL ?x\n}"
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query(text)
        error = excinfo.value
        assert error.line == 4
        assert error.column == text.splitlines()[3].index("?x") + 1
        assert error.token == "?x"

    def test_message_carries_position_suffix(self):
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query("SELECT * WHERE { ?s ?p ?o } BOGUS")
        assert str(excinfo.value).endswith("(line 1, column 29)")

    def test_end_of_input_has_position_but_no_token(self):
        text = "SELECT * WHERE { ?s ?p ?o "
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query(text)
        error = excinfo.value
        assert error.token is None
        assert error.line == 1
        assert error.column == len(text) + 1

    def test_tokenizer_error_is_positioned(self):
        text = "SELECT *\nWHERE { ^ }"
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query(text)
        error = excinfo.value
        assert error.line == 2
        assert error.column == text.splitlines()[1].index("^") + 1

    def test_grouping_violation_is_positioned(self):
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query("SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x ?p ?y }")
        error = excinfo.value
        assert "GROUP BY" in str(error)
        assert error.line is not None and error.column is not None


class TestSolutionModifiers:
    def test_distinct(self):
        assert parse_query("SELECT DISTINCT ?x WHERE { ?x ?p ?o }").distinct

    def test_limit_and_offset(self):
        query = parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 10 OFFSET 5")
        assert query.limit == 10
        assert query.offset == 5

    def test_order_by_variable(self):
        query = parse_query("SELECT ?x WHERE { ?x ?p ?o } ORDER BY ?x")
        assert len(query.order_by) == 1
        assert query.order_by[0].ascending

    def test_order_by_desc(self):
        query = parse_query("SELECT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x)")
        assert not query.order_by[0].ascending

    @pytest.mark.parametrize("clause", ["LIMIT", "OFFSET"])
    @pytest.mark.parametrize("count", ["1.5", "-1", "+1", "2.e3"])
    def test_limit_and_offset_take_a_plain_integer(self, clause, count):
        # Neither a bare ValueError nor Python's slice arithmetic on negatives.
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query(f"SELECT ?x WHERE {{ ?x ?p ?o }}\n{clause} {count}")
        error = excinfo.value
        assert f"{clause} requires a non-negative integer" in str(error)
        assert (error.line, error.column, error.token) == (2, len(clause) + 2, count)

    @pytest.mark.parametrize("tail", ["ORDER BY", "ORDER BY LIMIT 3"])
    def test_order_by_needs_a_condition(self, tail):
        with pytest.raises(SparqlParseError, match="ORDER BY requires at least one condition"):
            parse_query("SELECT ?x WHERE { ?x ?p ?o } " + tail)


class TestTripleTerminator:
    def test_a_prefixed_name_does_not_swallow_the_dot(self):
        spaced = parse_query("SELECT * WHERE { ?x wsdbm:follows wsdbm:User1 . }")
        tight = parse_query("SELECT * WHERE { ?x wsdbm:follows wsdbm:User1. }")
        assert tight.pattern == spaced.pattern
        assert tight.pattern.patterns[0].object == IRI(WATDIV_NAMESPACES["wsdbm"] + "User1")

    def test_a_number_or_typed_literal_does_not_swallow_the_dot(self):
        for constant in ("5", '"5"^^xsd:integer'):
            spaced = parse_query(f"SELECT * WHERE {{ ?x <p> {constant} . ?x <q> ?y }}")
            tight = parse_query(f"SELECT * WHERE {{ ?x <p> {constant}. ?x <q> ?y }}")
            assert tight.pattern == spaced.pattern
            assert len(tight.pattern.patterns) == 2

    def test_both_spellings_find_the_row(self, small_dataset):
        from repro.core.session import S2RDFSession

        triple = next(
            t for t in small_dataset.graph if t.predicate.value.endswith("wsdbm/follows")
        )
        user = "wsdbm:" + triple.object.value.rsplit("/", 1)[1]
        with S2RDFSession.from_graph(small_dataset.graph) as session:
            spaced = session.query(f"SELECT * WHERE {{ ?x wsdbm:follows {user} . }}")
            tight = session.query(f"SELECT * WHERE {{ ?x wsdbm:follows {user}. }}")
        assert len(spaced) >= 1
        assert sorted(map(repr, tight.relation.rows)) == sorted(map(repr, spaced.relation.rows))

    def test_malformed_literal_is_a_positioned_parse_error(self):
        with pytest.raises(SparqlParseError) as excinfo:
            parse_query('SELECT * WHERE { ?x <p> "5"^^<> }')
        assert "malformed literal" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, 25)


class TestNumerals:
    """SPARQL's INTEGER, DECIMAL and DOUBLE: an exponent makes a double."""

    @pytest.mark.parametrize("numeral", ["1e3", "1E-3", "+1.5e3", "-.5e2", "1.e5", "1.5e+3"])
    def test_an_exponent_is_part_of_the_number(self, numeral):
        assert [(t.kind, t.value) for t in tokenize(numeral)] == [("NUMBER", numeral)]

    def test_what_is_not_an_exponent_stays_outside(self):
        assert [(t.kind, t.value) for t in tokenize("1e3. 1e .5e")] == [
            ("NUMBER", "1e3"),
            ("DOT", "."),
            ("NUMBER", "1"),
            ("NAME", "e"),
            ("NUMBER", ".5"),
            ("NAME", "e"),
        ]

    @pytest.mark.parametrize(
        "numeral, datatype",
        [
            ("42", XSD_INTEGER),
            ("-7", XSD_INTEGER),
            ("4.5", XSD_DECIMAL),
            (".5", XSD_DECIMAL),
            ("1e3", XSD_DOUBLE),
            ("1.5e3", XSD_DOUBLE),
            ("1.e5", XSD_DOUBLE),
            (".5E-2", XSD_DOUBLE),
        ],
    )
    def test_parse_query_types_the_numeral(self, numeral, datatype):
        query = parse_query(f"SELECT * WHERE {{ ?x <p> {numeral} }}")
        assert query.pattern.patterns[0].object == Literal(numeral, datatype=datatype)

    def test_a_session_matches_a_stored_double(self):
        from repro.core.session import S2RDFSession
        from repro.rdf.graph import Graph
        from repro.rdf.triple import Triple

        graph = Graph(
            [
                Triple(IRI("x"), IRI("p"), Literal("1.5e3", datatype=XSD_DOUBLE)),
                # What a numeral with an exponent used to be typed as.
                Triple(IRI("y"), IRI("p"), Literal("1.5e3", datatype=XSD_DECIMAL)),
            ]
        )
        with S2RDFSession.from_graph(graph) as session:
            result = session.query("SELECT ?s WHERE { ?s <p> 1.5e3 }")
        assert sorted(map(repr, result.relation.rows)) == ["(IRI(value='x'),)"]


class TestComplexPatterns:
    def test_filter(self):
        query = parse_query("SELECT * WHERE { ?x <age> ?a . FILTER(?a > 18) }")
        assert isinstance(query.pattern, Filter)

    def test_optional(self):
        query = parse_query("SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <q> ?z } }")
        assert isinstance(query.pattern, LeftJoin)

    def test_union(self):
        query = parse_query("SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }")
        assert isinstance(query.pattern, Union)

    def test_filter_with_boolean_connectives(self):
        query = parse_query("SELECT * WHERE { ?x <age> ?a . FILTER(?a > 18 && ?a < 65) }")
        assert isinstance(query.pattern, Filter)

    def test_nested_group(self):
        query = parse_query("SELECT * WHERE { { ?x <p> ?y . ?y <q> ?z } }")
        assert len(query.pattern.patterns) == 2

    def test_variables_collected(self, query_q1):
        names = {v.name for v in parse_query(query_q1).variables()}
        assert names == {"x", "y", "z", "w"}


class TestWorkloadQueriesParse:
    def test_all_basic_templates_parse(self, small_dataset):
        from repro.watdiv.basic_queries import BASIC_TEMPLATES
        from repro.watdiv.template import instantiate_template

        for template in BASIC_TEMPLATES:
            query = parse_query(instantiate_template(template, small_dataset))
            assert len(query.pattern.patterns) >= 2

    def test_all_selectivity_templates_parse(self, small_dataset):
        from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES
        from repro.watdiv.template import instantiate_template

        for template in SELECTIVITY_TEMPLATES:
            query = parse_query(instantiate_template(template, small_dataset))
            assert len(query.pattern.patterns) >= 2

    def test_all_incremental_templates_parse(self, small_dataset):
        from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
        from repro.watdiv.template import instantiate_template

        for template in INCREMENTAL_TEMPLATES:
            query = parse_query(instantiate_template(template, small_dataset))
            expected = int(template.name.rsplit("-", 1)[1])
            assert len(query.pattern.patterns) == expected
