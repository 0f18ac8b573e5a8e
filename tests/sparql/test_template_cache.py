"""The query front end's template cache (``repro.core.template_cache``).

The contract: ``session.parse`` / ``session.compile`` return exactly what
``parse_query`` and a fresh ``QueryCompiler`` return — ``Query``, plan, SQL,
per-BGP details, journal template — while running the grammar and the
compilation once per *template*: texts that differ only in the constants of
triple-pattern subject/object positions share one entry, texts that differ in
anything else do not.
"""

import sys
import threading

import pytest

from repro.core import template_cache
from repro.core.compiler import QueryCompiler
from repro.core.session import S2RDFSession
from repro.core.table_selection import TableSelector
from repro.obs.journal import fingerprint_text, template_text
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.sparql.parser import SparqlParseError, parse_query
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES

ALL_TEMPLATES = BASIC_TEMPLATES + INCREMENTAL_TEMPLATES + SELECTIVITY_TEMPLATES


def bag(result):
    return sorted(map(repr, result.relation.rows))


def assert_front_end_agrees(session, text):
    """Everything the cached front end hands out equals the uncached reference."""
    reference = parse_query(text)
    parsed = session.parse(text)
    assert parsed == reference
    assert parsed.text == text and parsed.prefixes == reference.prefixes
    assert session.template_of(parsed) == (
        template_text(reference),
        fingerprint_text(template_text(reference)),
    )
    expected = QueryCompiler(TableSelector(session.layout)).compile(reference)
    compiled = session.compile(parsed)
    assert compiled == expected  # the plan and every per-BGP choice, pattern and subplan
    assert compiled.sql() == expected.sql()
    assert compiled.selected_tables == expected.selected_tables
    assert compiled.statically_empty == expected.statically_empty
    return parsed, compiled


# --------------------------------------------------------------------------- #
# The WatDiv corpus
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def corpus_session(small_dataset):
    with S2RDFSession.from_graph(small_dataset.graph) as session:
        yield session


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda template: template.name)
def test_a_template_is_parsed_and_compiled_once(
    corpus_session, small_dataset, instantiations, cache_counters, template
):
    session = corpus_session
    first, second, third = instantiations(template)
    before = cache_counters(session)
    assert_front_end_agrees(session, first)
    # assert_front_end_agrees parses once and compiles once.
    assert cache_counters(session, before) == (0, 1, 0, 1)
    for text in (second, third):
        before = cache_counters(session)
        assert_front_end_agrees(session, text)
        assert cache_counters(session, before) == (1, 0, 1, 0), template.name
    fresh = S2RDFSession.from_graph(small_dataset.graph)
    with fresh:
        assert fresh.explain(third) == session.explain(third)
        assert bag(fresh.query(third)) == bag(session.query(third))


def test_query_results_carry_the_uncached_sql_and_tables(corpus_session, instantiations):
    template = next(t for t in BASIC_TEMPLATES if t.is_parameterized())
    texts = instantiations(template)
    for text in texts:
        result = corpus_session.query(text)
        expected = QueryCompiler(TableSelector(corpus_session.layout)).compile(parse_query(text))
        assert result.sql == expected.sql()
        assert result.selected_tables == expected.selected_tables
        assert result.statically_empty == expected.statically_empty


# --------------------------------------------------------------------------- #
# Adversarial pairs on the paper's running example
# --------------------------------------------------------------------------- #
@pytest.fixture
def session(example_graph):
    with S2RDFSession.from_graph(example_graph) as session:
        yield session


def run_pair(session, example_graph, cache_counters, first, second):
    """Run both texts on one session; returns what the second one hit.

    Both must agree with the uncached front end and answer like a session
    that never saw the other text.
    """
    assert_front_end_agrees(session, first)
    session.query(first)
    before = cache_counters(session)
    assert_front_end_agrees(session, second)
    hits = cache_counters(session, before)
    for text in (first, second):
        with S2RDFSession.from_graph(example_graph) as fresh:
            assert bag(session.query(text)) == bag(fresh.query(text)), text
    return hits


SHARED = (1, 0, 1, 0)
NOT_SHARED = (0, 1, 0, 1)

PAIRS = {
    "other constants": (
        "SELECT * WHERE { <A> <follows> ?x . ?x <likes> <I2> }",
        "SELECT * WHERE { <B> <follows> ?x . ?x <likes> <I1> }",
        SHARED,
    ),
    "predicate constant differs": (
        "SELECT * WHERE { <A> <follows> ?x }",
        "SELECT * WHERE { <A> <likes> ?x }",
        NOT_SHARED,
    ),
    "a versus an explicit rdf:type": (
        "SELECT * WHERE { ?x a <T> }",
        "SELECT * WHERE { ?x rdf:type <T> }",
        NOT_SHARED,
    ),
    "a literal where the template saw an IRI": (
        "SELECT * WHERE { ?x <likes> <I2> }",
        'SELECT * WHERE { ?x <likes> "I2" }',
        NOT_SHARED,
    ),
    "a pname where the template saw an IRI": (
        "SELECT * WHERE { ?x <likes> <I2> }",
        "SELECT * WHERE { ?x <likes> wsdbm:I2 }",
        NOT_SHARED,
    ),
    "one constant in two slots, after two constants": (
        "SELECT * WHERE { <A> <follows> ?x . <C> <likes> ?y }",
        "SELECT * WHERE { <A> <follows> ?x . <A> <likes> ?y }",
        SHARED,
    ),
    "two constants, after one constant in two slots": (
        "SELECT * WHERE { <A> <follows> ?x . <A> <likes> ?y }",
        "SELECT * WHERE { <B> <follows> ?x . <C> <likes> ?y }",
        SHARED,
    ),
    "predicate list sharing a subject slot": (
        "SELECT * WHERE { <A> <follows> ?x ; <likes> ?y }",
        "SELECT * WHERE { <C> <follows> ?x ; <likes> ?y }",
        SHARED,
    ),
    "object list of slots": (
        "SELECT * WHERE { ?x <likes> <I1> , <I2> }",
        "SELECT * WHERE { ?x <likes> <I2> , <I2> }",
        SHARED,
    ),
    "FILTER constant differs": (
        "SELECT * WHERE { ?x <follows> ?y . FILTER(?y != <D>) }",
        "SELECT * WHERE { ?x <follows> ?y . FILTER(?y != <C>) }",
        NOT_SHARED,
    ),
    "slot next to a FILTER": (
        "SELECT * WHERE { <B> <follows> ?y . FILTER(?y != <D>) }",
        "SELECT * WHERE { <A> <follows> ?y . FILTER(?y != <D>) }",
        SHARED,
    ),
    "LIMIT differs": (
        "SELECT * WHERE { ?x <follows> ?y } ORDER BY ?x ?y LIMIT 1",
        "SELECT * WHERE { ?x <follows> ?y } ORDER BY ?x ?y LIMIT 3",
        NOT_SHARED,
    ),
    "renamed variables": (
        "SELECT * WHERE { <A> <follows> ?x }",
        "SELECT * WHERE { <A> <follows> ?other }",
        NOT_SHARED,
    ),
    "another binding for the same prefix": (
        "PREFIX ex: <> SELECT * WHERE { ?x <follows> ex:B }",
        "PREFIX ex: <http://elsewhere/> SELECT * WHERE { ?x <follows> ex:B }",
        NOT_SHARED,
    ),
    "the same binding for the same prefix": (
        "PREFIX ex: <> SELECT * WHERE { ?x <follows> ex:B }",
        "PREFIX ex: <> SELECT * WHERE { ?x <follows> ex:D }",
        SHARED,
    ),
    "statically empty template": (
        "SELECT * WHERE { <A> <likes> ?x . ?x <likes> ?y }",
        "SELECT * WHERE { <C> <likes> ?x . ?x <likes> ?y }",
        SHARED,
    ),
    "slots under OPTIONAL and UNION": (
        "SELECT * WHERE { { <A> <follows> ?x } UNION { <C> <likes> ?x } OPTIONAL { ?x <likes> <I2> } }",
        "SELECT * WHERE { { <B> <follows> ?x } UNION { <A> <likes> ?x } OPTIONAL { ?x <likes> <I1> } }",
        SHARED,
    ),
    "whitespace and comments are not in the key": (
        "SELECT * WHERE { <A> <follows> ?x }",
        "SELECT *\n# the same template\nWHERE {\n  <B>   <follows> ?x .\n}",
        NOT_SHARED,  # the trailing dot is a token
    ),
    "only whitespace and comments differ": (
        "SELECT * WHERE { <A> <follows> ?x . }",
        "SELECT *\n# the same template\nWHERE {\n  <B>   <follows> ?x .\n}",
        SHARED,
    ),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_adversarial_pair(session, example_graph, cache_counters, name):
    first, second, expected = PAIRS[name]
    assert run_pair(session, example_graph, cache_counters, first, second) == expected


def test_renamed_variables_still_fingerprint_alike(session):
    one = session.parse("SELECT * WHERE { <A> <follows> ?x }")
    other = session.parse("SELECT * WHERE { <B> <follows> ?renamed }")
    assert session.template_of(one) == session.template_of(other)


def test_statically_empty_hit_keeps_its_columns_and_flag(session):
    session.query("SELECT * WHERE { <A> <likes> ?x . ?x <likes> ?y }")
    result = session.query("SELECT * WHERE { <C> <likes> ?x . ?x <likes> ?y }")
    assert result.statically_empty and len(result) == 0
    assert sorted(result.relation.columns) == ["x", "y"]


def test_iri_versus_less_than_ambiguity_is_the_tokenizers_in_both_front_ends(session):
    # ``<?y&&?z>`` lexes as one IRI token, not as ``< ?y && ?z >``.
    text = "SELECT * WHERE { ?x <follows> ?y . ?y <follows> ?z . ?z <likes> ?w . FILTER(?x <?y&&?z> ?w) }"
    with pytest.raises(SparqlParseError) as reference:
        parse_query(text)
    for _ in range(2):
        with pytest.raises(SparqlParseError) as cached:
            session.parse(text)
        assert str(cached.value) == str(reference.value)
    spaced = text.replace("<?y&&?z>", "< ?y && ?z >")
    assert_front_end_agrees(session, spaced)
    assert session.parse(spaced) == parse_query(spaced)


# --------------------------------------------------------------------------- #
# Irregular slot tokens on the hit path: the full parser's error, unchanged
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "bad",
    ["nope:B", '"B"^^nope:int', '"B"^^<>'],
    ids=["undeclared prefix", "undeclared datatype prefix", "malformed literal"],
)
def test_an_irregular_constant_gets_the_full_parsers_error(session, cache_counters, bad):
    template = "SELECT *\nWHERE { ?x <follows> %s }"
    # Prime one template per slot kind, so the bad texts find a cached entry.
    for good in ("wsdbm:B", '"B"^^xsd:int', '"B"^^<http://t>'):
        session.parse(template % good)
    with pytest.raises(SparqlParseError) as reference:
        parse_query(template % bad)
    before = cache_counters(session)
    with pytest.raises(SparqlParseError) as cached:
        session.parse(template % bad)
    error, expected = cached.value, reference.value
    assert str(error) == str(expected)
    assert (error.line, error.column, error.token) == (2, 22, bad)
    assert (expected.line, expected.column, expected.token) == (2, 22, bad)
    assert cache_counters(session, before)[0] == 0  # not a hit
    # The cached template is intact.
    assert_front_end_agrees(session, template % "wsdbm:D")


# --------------------------------------------------------------------------- #
# Only what the session parsed goes through the cache
# --------------------------------------------------------------------------- #
def test_a_query_object_takes_the_uncached_path(session, cache_counters):
    text = "SELECT * WHERE { <A> <follows> ?x }"
    session.query(text)
    before = cache_counters(session)
    handed = parse_query(text.replace("<A>", "<B>"))
    assert handed.template_binding is None
    result = session.query(handed)
    assert cache_counters(session, before) == (0, 0, 0, 0)
    assert bag(result) == ["(IRI(value='C'),)", "(IRI(value='D'),)"]
    assert "not cached" in str(session.explain_analyze(handed))


def test_a_query_edited_after_parsing_is_compiled_as_edited(session, cache_counters):
    text = "SELECT * WHERE { ?x <follows> ?y } ORDER BY ?x ?y"
    assert len(session.query(text)) == 4
    parsed = session.parse(text)
    parsed.limit = 1
    before = cache_counters(session)
    assert len(session.query(parsed)) == 1
    assert cache_counters(session, before) == (0, 0, 0, 0)
    assert session.template_of(parsed) == (
        template_text(parsed),
        fingerprint_text(template_text(parsed)),
    )
    # The cached entry never saw the edit.
    assert len(session.query(text)) == 4


def test_a_handed_out_query_is_the_callers_to_change(session):
    text = "SELECT * WHERE { <A> <follows> ?x }"
    for _ in range(2):  # a miss, then a hit
        parsed = session.parse(text)
        parsed.prefixes["mine"] = "http://mine/"
        parsed.select_variables = ()
    assert session.parse(text) == parse_query(text)


def test_parse_query_is_uncached(monkeypatch):
    import repro.sparql.parser as parser_module

    runs = []
    real = parser_module._Parser.parse
    monkeypatch.setattr(
        parser_module._Parser, "parse", lambda self: runs.append(self.text) or real(self)
    )
    text = "SELECT * WHERE { <A> <follows> ?x }"
    assert parse_query(text) == parse_query(text)
    assert runs == [text, text]


# --------------------------------------------------------------------------- #
# Bounds and concurrent readers
# --------------------------------------------------------------------------- #
def test_both_tables_are_bounded(session, cache_counters, monkeypatch):
    monkeypatch.setattr(template_cache, "MAX_TEMPLATES", 4)
    cache = session._templates
    for index in range(11):
        text = f"SELECT * WHERE {{ <A> <follows> ?v{index} }}"
        assert_front_end_agrees(session, text)
        assert len(cache) <= 4 and cache.plan_count() <= 4
        assert len(cache._slots) <= 4
    # Overflow cleared the tables (11 templates through a bound of 4) ...
    assert len(cache) == 3 and cache.plan_count() == 3
    # ... and a template met again is simply parsed and compiled again.
    before = cache_counters(session)
    assert_front_end_agrees(session, "SELECT * WHERE { <B> <follows> ?v0 }")
    assert cache_counters(session, before) == NOT_SHARED


def test_concurrent_readers_get_the_uncached_answers(example_graph, monkeypatch):
    """More threads than cores, a short switch interval and a bound small
    enough that the tables are cleared under the readers' feet: every answer
    must still be the uncached one."""
    monkeypatch.setattr(template_cache, "MAX_TEMPLATES", 3)
    subjects = ("A", "B", "C")
    shapes = (
        "SELECT * WHERE {{ <{s}> <follows> ?x }}",
        "SELECT * WHERE {{ <{s}> <follows> ?x . ?x <likes> ?w }}",
        "SELECT ?x WHERE {{ <{s}> <likes> ?x }}",
        "SELECT * WHERE {{ ?y <follows> <{s}> }}",
        "SELECT DISTINCT ?x WHERE {{ <{s}> <follows> ?x ; <likes> ?w }}",
    )
    texts = [shape.format(s=subject) for shape in shapes for subject in subjects]
    failures = []
    with S2RDFSession.from_graph(example_graph, journal_enabled=False) as session:
        compiler = QueryCompiler(TableSelector(session.layout))
        expected = {}
        for text in texts:
            reference = parse_query(text)
            with S2RDFSession.from_graph(example_graph, journal_enabled=False) as fresh:
                expected[text] = (reference, compiler.compile(reference), bag(fresh.query(text)))

        def reader(offset: int) -> None:
            try:
                for step in range(120):
                    text = texts[(offset + step * 7) % len(texts)]
                    reference, compiled, rows = expected[text]
                    parsed = session.parse(text)
                    assert parsed == reference, text
                    assert session.compile(parsed) == compiled, text
                    if step % 10 == 0:
                        assert bag(session.query(text)) == rows, text
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert len(session._templates) <= 3 and session._templates.plan_count() <= 3


# --------------------------------------------------------------------------- #
# A tiny hand graph for the rdf:type pair above
# --------------------------------------------------------------------------- #
def test_a_and_rdf_type_answer_alike():
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    graph = Graph([Triple.of("x1", rdf_type, "T"), Triple.of("x2", rdf_type, "U")])
    with S2RDFSession.from_graph(graph) as session:
        keyword = session.query("SELECT * WHERE { ?x a <T> }")
        spelled = session.query("SELECT * WHERE { ?x rdf:type <T> }")
        other = session.query("SELECT * WHERE { ?x a <U> }")
    assert bag(keyword) == bag(spelled) == ["(IRI(value='x1'),)"]
    assert bag(other) == ["(IRI(value='x2'),)"]
