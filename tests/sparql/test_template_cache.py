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
from collections import Counter

import pytest

from repro.core import template_cache
from repro.core.compiler import QueryCompiler
from repro.core.session import S2RDFSession
from repro.core.table_selection import TableSelector
from repro.engine.estimates import UNKNOWN_ROWS, estimate_rows
from repro.obs.journal import QueryJournal, fingerprint_text, template_text
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.sparql.parser import SparqlParseError, parse_query
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES

ALL_TEMPLATES = BASIC_TEMPLATES + INCREMENTAL_TEMPLATES + SELECTIVITY_TEMPLATES


def bag(result):
    return sorted(map(repr, result.relation.rows))


def capture_journal(session):
    """``local.record``: the journal record the calling thread's last query wrote."""
    local = threading.local()
    append = session.journal.append

    def capturing(record):
        local.record = record
        append(record)

    session.journal.append = capturing
    return local


def uncached_estimate(session, text):
    """Uncached plan of ``text`` over the session's statistics as they are now,
    with its root estimate and the journal's form of it."""
    compiled = QueryCompiler(TableSelector(session.layout)).compile(parse_query(text))
    rows = estimate_rows(compiled.plan, session.layout.catalog)
    return compiled, rows, None if rows == UNKNOWN_ROWS else rows


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
    "keyword case is in the key": (
        "SELECT * WHERE { <A> <follows> ?x }",
        "select * where { <B> <follows> ?x }",
        NOT_SHARED,
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


def test_slots_of_other_kinds_keep_their_own_templates(session, cache_counters):
    texts = {
        "IRI": "SELECT * WHERE {{ ?x <likes> <{}> }}",
        "PNAME": "SELECT * WHERE {{ ?x <likes> wsdbm:{} }}",
        "STRING": 'SELECT * WHERE {{ ?x <likes> "{}" }}',
        "NUMBER": "SELECT * WHERE {{ ?x <likes> 1{} }}",
    }
    for text in texts.values():
        session.parse(text.format(0))
    assert len(session._templates) == len(texts)
    before = cache_counters(session)
    for constant in (1, 2):
        for text in texts.values():  # interleaved: no kind evicts another
            assert_front_end_agrees(session, text.format(constant))
    assert cache_counters(session, before)[:2] == (8, 0)


def test_a_template_met_in_another_shape_keeps_its_plan(session, cache_counters):
    # The shape is the spellings' first characters: another prefix is another
    # shape, parsed once more but answered by the cached template and plan.
    first = "SELECT * WHERE { ?x <follows> wsdbm:B }"
    assert_front_end_agrees(session, first)
    before = cache_counters(session)
    assert_front_end_agrees(session, "PREFIX ex: <> SELECT * WHERE { ?x <follows> ex:B }")
    assert cache_counters(session, before) == NOT_SHARED  # another prologue
    before = cache_counters(session)
    assert_front_end_agrees(session, "SELECT * WHERE { ?x <follows> sorg:D }")
    assert_front_end_agrees(session, "SELECT * WHERE { ?x <follows> sorg:C }")
    assert_front_end_agrees(session, "SELECT * WHERE { ?x <follows> wsdbm:C }")
    assert cache_counters(session, before) == (2, 1, 3, 0)
    assert len(session._templates) == 2 and session._templates.plan_count() == 2


def test_a_number_slot_takes_each_numeral_type(session, cache_counters):
    from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, Literal

    template = "SELECT * WHERE {{ ?x <age> {} }}"
    session.parse(template.format("42"))
    before = cache_counters(session)
    decimal = assert_front_end_agrees(session, template.format("1.5"))[0]
    double = assert_front_end_agrees(session, template.format("1e3"))[0]
    assert cache_counters(session, before)[0] == 2
    assert decimal.pattern.patterns[0].object == Literal("1.5", datatype=XSD_DECIMAL)
    assert double.pattern.patterns[0].object == Literal("1e3", datatype=XSD_DOUBLE)


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
def skeletons(cache):
    """The SQL skeletons the cache holds: one with each plan entry, over its plan."""
    entries = list(cache._plans.values())
    assert all(entry.sql.plan is entry.compiled.plan for entry in entries)
    return [entry.sql for entry in entries]


def test_both_tables_are_bounded(session, cache_counters, monkeypatch):
    monkeypatch.setattr(template_cache, "MAX_TEMPLATES", 4)
    cache = session._templates
    for index in range(11):
        text = f"SELECT * WHERE {{ <A> <follows> ?v{index} }}"
        _, compiled = assert_front_end_agrees(session, text)
        assert session.query(text.replace("<A>", "<B>")).sql == compiled.sql().replace("<A>", "<B>")
        assert len(cache) <= 4 and cache.plan_count() <= 4
        assert len(cache._slots) <= 4 and len(skeletons(cache)) == cache.plan_count()
    # Overflow cleared the tables (11 templates through a bound of 4) ...
    assert len(cache) == 3 and cache.plan_count() == 3
    # ... and a template met again is simply parsed and compiled again.
    before = cache_counters(session)
    assert_front_end_agrees(session, "SELECT * WHERE { <B> <follows> ?v0 }")
    assert cache_counters(session, before) == NOT_SHARED
    # A store change drops every skeleton with its plan; the next query
    # renders from a skeleton of the plan compiled anew.
    held = skeletons(cache)
    cache.invalidate_plans()
    assert skeletons(cache) == []
    for index in (0, 8, 9, 10):
        text = f"SELECT * WHERE {{ <C> <follows> ?v{index} }}"
        assert session.query(text).sql == uncached_estimate(session, text)[0].sql()
    assert len(cache) == 4 and cache.plan_count() == 4
    assert not any(new is old for new in skeletons(cache) for old in held)
    session.parse("SELECT * WHERE { <A> <likes> ?w }")
    assert len(cache) == 1 and cache.plan_count() == 0 and skeletons(cache) == []


def test_concurrent_readers_get_the_uncached_answers(example_graph, monkeypatch):
    """More threads than cores, a short switch interval, a bound small enough
    that the tables are cleared under the readers' feet, and a thread that
    flips one table's statistics between two states: every plan, root
    estimate and journal estimate must be the uncached one of the
    statistics generation the reader ran at.

    The flipper is driven by the readers' progress, not by the clock.  Quiet
    phases, in which every reader runs a fixed number of steps at one
    generation (each state in turn), alternate with storm phases, in which
    the statistics flip each time the readers have completed as many steps
    as there are readers — so each state is checked on a fixed number of
    results however slow the machine, and the storms still move the
    statistics under compiles in flight.  Readers walk the texts side by
    side, so a phase starts on the templates the previous one cached."""
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
    readers = 8
    #: Steps per reader in a quiet phase and in a storm phase; the phases
    #: alternate, quiet first, and the quiet ones take the states in turn.
    quiet_steps, storm_steps, phases = 15, 15, 8
    failures = []
    ran_at = [Counter() for _ in range(readers)]  # per reader: no shared counter
    with S2RDFSession.from_graph(example_graph) as session:
        session.journal = QueryJournal()
        journal = capture_journal(session)
        catalog = session.layout.catalog
        rows = {}
        for text in texts:
            with S2RDFSession.from_graph(example_graph, journal_enabled=False) as fresh:
                rows[text] = bag(fresh.query(text))
        # One register call moves between the two states.
        table = "vp_follows"
        honest = catalog.statistics(table)
        states = ((table, honest.row_count, 1.0), (table, 10_000_000, 1.0))
        expected = []
        for state in states:
            catalog.register_statistics_only(*state)
            expected.append({text: uncached_estimate(session, text) for text in texts})
        catalog.register_statistics_only(*states[0])
        assert any(expected[0][text][1:] != expected[1][text][1:] for text in texts)
        barrier = threading.Barrier(readers + 1, timeout=60)
        progress = threading.Condition()
        steps_done = [0]

        def flipper() -> None:
            flips = 0
            phase_end = 0  # steps all readers have completed by the phase's end
            try:
                for phase in range(phases):
                    if phase % 2 == 0:
                        phase_end += readers * quiet_steps
                        if flips % 2 != phase // 2 % 2:
                            flips += 1
                            catalog.register_statistics_only(*states[flips % 2])
                        barrier.wait()
                    else:
                        phase_end += readers * storm_steps
                        barrier.wait()
                        seen = steps_done[0]
                        while seen < phase_end:
                            flip_at = min(seen + readers, phase_end)
                            with progress:
                                progress.wait_for(
                                    lambda: steps_done[0] >= flip_at or barrier.broken, timeout=1
                                )
                                seen = steps_done[0]
                            if barrier.broken:
                                return
                            flips += 1
                            catalog.register_statistics_only(*states[flips % 2])
                    barrier.wait()
            except threading.BrokenBarrierError:
                pass  # a reader failed; it reports why

        def step(offset: int, number: int) -> None:
            text = texts[(offset + number) % len(texts)]
            reference = parse_query(text)
            generation = catalog.generation
            # Read at one even generation, this is the state the whole step saw.
            state = 0 if catalog.statistics(table).row_count == honest.row_count else 1
            parsed = session.parse(text)
            assert parsed == reference, text
            compiled = session.compile(parsed)
            result = session.query(text) if number % 3 == 0 else None
            assert result is None or bag(result) == rows[text], text
            if generation & 1 or catalog.generation != generation:
                return  # ran across a flip: at no one generation
            plan, root_rows, estimated = expected[state][text]
            assert compiled == plan, (text, state)
            assert compiled.estimates.root_rows == root_rows, (text, state)
            if result is not None:
                assert journal.record.estimated_rows == estimated, (text, state)
                ran_at[offset][state] += 1

        def reader(offset: int) -> None:
            number = 0
            try:
                for phase in range(phases):
                    barrier.wait()
                    for _ in range(storm_steps if phase % 2 else quiet_steps):
                        step(offset, number)
                        number += 1
                        with progress:
                            steps_done[0] += 1
                            progress.notify_all()
                    barrier.wait()
            except threading.BrokenBarrierError:
                pass  # another thread failed and reports why
            except BaseException as error:  # reported by the main thread
                failures.append(error)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(readers)]
            threads.append(threading.Thread(target=flipper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert not barrier.broken
        assert len(session._templates) <= 3 and session._templates.plan_count() <= 3
        # Both states were checked on results: in the quiet phases alone,
        # every reader ran 5 queries per phase, two phases per state.
        checked = sum(ran_at, Counter())
        assert min(checked[0], checked[1]) >= 5, checked


# --------------------------------------------------------------------------- #
# The row estimates are kept with the plan: equal to uncached ones
# --------------------------------------------------------------------------- #
def test_cached_row_estimates_are_the_uncached_ones(
    small_dataset, instantiations, cache_counters, tmp_path
):
    """At a plan cache hit, every WatDiv Basic and IL template runs with the
    operator estimates and journals the root estimate that its own uncached
    plan, and a session that never saw it, give — before and after an append
    that moves the row counts the estimates are computed from."""
    path = str(tmp_path / "dataset")
    with S2RDFSession.from_graph(small_dataset.graph) as builder:
        builder.save_dataset(path)
    texts = {
        template.name: instantiations(template, count=2)
        for template in BASIC_TEMPLATES + INCREMENTAL_TEMPLATES
    }

    def per_operator(estimates):
        return [estimates.rows_for(node) for node in estimates.plan.walk()]

    def estimates(session):
        journal = capture_journal(session)
        with S2RDFSession.open_dataset(path, journal_enabled=False) as fresh:
            fresh.journal = QueryJournal()
            fresh_journal = capture_journal(fresh)
            seen = {}
            for name, (first, second) in texts.items():
                session.query(first)
                before = cache_counters(session)
                session.query(second)
                assert cache_counters(session, before)[2:] == (1, 0), name  # a plan hit
                compiled, _, estimated = uncached_estimate(session, second)
                catalog = session.layout.catalog
                operators = [estimate_rows(node, catalog) for node in compiled.plan.walk()]
                assert per_operator(session.executor.last_estimates) == operators, name
                assert journal.record.estimated_rows == estimated, name
                fresh.query(second)
                assert per_operator(fresh.executor.last_estimates) == operators, name
                assert fresh_journal.record.estimated_rows == estimated, name
                seen[name] = operators
        return seen

    with S2RDFSession.open_dataset(path) as session:
        before = estimates(session)
        catalog = session.layout.catalog
        follows = [t for t in small_dataset.graph if str(t.predicate).endswith("/follows")]
        rows = catalog.statistics("vp_wsdbm_follows").row_count
        session.append_triples(
            Triple(IRI(f"http://example.org/new{i}"), t.predicate, t.object)
            for i, t in enumerate(follows)
        )
        assert catalog.statistics("vp_wsdbm_follows").row_count == rows + len(follows)
        after = estimates(session)
    # Stale estimates could not have passed: some operator's estimate moved.
    assert any(before[name] != after[name] for name in texts)


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
