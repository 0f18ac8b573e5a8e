"""A template-cache hit runs the cached plan as it is, with a binding.

A text that hits the template cache is matched to its template and the
spellings in its slots (``TemplateCache.lookup``), takes the template's
cached plan entry and binds the spellings through the entry's memo to
``id(template term) -> (its own term, its id and hash)`` (``TemplateCache.bind``);
the executor runs the plan with that binding and the entry's prepared scans:
no algebra tree and no plan is rebuilt, and a spelling met before is neither
lexed nor looked up again.  These tests pin that path, check it against the
uncached reference on every suite template and through store changes, run
it from many threads with distinct constants, and check that per-operator
observation still records every node whenever someone is looking (a tracer
or ``explain_analyze``) — and only then.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.binding_iteration import index_nested_loop_execute
from repro.core import template_cache
from repro.core.compiler import QueryCompiler
from repro.core.session import S2RDFSession
from repro.core.table_selection import TableSelector
from repro.engine.metrics import ExecutionMetrics
from repro.engine.vectorized import ColumnBatch
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple
from repro.serve.workers import PartitionWorkerPool
from repro.sparql.parser import parse_query
from repro.store import format as store_format
from repro.store import reader as store_reader
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES

ALL_TEMPLATES = BASIC_TEMPLATES + INCREMENTAL_TEMPLATES + SELECTIVITY_TEMPLATES

#: One template, one subject slot: every user's answer is its own.
TWO_HOPS = "SELECT ?w WHERE {{ <u{}> <follows> ?b . ?b <likes> ?w }}"
USERS = 20


def bag(result):
    return sorted(map(repr, result.relation.rows))


def users_graph() -> Graph:
    return Graph(
        [Triple.of(f"u{i}", "follows", f"u{(i * 3 + 1) % USERS}") for i in range(USERS)]
        + [Triple.of(f"u{i}", "likes", f"i{i % 7}") for i in range(USERS)]
    )


def uncached_sql(session, text):
    return QueryCompiler(TableSelector(session.layout)).compile(parse_query(text)).sql()


def counters(metrics: ExecutionMetrics):
    """Every ``ExecutionMetrics`` field but the observed join time."""
    values = metrics.as_dict()
    del values["critical_path_ms"]
    return values


def journaled(session, monkeypatch):
    """``records``: every journal record the session writes from now on."""
    records = []
    append = session.journal.append

    def capturing(record):
        records.append(record)
        append(record)

    monkeypatch.setattr(session.journal, "append", capturing)
    return records


def untimed(record):
    """A journal record without what a clock decides."""
    fields = dataclasses.asdict(record)
    for name in ("wall_ms", "ts", "phase_ms"):
        del fields[name]
    return fields


def refuse_rebinding(monkeypatch):
    """Make every rebuild of an algebra tree or a plan raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a hit rebuilt a tree")

    monkeypatch.setattr(template_cache.TemplateCache, "_instantiate", staticmethod(refuse))
    monkeypatch.setattr(template_cache, "_rebind_compiled", refuse)
    monkeypatch.setattr(template_cache._PatternRebinder, "visit", refuse)


def counted(monkeypatch, owner, name, calls, label=None):
    """Count each call of ``owner.name`` into ``calls[label or name]``."""
    real = getattr(owner, name)
    label = label or name
    calls.setdefault(label, 0)

    def counting(*args, **kwargs):
        calls[label] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def count_constant_work(monkeypatch):
    """``calls``: per kind of work that turns a slot spelling into what a scan
    looks for, how often it ran from now on.  ``decode`` counts the dictionary
    decodes made anywhere but in lowering a result to rows."""
    calls = {}
    counted(monkeypatch, template_cache, "kind_of", calls)
    counted(monkeypatch, template_cache, "term_of_token", calls)
    counted(monkeypatch, store_format.StoredTermDictionary, "lookup", calls)
    counted(monkeypatch, store_format, "stable_hash", calls)
    counted(monkeypatch, store_reader._StoredProvider, "_checked", calls)
    lowering = []
    to_relation = ColumnBatch.to_relation

    def lowered(batch):
        lowering.append(True)
        try:
            return to_relation(batch)
        finally:
            lowering.pop()

    decode = store_format.StoredTermDictionary.decode
    calls["decode"] = 0

    def decoding(dictionary, term_id):
        if not lowering:
            calls["decode"] += 1
        return decode(dictionary, term_id)

    monkeypatch.setattr(ColumnBatch, "to_relation", lowered)
    monkeypatch.setattr(store_format.StoredTermDictionary, "decode", decoding)
    return calls


# --------------------------------------------------------------------------- #
# The hit path rebuilds nothing, and what it hands out has its own constants
# --------------------------------------------------------------------------- #
def test_a_hit_rebuilds_neither_the_query_nor_the_plan(cache_counters, monkeypatch):
    first, second = TWO_HOPS.format(5), TWO_HOPS.format(7)
    with S2RDFSession.from_graph(users_graph(), num_partitions=2) as session:
        session.query(first)
        expected = bag(session.query(parse_query(second)))
        refuse_rebinding(monkeypatch)
        before = cache_counters(session)
        result = session.query(second)
        assert cache_counters(session, before) == (1, 0, 1, 0)
        assert bag(result) == expected
        # The SQL text is rendered on first read, with the query's constants.
        assert result.sql == uncached_sql(session, second)
        assert "'<u7>'" in result.sql and "'<u5>'" not in result.sql
        # A repeated hit finds the spelling's term, id and hash in the plan
        # entry's memo and runs prepared scans: no slot is lexed or made a
        # term, no constant looked up, decoded or hashed for its bucket, no
        # column list checked.
        assert result.metrics.store_segments_pruned > 0  # two buckets: one is pruned
        calls = count_constant_work(monkeypatch)
        again = session.query(second)
        assert bag(again) == expected
        assert counters(again.metrics) == counters(result.metrics)
        assert calls == {
            "kind_of": 0,
            "term_of_token": 0,
            "lookup": 0,
            "stable_hash": 0,
            "_checked": 0,
            "decode": 0,
        }
        # The first hit of another spelling lexes, makes and looks it up once.
        third = session.query(TWO_HOPS.format(9))
        assert calls["kind_of"] == calls["term_of_token"] == calls["lookup"] == 1
        assert bag(third) == bag(session.query(parse_query(TWO_HOPS.format(9))))
        monkeypatch.undo()
        # The public front end hands out the rebound plan.
        assert session.explain(second) == uncached_sql(session, second)
        assert session.explain(first) == uncached_sql(session, first)


def test_a_result_served_by_a_process_worker_shows_its_own_constants(tmp_path):
    path = str(tmp_path / "dataset")
    with S2RDFSession.from_graph(users_graph(), num_partitions=2) as saver:
        saver.save_dataset(path)
    first, second = TWO_HOPS.format(5), TWO_HOPS.format(7)
    with S2RDFSession.open_dataset(path, journal_enabled=False) as session:
        epoch, known = session._journal_epoch, len(session._dataset.dictionary)
        with PartitionWorkerPool(dataset_path=path, num_workers=1) as pool:
            # One worker: the second text is a hit on the template the first cached.
            pool.query_reply(first, epoch, known)
            record, *_ = pool.query_reply(second, epoch, known)
        result = session._finish(record)  # pickled by the worker, SQL rendered there
        assert result.sql == uncached_sql(session, second)
        assert "'<u7>'" in result.sql and "'<u5>'" not in result.sql
        assert bag(result) == bag(session.query(parse_query(second)))
        assert (record.template, record.fingerprint) == session.template_of(
            parse_query(second)
        )


# --------------------------------------------------------------------------- #
# Every suite template: a hit answers, counts and journals as the uncached path
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def corpus_session(small_dataset):
    with S2RDFSession.from_graph(small_dataset.graph) as session:
        yield session


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda template: template.name)
def test_a_hit_equals_the_uncached_reference(
    corpus_session, instantiations, cache_counters, monkeypatch, template
):
    session = corpus_session
    records = journaled(session, monkeypatch)
    for number, text in enumerate(instantiations(template)):
        before = cache_counters(session)
        hit = session.query(text)
        expected_hits = (0, 1, 0, 1) if number == 0 else (1, 0, 1, 0)
        assert cache_counters(session, before) == expected_hits, (template.name, number)
        # A Query object is compiled uncached, with fresh row estimates, and
        # runs without a binding.
        reference = session.query(parse_query(text))
        assert cache_counters(session, before) == expected_hits
        assert bag(hit) == bag(reference), text
        assert counters(hit.metrics) == counters(reference.metrics), text
        assert hit.selected_tables == reference.selected_tables
        assert records[-2].estimated_rows == records[-1].estimated_rows
        assert hit.statically_empty == reference.statically_empty
        assert hit.sql == reference.sql
        assert untimed(records[-2]) == untimed(records[-1]), text


# --------------------------------------------------------------------------- #
# The slot memo: scoped to its template, dropped with the store generation
# --------------------------------------------------------------------------- #
def reference(session, text):
    """The answer of ``text`` parsed and compiled uncached, run without a binding."""
    return bag(session.query(parse_query(text)))


def graph_answer(graph, text):
    """The answer of a one-BGP ``text`` by index nested loops over ``graph``
    (no store, no dictionary), in ``bag``'s form."""
    query = parse_query(text)
    names = [variable.name for variable in query.select_variables]
    solutions = index_nested_loop_execute(graph, list(query.pattern.patterns))
    return sorted(repr(tuple(solution[name] for name in names)) for solution in solutions)


def test_one_spelling_under_two_prefixes_answers_each_its_own(cache_counters):
    graph = Graph(
        [Triple.of("http://a/x", "p", "A1"), Triple.of("http://a/x", "p", "A2")]
        + [Triple.of("http://b/x", "p", "B1"), Triple.of("http://b/y", "p", "B2")]
    )
    texts = [
        f"PREFIX ex: <http://{space}/> SELECT ?o WHERE {{ ex:{local} <p> ?o }}"
        for local in ("x", "y", "x", "y")
        for space in ("a", "b")
    ]
    with S2RDFSession.from_graph(graph) as session:
        for number, text in enumerate(texts):
            before = cache_counters(session)
            answer = bag(session.query(text))
            # Two templates (the prologue is in the key), each a hit after its first text.
            assert cache_counters(session, before)[:2] == ((1, 0) if number > 1 else (0, 1))
            assert answer == reference(session, text) == graph_answer(graph, text), text
        assert bag(session.query(texts[0])) == ["(IRI(value='A1'),)", "(IRI(value='A2'),)"]
        assert bag(session.query(texts[1])) == ["(IRI(value='B1'),)"]


def test_an_absent_constant_answers_once_the_store_holds_it(tmp_path):
    def answers(session, users, holds):
        for user in users:
            text = TWO_HOPS.format(user)
            for _ in range(2):  # the second one finds the spelling in the memo
                answer = bag(session.query(text))
                assert answer == reference(session, text), (user, holds)
                assert bool(answer) == holds, (user, holds)

    with S2RDFSession.from_graph(users_graph(), journal_enabled=False) as session:
        answers(session, [5], True)
        answers(session, [90, 91], False)
        # A session built in memory keeps its ids when it saves them.
        session.save_dataset(str(tmp_path / "saved"))
        answers(session, [90, 91], False)
        session.append_triples([Triple.of("u90", "follows", "u1")])
        answers(session, [90, 5], True)
        answers(session, [91], False)
        session.append_triples([Triple.of("u91", "follows", "u2")])
        session.compact(compaction_threshold=1)
        answers(session, [91, 90, 5], True)
        answers(session, [92], False)
        # Saved again, a connected session lays its triples out under other ids.
        session.save_dataset(str(tmp_path / "resaved"))
        answers(session, [91, 90, 5], True)
        answers(session, [92], False)


def test_terms_sharing_a_dictionary_line_bind_as_the_uncached_reference():
    """``Literal("x", language="")`` and ``Literal("x")`` are two terms with one
    dictionary line: a slot spelled ``"x"`` names the second one only."""
    empty_tag, plain = Literal("x", language=""), Literal("x")
    text = "SELECT ?s WHERE {{ ?s <p> {} }}"
    graphs = {
        "both": [(IRI("a"), empty_tag), (IRI("b"), plain), (IRI("c"), Literal("y"))],
        "only the tagged one": [(IRI("a"), empty_tag), (IRI("c"), Literal("y"))],
    }
    for name, pairs in graphs.items():
        graph = Graph([Triple(subject, IRI("p"), object_) for subject, object_ in pairs])
        with S2RDFSession.from_graph(graph) as session:
            dictionary = session._dataset.dictionary
            assert dictionary.lookup(empty_tag) is not None
            for constant in ('"y"', '"x"', '"y"', '"x"'):
                query = text.format(constant)
                answer = bag(session.query(query))
                assert answer == reference(session, query) == graph_answer(graph, query), name
            expected = ["(IRI(value='b'),)"] if plain in dict(pairs).values() else []
            assert bag(session.query(text.format('"x"'))) == expected, name


# --------------------------------------------------------------------------- #
# The SQL text: filled into the plan's skeleton, served or direct
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served_corpus(small_dataset, tmp_path_factory):
    """The corpus saved, a session on it and its schedulers on threads and on
    a process worker."""
    path = str(tmp_path_factory.mktemp("served-corpus") / "dataset")
    with S2RDFSession.from_graph(small_dataset.graph, journal_enabled=False) as saver:
        saver.save_dataset(path)
    with S2RDFSession.open_dataset(path, journal_enabled=False) as threads:
        with S2RDFSession.open_dataset(
            path, execution_mode="process", worker_processes=1, journal_enabled=False
        ) as processes:
            with threads.serve() as on_threads, processes.serve() as on_processes:
                yield threads, on_threads, on_processes


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda template: template.name)
def test_every_result_carries_the_uncached_sql(served_corpus, instantiations, template):
    session, *schedulers = served_corpus
    for text in instantiations(template):
        expected = uncached_sql(session, text)
        assert session.query(text).sql == expected, text
        # A Query object runs its own plan, rendered whole as it always was.
        assert session.query(parse_query(text)).sql == expected, text
        for scheduler in schedulers:
            assert scheduler.submit(text).result(timeout=60).sql == expected, text


XSD = "http://www.w3.org/2001/XMLSchema#"


@st.composite
def object_constants(draw):
    """A SPARQL spelling of an object constant whose N3 and SQL quoting bite:
    quotes, backslashes, line separators N3 keeps, numerals, language tags."""
    kind = draw(st.sampled_from(["literal", "numeral", "iri"]))
    if kind == "numeral":
        return draw(st.sampled_from(["42", "-3.5", "+7", "1e3", "0.5", "007"]))
    if kind == "iri":
        return "<" + draw(st.text(alphabet="u1'#%-", min_size=1, max_size=5)) + ">"
    alphabet = ["a", "'", '"', "\\", "\r", "\u2028", "\x85", "7", " "]
    lexical = draw(st.text(alphabet=alphabet, max_size=6))
    escaped = lexical.replace("\\", "\\\\").replace('"', '\\"')
    if draw(st.booleans()):
        escaped = escaped.replace("\r", "\\r")
    suffix = draw(st.sampled_from(["", "@en", "@en-US", f"^^<{XSD}string>"]))
    return f'"{escaped}"{suffix}'


ODD_TEMPLATE = "SELECT ?a WHERE {{ ?a <likes> {} . ?a <follows> ?b . ?b <likes> {} }}"


@pytest.fixture(scope="module")
def served_users(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("served-users") / "dataset")
    with S2RDFSession.from_graph(users_graph(), journal_enabled=False) as saver:
        saver.save_dataset(path)
    with S2RDFSession.open_dataset(
        path, execution_mode="process", worker_processes=1, journal_enabled=False
    ) as session:
        with session.serve() as scheduler:
            yield session, scheduler


@settings(max_examples=60, deadline=None)
@given(first=object_constants(), second=object_constants())
def test_odd_constants_render_as_the_rebound_plan(served_users, first, second):
    session, scheduler = served_users
    text = ODD_TEMPLATE.format(first, second)
    expected = uncached_sql(session, text)
    assert session.query(text).sql == expected
    assert scheduler.submit(text).result(timeout=60).sql == expected


# --------------------------------------------------------------------------- #
# Many threads, one template, distinct constants: each gets its own answers
# --------------------------------------------------------------------------- #
THREADS = 8
STEPS = 40


def _own_answers_under_threads(run_one, users=tuple(range(USERS)), steps=STEPS):
    """``run_one(text) -> QueryResult`` from ``THREADS`` threads, each walking
    ``users`` for ``steps`` steps from its own offset, under a short switch
    interval."""
    with S2RDFSession.from_graph(users_graph(), journal_enabled=False) as reference:
        expected = {
            user: bag(reference.query(parse_query(TWO_HOPS.format(user)))) for user in users
        }
    assert len(set(map(tuple, expected.values()))) > 1  # the answers differ
    failures = []
    barrier = threading.Barrier(THREADS, timeout=60)

    def client(offset: int) -> None:
        try:
            barrier.wait()
            for step in range(steps):
                user = users[(offset + step) % len(users)]
                result = run_one(TWO_HOPS.format(user))
                assert bag(result) == expected[user], user
                assert f"'<u{user}>'" in result.sql, user
        except BaseException as error:  # reported by the main thread
            failures.append(error)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(n,)) for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]


def test_threads_binding_one_template_get_their_own_answers(cache_counters):
    with S2RDFSession.from_graph(users_graph()) as session:
        _own_answers_under_threads(session.query)
        hits, misses, plan_hits, plan_misses = cache_counters(session)
        assert hits + misses == plan_hits + plan_misses == THREADS * STEPS
        assert hits > misses


def test_threads_binding_more_spellings_than_the_memo_holds():
    """Known users, users the store does not hold, and more spellings in all
    than a plan entry remembers: the memo is cleared under the threads' feet,
    and every answer is still the query's own."""
    bound = template_cache.MAX_SLOT_SPELLINGS
    users = tuple(range(USERS)) + tuple(range(100, 100 + bound))
    sizes = []
    with S2RDFSession.from_graph(users_graph(), journal_enabled=False) as session:
        # One template and one plan entry before the threads start.
        session.query(TWO_HOPS.format(0))
        plans = session._templates._plans

        def run_one(text):
            result = session.query(text)
            sizes.append(max(len(entry.slots) for entry in list(plans.values())))
            return result

        _own_answers_under_threads(run_one, users, steps=len(users))
        (entry,) = plans.values()
    # Each spelling was bound, more than the bound holds: the memo was cleared.
    assert len(sizes) == THREADS * len(users) and len(users) > bound
    assert len(entry.slots) <= bound
    # Binders racing past the check overshoot by at most one spelling each.
    assert max(sizes) <= bound + THREADS


def test_threads_missing_one_template_at_once_share_it(monkeypatch):
    """Every thread misses the unprimed template, and all of them are held
    after the parse, before any registers a template: they still register
    one template and compile one plan entry."""
    users = tuple(range(THREADS))
    with S2RDFSession.from_graph(users_graph(), journal_enabled=False) as reference:
        expected = {
            user: bag(reference.query(parse_query(TWO_HOPS.format(user)))) for user in users
        }
    barrier = threading.Barrier(THREADS, timeout=60)
    make_template = template_cache.QueryTemplate

    def overlapping(*args):
        barrier.wait()
        return make_template(*args)

    monkeypatch.setattr(template_cache, "QueryTemplate", overlapping)
    answers = {}
    failures = []

    def client(user: int) -> None:
        try:
            answers[user] = bag(session.query(TWO_HOPS.format(user)))
        except BaseException as error:  # reported by the main thread
            failures.append(error)
            barrier.abort()

    with S2RDFSession.from_graph(users_graph(), journal_enabled=False) as session:
        threads = [threading.Thread(target=client, args=(user,)) for user in users]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        cache = session._templates
        assert len(cache) == 1
        assert cache.plan_count() == 1
    assert answers == expected


def test_threads_serving_one_template_get_their_own_answers(cache_counters):
    with S2RDFSession.from_graph(users_graph()) as session:
        with session.serve() as scheduler:
            _own_answers_under_threads(lambda text: scheduler.submit(text).result(timeout=60))
        hits, misses = cache_counters(session)[:2]
        assert hits > misses


# --------------------------------------------------------------------------- #
# Per-operator observation: every node when someone looks, none otherwise
# --------------------------------------------------------------------------- #
JOIN_QUERY = "SELECT * WHERE {{ <u{}> <follows> ?b . ?b <follows> ?c . ?c <likes> ?w }}"
#: ORDER BY + LIMIT run as one top-k, which records the sort node itself.
TOP_K_QUERY = "SELECT ?c WHERE {{ <u{}> <follows> ?b . ?b <follows> ?c }} ORDER BY ?c LIMIT 1"


def test_an_untraced_query_records_no_node_executions():
    with S2RDFSession.from_graph(users_graph()) as session:
        for text in (JOIN_QUERY, TOP_K_QUERY):
            for user in (1, 2):
                session.query(text.format(user))
                assert session.executor.last_node_stats == {}
                assert session.tracer.finished_spans() == []
        # explain_analyze still records the top-k's sort node.
        text = str(session.explain_analyze(TOP_K_QUERY.format(3)))
        assert "OrderBy" in text and "not executed" not in text


def test_explain_analyze_of_a_hit_observes_every_node():
    with S2RDFSession.from_graph(users_graph()) as session:
        session.query(JOIN_QUERY.format(1))
        run, _ = session._run(JOIN_QUERY.format(2), analyze=True)
        nodes = list(session.executor.last_estimates.plan.walk())
        assert run.parse_hit and run.compile_hit
        stats = session.executor.last_node_stats
        assert set(stats) == {id(node) for node in nodes}
        text = str(session.explain_analyze(JOIN_QUERY.format(3)))
        assert "parse=hit, compile=hit" in text
        assert "not executed" not in text
        assert text.count("actual=") == len(nodes)


def test_a_traced_hit_has_one_operator_span_and_one_node_execution_per_node():
    with S2RDFSession.from_graph(users_graph(), tracing_enabled=True) as session:
        session.query(JOIN_QUERY.format(1))
        first_spans = len(session.tracer.finished_spans())
        run, _ = session._run(JOIN_QUERY.format(2))
        assert run.parse_hit and run.compile_hit
        nodes = list(session.executor.last_estimates.plan.walk())
        spans = session.tracer.finished_spans()[first_spans:]
        operators = [span for span in spans if span.category == "operator"]
        assert len(operators) == len(nodes)
        assert set(session.executor.last_node_stats) == {id(node) for node in nodes}


def test_each_join_is_one_critical_path_observation():
    with S2RDFSession.from_graph(users_graph()) as session:
        joins = sum(session.query(JOIN_QUERY.format(user)).metrics.joins for user in range(4))
        histogram = session.metrics.snapshot()["histograms"]["s2rdf_join_critical_path_ms"]
        assert joins == 8 and histogram["count"] == joins
