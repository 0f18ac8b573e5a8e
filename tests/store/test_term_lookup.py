"""Term -> id lookup in a stored dictionary: exact, and paid per term.

:meth:`~repro.store.format.StoredTermDictionary.lookup` finds a term's
canonical line (:func:`~repro.store.format.encode_term_line`) in an index of
the raw lines and confirms the hit by decoding that one id, so a cold session
parses only the ids its query touches.  These tests pin that every lookup is
exact — terms whose lines are close, or equal, never get each other's id —
and that a first query does not parse the dictionary.
"""

import sys
import threading

import pytest

import repro
import repro.store.format as store_format
from repro.mappings.extvp import (
    CorrelationKind,
    ExtVPStatistics,
    ExtVPTableInfo,
    correlation_keys,
)
from repro.rdf.terms import IRI, XSD_INTEGER, XSD_STRING, Literal
from repro.store.format import (
    FORMAT_VERSION,
    Manifest,
    StoredTermDictionary,
    dictionary_path,
    encode_term_line,
)
from repro.store.writer import _DictionaryAppender

#: Terms whose lines differ in a datatype, a language tag or an escape only.
CLOSE_TERMS = [
    Literal("5"),
    Literal("5", datatype=XSD_STRING),
    Literal("5", datatype=XSD_INTEGER),
    Literal("hi"),
    Literal("hi", language="en"),
    Literal("hi", language="en-GB"),
    Literal("a\rb"),
    Literal("a\nb"),
    Literal("a\\nb"),
    Literal('say "hi"'),
    Literal("back\\slash"),
    Literal("back\\\\slash"),
    Literal("café     \U0001f600"),
    IRI("http://example.org/café"),
    IRI("http://example.org/a"),
    IRI("a"),
]

ABSENT_TERMS = [
    Literal("6"),
    Literal("hi", language="de"),
    Literal("hi", datatype=XSD_STRING),
    Literal("a\r\nb"),
    IRI("http://example.org/b"),
    IRI("http://example.org/cafe"),
]


@pytest.fixture(scope="module")
def store(small_dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lookup") / "store")
    repro.create(small_dataset.graph, path=path, num_partitions=2).close()
    return path


@pytest.fixture()
def written(tmp_path):
    root = str(tmp_path)
    StoredTermDictionary.of_terms(CLOSE_TERMS).write(root)
    return root


def test_every_term_gets_its_own_id_in_memory_and_reopened(written):
    for dictionary in (
        StoredTermDictionary.of_terms(CLOSE_TERMS),
        StoredTermDictionary.open(written, expected_size=len(CLOSE_TERMS)),
    ):
        assert [dictionary.lookup(term) for term in CLOSE_TERMS] == list(range(len(CLOSE_TERMS)))
        assert [dictionary.lookup(term) for term in ABSENT_TERMS] == [None] * len(ABSENT_TERMS)


def test_terms_sharing_a_line_do_not_alias(tmp_path):
    """``Literal("x", language="")`` and ``Literal("x")`` have one N3 and so
    one line: a line hit is confirmed by decoding the id it names."""
    empty_tag, plain = Literal("x", language=""), Literal("x")
    assert empty_tag != plain and encode_term_line(empty_tag) == encode_term_line(plain)

    both = StoredTermDictionary.of_terms([IRI("a"), empty_tag, IRI("b"), plain])
    assert both.lookup(empty_tag) == 1
    assert both.lookup(plain) == 3
    assert StoredTermDictionary.of_terms([empty_tag]).lookup(plain) is None
    assert StoredTermDictionary.of_terms([plain]).lookup(empty_tag) is None

    # A line decodes to the term without a tag: that is what a store holds.
    StoredTermDictionary.of_terms([plain]).write(str(tmp_path))
    reopened = StoredTermDictionary.open(str(tmp_path))
    assert reopened.lookup(plain) == 0
    assert reopened.lookup(empty_tag) is None


def test_terms_added_after_the_index_was_built_are_found(written):
    dictionary = StoredTermDictionary.open(written, expected_size=len(CLOSE_TERMS))
    assert dictionary.lookup(CLOSE_TERMS[0]) == 0  # builds the index
    assert dictionary._reverse is not None

    # Through the appender an append uses: ids are assigned before the write.
    appender = _DictionaryAppender(dictionary)
    added = [Literal("6"), Literal("hi", language="de"), CLOSE_TERMS[3], IRI("http://example.org/b")]
    ids = [appender.encode(term) for term in added]
    size = len(CLOSE_TERMS)
    assert ids == [size, size + 1, 3, size + 2]
    assert dictionary.lookup(Literal("6")) is None  # not written yet
    dictionary.append(written, appender.new_terms)
    assert [dictionary.lookup(term) for term in added] == ids

    # ... and directly.
    dictionary.append(written, [Literal("a\r\nb")])
    assert dictionary.lookup(Literal("a\r\nb")) == size + 3
    assert dictionary.lookup(Literal("a\n\rb")) is None

    reopened = StoredTermDictionary.open(written)
    assert [reopened.lookup(term) for term in CLOSE_TERMS + added] == list(range(size)) + ids


def test_every_line_of_a_store_is_canonical(store):
    """A line is what encoding its own decoded term gives: the index of raw
    lines then answers exactly what an index of decoded terms would."""
    with open(dictionary_path(store), encoding="ascii") as handle:
        lines = handle.read().split("\n")[:-1]
    dictionary = StoredTermDictionary.open(store)
    assert len(lines) == len(dictionary) > 1000
    assert any(line.startswith('"') for line in lines)  # literals are covered
    for term_id, line in enumerate(lines):
        assert encode_term_line(dictionary.decode(term_id)) == line


def test_first_lookups_racing_on_one_cold_dictionary_are_exact(written):
    """Eight threads make their first lookups at once, under a short switch
    interval, on one dictionary nobody has looked into: each gets the exact
    id of every present term and ``None`` for every absent one."""
    terms = CLOSE_TERMS + ABSENT_TERMS
    expected = list(range(len(CLOSE_TERMS))) + [None] * len(ABSENT_TERMS)
    for _ in range(20):
        dictionary = StoredTermDictionary.open(written, expected_size=len(CLOSE_TERMS))
        start = threading.Barrier(8)
        failures = []

        def reader(offset: int) -> None:
            try:
                start.wait()
                for step in range(len(terms)):
                    at = (offset * 5 + step) % len(terms)
                    assert dictionary.lookup(terms[at]) == expected[at], terms[at]
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


def test_a_cold_first_query_parses_only_the_terms_it_touches(store, small_dataset, monkeypatch):
    """A fresh connection's first query with an IRI constant decodes its
    constant's line and the lines of the terms it returns, not the dictionary."""
    user = next(
        triple.subject
        for triple in sorted(small_dataset.graph, key=lambda t: t.subject.n3())
        if triple.subject.n3().startswith("<http://db.uwaterloo.ca/~galuc/wsdbm/User")
    )
    text = f"SELECT ?p ?o WHERE {{ {user.n3()} ?p ?o }}"
    decoded = []
    original = store_format.decode_term_line

    def counting(line):
        decoded.append(line)
        return original(line)

    monkeypatch.setattr(store_format, "decode_term_line", counting)
    with repro.connect(store) as session:
        rows = session.query(text).relation.rows
        dictionary_size = len(session._dataset.dictionary)
    assert rows
    returned = {term for row in rows for term in row}
    assert 0 < len(decoded) <= 1 + len(returned) < dictionary_size // 10


@pytest.mark.parametrize("include_oo", [False, True])
@pytest.mark.parametrize("predicates", [0, 1, 2, 5])
def test_statistics_only_count_is_the_key_space_minus_the_tables(predicates, include_oo):
    iris = [IRI(f"http://example.org/p{index}") for index in range(predicates)]
    statistics = ExtVPStatistics()
    if predicates >= 2:
        # One materialised correlation and one kept as statistics only.
        statistics.add(ExtVPTableInfo("t", CorrelationKind.OS, iris[0], iris[1], 1, 4, True))
        statistics.add(ExtVPTableInfo("u", CorrelationKind.SO, iris[1], iris[0], 4, 4, False))
    manifest = Manifest(
        format_version=FORMAT_VERSION,
        layout_name="ExtVP",
        num_buckets=1,
        selectivity_threshold=1.0,
        include_oo=include_oo,
        namespaces={},
        dictionary_size=0,
        tables={},
        vp_tables={iri: {"table": f"vp{index}", "size": 4} for index, iri in enumerate(iris)},
        extvp=statistics,
    )
    maintained = len(correlation_keys(range(predicates), include_oo))
    assert manifest.statistics_only_count() == maintained - len(statistics.materialized())
