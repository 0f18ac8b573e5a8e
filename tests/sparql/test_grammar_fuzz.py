"""Grammar fuzz: whatever the text, the front end answers with a ``Query`` or
a positioned ``SparqlParseError`` — never with another exception — and the
cached entry point (``session.parse``) agrees with the uncached one
(``parse_query``) on which, down to the message.

Texts are corpus queries with tokens deleted, duplicated, swapped, replaced
by a token from elsewhere, or cut short (by token and by character), and
corpus queries re-joined by other separators (none at all included, so
abutting tokens re-lex) with constants of every kind, valid or broken, in
their slots — which a cached template answers without the tokenizer.  Every
text also checks that :func:`~repro.sparql.tokenizer.spellings` (the cache's
key) is :func:`~repro.sparql.tokenizer.tokenize`'s scan.  The run is
derandomized, so a failure in CI reproduces locally as is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import template_cache
from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.sparql.parser import SparqlParseError, _Parser, parse_query
from repro.sparql.tokenizer import TokenizeError, spellings, tokenize
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES
from repro.watdiv.template import instantiate_template

HAND_WRITTEN = [
    "SELECT * WHERE { <A> <follows> ?x . ?x <likes> <I2> }",
    "SELECT ?x ?w WHERE { ?x <follows> ?y ; <likes> ?w , <I1> . }",
    "SELECT DISTINCT ?x WHERE { ?x a wsdbm:User . OPTIONAL { ?x wsdbm:likes ?p } }",
    "SELECT * WHERE { { <A> <follows> ?x } UNION { ?x <likes> <I2> } }",
    'SELECT * WHERE { ?x <age> ?a . ?x <name> "Al"@en . FILTER(?a >= 18 && !(?a = 65) || bound(?x)) }',
    'SELECT * WHERE { ?x <p> "5"^^xsd:integer . ?x <q> 4.5 . ?x <r> "t"^^<http://t> }',
    "SELECT ?x (COUNT(DISTINCT ?y) AS ?n) (MAX(?y) AS ?m) WHERE { ?x <follows> ?y } GROUP BY ?x",
    "SELECT (COUNT(*) AS ?n) WHERE { ?x <follows> ?y }",
    "SELECT * WHERE { ?x <follows> ?y } ORDER BY DESC(?x) ?y LIMIT 3 OFFSET 1",
    "PREFIX ex: <http://example.org/> SELECT * WHERE { ex:a.b ex:p ex:c. }",
    "SELECT * WHERE { ?x <follows> ?y . FILTER(?x <?y&&?z> ?w) } # trailing comment",
    "BASE <http://base/> SELECT REDUCED ?s WHERE { ?s ?p ?o . FILTER(regex(str(?o), \"^a\") ) }",
]


def _corpus():
    from repro.watdiv.generator import generate_dataset

    dataset = generate_dataset(scale_factor=0.2, seed=3)
    texts = list(HAND_WRITTEN)
    for template in BASIC_TEMPLATES + SELECTIVITY_TEMPLATES[:4] + INCREMENTAL_TEMPLATES[:4]:
        texts.append(
            instantiate_template(
                template, dataset, np.random.default_rng(1), include_prefixes=False
            )
        )
    return texts


CORPUS = _corpus()
#: Every corpus text as its token spellings; joined by blanks they lex the same.
CORPUS_TOKENS = [spellings(text) for text in CORPUS]
SPARE_TOKENS = sorted({value for values in CORPUS_TOKENS for value in values})


def _slots(text):
    """Spelling indexes of the triple-pattern constants the parser takes from ``text``."""
    parser = _Parser(text)
    try:
        parser.parse()
    except SparqlParseError:
        return ()
    return tuple(index for index, _ in parser.constants)


#: (spellings, slot indexes) of every corpus text with a slot.
SLOTTED = [
    (found, slots) for found, slots in zip(CORPUS_TOKENS, map(_slots, CORPUS)) if slots
]
SEPARATORS = ["", " ", "\n", "\t", " # c\n"]
#: Slot constants of every kind, the broken ones included.
CONSTANTS = [
    "<http://example.org/x>",
    "<>",
    '"abc"',
    '"a"@en',
    '"5"^^xsd:integer',
    '"t"^^<http://t>',
    "wsdbm:User0",
    "wsdbm:a.b",
    "42",
    "-7",
    "4.5",
    "1e3",
    "1.e5",
    "B",
    '"abc',
    "<a b>",
    "nope:x",
    "?v",
    "_:b",
    '"x"^^<>',
    '"x"^^nope:t',
    ":",
    "<",
    "<=",
]


@pytest.fixture(scope="module")
def session():
    with S2RDFSession.from_graph(Graph([Triple.of("A", "follows", "B")])) as session:
        for text in CORPUS:  # the fuzzed texts meet a populated cache
            outcome(session.parse, text)
        yield session


def outcome(parse, text):
    """("query", Query) or ("error", message, line, column, token)."""
    try:
        return ("query", parse(text))
    except SparqlParseError as error:
        assert error.line is not None and error.column is not None, text
        assert error.line >= 1 and error.column >= 1, text
        assert f"(line {error.line}, column {error.column})" in str(error), text
        return ("error", str(error), error.line, error.column, error.token)


def check_spellings(text):
    """``spellings`` is ``tokenize``'s scan: the raw text of every token, and
    the offending character where ``tokenize`` raises."""

    def raw(tokens):
        return [text[token.position : token.position + len(token.value)] for token in tokens]

    found = spellings(text)
    try:
        tokens = tokenize(text)
    except TokenizeError as error:
        head = raw(tokenize(text[: error.position]))
        assert found[: len(head) + 1] == head + [text[error.position]], text
    else:
        assert found == raw(tokens), text


def check(session, text):
    check_spellings(text)
    reference = outcome(parse_query, text)
    for _ in range(2):  # a possible miss, then a possible hit
        assert outcome(session.parse, text) == reference, text
        # The cache scans the body after its memo of the text's head.
        assert list(session._templates._scan(text)[0]) == spellings(text), text


@st.composite
def mutated_tokens(draw):
    tokens = list(draw(st.sampled_from(CORPUS_TOKENS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not tokens:
            break
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "truncate"]))
        index = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        if kind == "delete":
            del tokens[index]
        elif kind == "duplicate":
            tokens.insert(index, tokens[index])
        elif kind == "swap":
            other = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            tokens[index], tokens[other] = tokens[other], tokens[index]
        elif kind == "replace":
            tokens[index] = draw(st.sampled_from(SPARE_TOKENS))
        else:
            del tokens[index:]
    return " ".join(tokens)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=mutated_tokens())
def test_mutated_token_streams_parse_or_fail_with_a_position(session, text):
    check(session, text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_texts_cut_short_parse_or_fail_with_a_position(session, data):
    text = data.draw(st.sampled_from(CORPUS))
    cut = data.draw(st.integers(min_value=0, max_value=len(text)))
    check(session, text[:cut])


@pytest.mark.parametrize("text", CORPUS)
def test_the_corpus_itself_lexes_alike_when_respaced(session, text):
    """The fuzz's starting point is sound: re-joined tokens are the same query."""
    respaced = " ".join(token.value for token in tokenize(text))
    reference = outcome(parse_query, text)
    assert reference[0] == ("error" if "<?y&&?z>" in text else "query")
    again = outcome(parse_query, respaced)
    if reference[0] == "query":
        assert again[1].pattern == reference[1].pattern
    check(session, text)
    check(session, respaced)


@st.composite
def respaced_with_new_constants(draw):
    found, slots = draw(st.sampled_from(SLOTTED))
    found = list(found)
    for index in slots:
        if draw(st.booleans()):
            found[index] = draw(st.sampled_from(CONSTANTS))
    # Half the texts keep every token apart, so that most of them are queries.
    separators = SEPARATORS if draw(st.booleans()) else SEPARATORS[1:]
    joints = draw(st.lists(st.sampled_from(separators), min_size=len(found), max_size=len(found)))
    return "".join(spelling + joint for spelling, joint in zip(found, joints))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=respaced_with_new_constants())
def test_respaced_texts_with_other_constants_parse_alike(session, text):
    check(session, text)


#: Another constant of each slot kind but NAME (whose spelling is in the key)
#: with the first character of the one it replaces, so the text keeps its shape.
OTHER_CONSTANT = {
    "IRI": lambda spelling: "<http://example.org/other>",
    "PNAME": lambda spelling: spelling.partition(":")[0] + ":Other",
    "STRING": lambda spelling: '"other"',
    "NUMBER": lambda spelling: spelling[0] + "7",
}


def test_respaced_texts_with_other_constants_hit(session, cache_counters):
    """Each primed template answers its text re-spaced, and with another
    constant of the same kind in each slot, from the cache."""
    texts = []
    for found, slots in SLOTTED:
        session.parse(" ".join(found))  # primed here, whatever ran before
        found = list(found)
        kinds = [token.kind for token in tokenize(" ".join(found))]
        for index in slots:
            other = OTHER_CONSTANT.get(kinds[index])
            if other is not None:
                found[index] = other(found[index])
        texts.append("\n# c\n".join(found) + "\t")
    before = cache_counters(session)
    for text in texts:
        assert session.parse(text) == parse_query(text), text
    assert cache_counters(session, before)[:2] == (len(texts), 0)


def test_a_hit_makes_no_tokenize_call(monkeypatch):
    text = "SELECT * WHERE {{ ?x wsdbm:follows {} . ?x <likes> {} }}"
    with S2RDFSession.from_graph(Graph([Triple.of("A", "follows", "B")])) as session:
        session.parse(text.format("wsdbm:User0", '"a"'))

        def refuse(text):
            raise AssertionError("tokenized on a hit")

        monkeypatch.setattr(template_cache, "tokenize_query", refuse)
        other = text.format("wsdbm:User1", '"b"@en').replace(" ", "\n")
        assert session.parse(other) == parse_query(other)
