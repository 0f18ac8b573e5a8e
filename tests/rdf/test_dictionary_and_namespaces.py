"""Unit tests for dictionary encoding and namespace handling.

The term dictionary is the store's: a :class:`StoredTermDictionary`, which a
build or an append extends through the writer's encoder.  Its on-disk format
is tested in ``tests/store/test_format.py`` and its reverse index in
``tests/store/test_term_lookup.py``.
"""

import pytest

from repro.core.session import S2RDFSession
from repro.rdf.namespaces import Namespace, NamespaceManager, WATDIV_NAMESPACES
from repro.rdf.terms import IRI, Literal
from repro.store.format import StoredTermDictionary
from repro.store.writer import _DictionaryAppender


def _encoder(*terms):
    """The encoder a build (no terms) or an append (stored ``terms``) uses."""
    return _DictionaryAppender(StoredTermDictionary.of_terms(list(terms)))


class TestTermDictionary:
    def test_encode_assigns_dense_ids(self):
        encoder = _encoder()
        assert encoder.encode(IRI("a")) == 0
        assert encoder.encode(IRI("b")) == 1
        assert encoder.encode(IRI("a")) == 0
        assert encoder.new_terms == [IRI("a"), IRI("b")]

    def test_decode_round_trip(self):
        encoder = _encoder()
        term = Literal("hello")
        term_id = encoder.encode(term)
        assert encoder.decode(term_id) == term
        assert StoredTermDictionary.of_terms(encoder.new_terms).decode(term_id) == term

    def test_decode_unknown_id(self):
        with pytest.raises(KeyError):
            StoredTermDictionary.of_terms([]).decode(3)

    def test_decode_negative_id_rejected(self):
        """Regression: -1 must not alias the last term via list indexing."""
        dictionary = StoredTermDictionary.of_terms([IRI("a"), IRI("b")])
        with pytest.raises(KeyError):
            dictionary.decode(-1)
        with pytest.raises(KeyError):
            dictionary.decode(-2)
        with pytest.raises(KeyError):
            dictionary.decode(len(dictionary))
        with pytest.raises(KeyError):
            _DictionaryAppender(dictionary).decode(-1)

    def test_lookup_without_insert(self):
        dictionary = StoredTermDictionary.of_terms([IRI("a")])
        assert dictionary.lookup(IRI("b")) is None
        assert len(dictionary) == 1
        assert dictionary.lookup(IRI("a")) == 0

    def test_contains(self):
        """A stored term keeps its id; only an unseen one is added, after the stored ids."""
        encoder = _encoder(IRI("a"))
        assert encoder.encode(IRI("a")) == 0
        assert encoder.new_terms == []
        assert encoder.encode(IRI("b")) == 1
        assert encoder.new_terms == [IRI("b")]

    def test_encode_triple_round_trip(self, example_graph):
        encoder = _encoder()
        triple = next(iter(example_graph))
        encoded = tuple(encoder.encode(term) for term in triple)
        assert tuple(encoder.decode(term_id) for term_id in encoded) == tuple(triple)

    def test_from_graph_covers_all_terms(self, example_graph):
        dictionary = S2RDFSession.from_graph(example_graph)._dataset.dictionary
        for triple in example_graph:
            for term in triple:
                term_id = dictionary.lookup(term)
                assert term_id is not None
                assert dictionary.decode(term_id) == term

    def test_average_term_length(self):
        dictionary = StoredTermDictionary.of_terms([IRI("ab"), IRI("abcd")])
        # Each line is the term's N3 plus "\n": <ab> is 5 bytes, <abcd> is 7.
        assert dictionary.committed_bytes / len(dictionary) == pytest.approx(6.0)

    def test_empty_dictionary_average(self, tmp_path):
        dictionary = StoredTermDictionary.of_terms([])
        assert len(dictionary) == 0
        assert dictionary.committed_bytes == 0
        assert dictionary.write(str(tmp_path)) == 0


class TestNamespace:
    def test_term_building(self):
        ns = Namespace("ex", "http://example.org/")
        assert ns.term("Thing") == IRI("http://example.org/Thing")
        assert ns["Thing"] == IRI("http://example.org/Thing")


class TestNamespaceManager:
    def test_expand_known_prefix(self):
        manager = NamespaceManager()
        assert manager.expand("wsdbm:User0") == IRI(WATDIV_NAMESPACES["wsdbm"] + "User0")

    def test_expand_unknown_prefix(self):
        with pytest.raises(KeyError):
            NamespaceManager().expand("nope:User0")

    def test_expand_without_colon(self):
        with pytest.raises(ValueError):
            NamespaceManager().expand("User0")

    def test_try_expand_returns_none(self):
        assert NamespaceManager().try_expand("nope:x") is None

    def test_compact_round_trip(self):
        manager = NamespaceManager()
        iri = manager.expand("sorg:email")
        assert manager.compact(iri) == "sorg:email"

    def test_compact_unknown_base(self):
        manager = NamespaceManager()
        assert manager.compact(IRI("urn:something")) == "<urn:something>"

    def test_bind_new_prefix(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://example.org/")
        assert manager.expand("ex:a") == IRI("http://example.org/a")
        assert manager.compact(IRI("http://example.org/a")) == "ex:a"

    def test_namespace_accessor(self):
        manager = NamespaceManager()
        assert manager.namespace("gr").base == WATDIV_NAMESPACES["gr"]
        with pytest.raises(KeyError):
            manager.namespace("unknown")

    def test_watdiv_prefixes_present(self):
        prefixes = NamespaceManager().namespaces()
        for prefix in ("wsdbm", "sorg", "gr", "rev", "foaf", "og", "mo", "gn", "dc", "rdf"):
            assert prefix in prefixes
