"""RDF data model substrate.

This package provides the minimal but complete RDF machinery that the rest of
the reproduction builds on: term types (:class:`IRI`, :class:`Literal`,
:class:`BlankNode`, :class:`Variable`), triples, an in-memory :class:`Graph`
with predicate/subject/object indexes, N-Triples parsing and serialisation
and namespace handling for the WatDiv vocabulary.  The term dictionary that
maps terms to dense integer ids is the store's
(:class:`repro.store.format.StoredTermDictionary`).
"""

from repro.rdf.terms import IRI, BlankNode, Literal, Term, Variable, term_from_string
from repro.rdf.triple import Triple
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace, NamespaceManager, WATDIV_NAMESPACES
from repro.rdf.ntriples import (
    NTriplesParseError,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
    serialize_term,
)

__all__ = [
    "IRI",
    "BlankNode",
    "Literal",
    "Term",
    "Variable",
    "term_from_string",
    "Triple",
    "Graph",
    "Namespace",
    "NamespaceManager",
    "WATDIV_NAMESPACES",
    "NTriplesParseError",
    "parse_ntriples",
    "parse_ntriples_line",
    "serialize_ntriples",
    "serialize_term",
]
