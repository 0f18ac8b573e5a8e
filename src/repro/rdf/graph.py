"""In-memory RDF graph with lookup indexes.

The :class:`Graph` is the substrate every relational mapping is derived from.
It keeps three hash indexes (by subject, by predicate, by object) so that the
baseline engines can enumerate triples
by any bound component without scanning the whole graph.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf.terms import IRI, Term
from repro.rdf.triple import Triple


class Graph:
    """A set of RDF triples forming a directed labelled graph."""

    def __init__(self, triples: Optional[Iterable[Triple]] = None, name: str = "default") -> None:
        self.name = name
        self._triples: Set[Triple] = set()
        self._by_subject: Dict[Term, Set[Triple]] = defaultdict(set)
        self._by_predicate: Dict[Term, Set[Triple]] = defaultdict(set)
        self._by_object: Dict[Term, Set[Triple]] = defaultdict(set)
        if triples is not None:
            for triple in triples:
                self.add(triple)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add a triple; return ``True`` when it was not yet present."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_subject[triple.subject].add(triple)
        self._by_predicate[triple.predicate].add(triple)
        self._by_object[triple.object].add(triple)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples, returning the number of new ones."""
        return sum(1 for triple in triples if self.add(triple))

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present; return ``True`` when it was removed."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        self._by_subject[triple.subject].discard(triple)
        self._by_predicate[triple.predicate].discard(triple)
        self._by_object[triple.object].discard(triple)
        return True

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def predicates(self) -> List[IRI]:
        """Return the distinct predicates, sorted for deterministic output."""
        return sorted((p for p in self._by_predicate if self._by_predicate[p]), key=lambda p: p.value)

    def subjects(self) -> Set[Term]:
        return {s for s, triples in self._by_subject.items() if triples}

    def objects(self) -> Set[Term]:
        return {o for o, triples in self._by_object.items() if triples}

    def predicate_count(self, predicate: Term) -> int:
        """Number of triples using ``predicate`` (the size of its VP table)."""
        return len(self._by_predicate.get(predicate, ()))

    def predicate_histogram(self) -> Dict[IRI, int]:
        """Map each predicate to its triple count."""
        return {p: len(ts) for p, ts in self._by_predicate.items() if ts}

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #
    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching the given bound components.

        ``None`` acts as a wildcard.  The most selective available index is
        used to seed the scan.
        """
        candidates: Iterable[Triple]
        if subject is not None and subject in self._by_subject:
            candidates = self._by_subject[subject]
        elif object is not None and object in self._by_object:
            candidates = self._by_object[object]
        elif predicate is not None and predicate in self._by_predicate:
            candidates = self._by_predicate[predicate]
        elif subject is not None or predicate is not None or object is not None:
            # A bound component that does not occur in the graph matches nothing.
            if (
                (subject is not None and subject not in self._by_subject)
                or (predicate is not None and predicate not in self._by_predicate)
                or (object is not None and object not in self._by_object)
            ):
                return
            candidates = self._triples
        else:
            candidates = self._triples
        for triple in candidates:
            if subject is not None and triple.subject != subject:
                continue
            if predicate is not None and triple.predicate != predicate:
                continue
            if object is not None and triple.object != object:
                continue
            yield triple

    def subject_object_pairs(self, predicate: Term) -> Iterator[Tuple[Term, Term]]:
        """Iterate over the (subject, object) pairs of one predicate.

        This is exactly the content of the predicate's VP table.
        """
        for triple in self._by_predicate.get(predicate, ()):
            yield triple.subject, triple.object

    # ------------------------------------------------------------------ #
    # Set operations
    # ------------------------------------------------------------------ #
    def union(self, other: "Graph") -> "Graph":
        result = Graph(self._triples, name=f"{self.name}+{other.name}")
        result.add_all(other)
        return result

    def copy(self) -> "Graph":
        return Graph(self._triples, name=self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Graph(name={self.name!r}, triples={len(self)})"
