"""Table selection (Algorithm 1 of the paper).

For a triple pattern ``tp_i`` inside a BGP, the selector starts from the VP
table of the pattern's predicate and then walks over all *other* triple
patterns, checking for SS, SO and OS correlations.  Whenever a materialised
ExtVP table with a better (smaller) selectivity factor exists, it becomes the
new candidate.  Statistics about empty tables allow the compiler to prove a
query empty without executing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mappings.extvp import CorrelationKind
from repro.mappings.naming import triples_table_name
from repro.rdf.terms import IRI, Variable
from repro.sparql.algebra import TriplePattern
from repro.store.view import StoreView


@dataclass(frozen=True)
class TableChoice:
    """The table selected to answer one triple pattern."""

    table_name: str
    row_count: int
    selectivity: float
    source: str  # "vp", "extvp", "triples" or "empty"
    kind: Optional[CorrelationKind] = None
    correlated_predicate: Optional[IRI] = None

    @property
    def is_empty(self) -> bool:
        return self.selectivity == 0.0 or self.row_count == 0

    @property
    def is_triples_table(self) -> bool:
        return self.source == "triples"


@dataclass(frozen=True)
class CandidateTable:
    """One candidate considered during selection (kept for EXPLAIN output)."""

    table_name: str
    row_count: int
    selectivity: float
    kind: CorrelationKind
    correlated_predicate: IRI
    materialized: bool


class TableSelector:
    """Implements Algorithm 1 over a :class:`~repro.store.view.StoreView`."""

    def __init__(self, layout: StoreView, use_extvp: bool = True) -> None:
        self.layout = layout
        self.use_extvp = use_extvp

    # ------------------------------------------------------------------ #
    def candidates(self, pattern: TriplePattern, bgp: Sequence[TriplePattern]) -> List[CandidateTable]:
        """All ExtVP candidates for ``pattern`` given its correlations in ``bgp``."""
        if not isinstance(pattern.predicate, IRI):
            return []
        found: List[CandidateTable] = []
        predicate = pattern.predicate
        for other in bgp:
            if other is pattern:
                continue
            if not isinstance(other.predicate, IRI):
                continue
            for kind, my_term, other_term in (
                (CorrelationKind.SS, pattern.subject, other.subject),
                (CorrelationKind.SO, pattern.subject, other.object),
                (CorrelationKind.OS, pattern.object, other.subject),
            ):
                if not isinstance(my_term, Variable) or not isinstance(other_term, Variable):
                    continue
                if my_term != other_term:
                    continue
                if kind == CorrelationKind.SS and predicate == other.predicate:
                    continue
                info = self.layout.extvp_info(kind, predicate, other.predicate)
                if info is None:
                    continue
                found.append(
                    CandidateTable(
                        table_name=info.name,
                        row_count=info.row_count,
                        selectivity=info.selectivity,
                        kind=kind,
                        correlated_predicate=other.predicate,
                        materialized=info.materialized,
                    )
                )
        return found

    def select(self, pattern: TriplePattern, bgp: Sequence[TriplePattern]) -> TableChoice:
        """Algorithm 1: pick the most selective usable table for ``pattern``."""
        # Line 1: unbound predicate -> base triples table.
        if isinstance(pattern.predicate, Variable):
            triples_name = triples_table_name()
            statistics = self.layout.catalog.statistics(triples_name)
            row_count = statistics.row_count if statistics is not None else 0
            return TableChoice(triples_name, row_count, 1.0, source="triples")

        predicate = pattern.predicate
        vp_name = self.layout.vp_table_name(predicate)
        if vp_name is None:
            # The predicate does not occur in the data at all: provably empty.
            return TableChoice(f"vp_missing_{predicate.local_name()}", 0, 0.0, source="empty")

        best = TableChoice(vp_name, self.layout.vp_size(predicate), 1.0, source="vp")
        if not self.use_extvp:
            return best

        for candidate in self.candidates(pattern, bgp):
            if candidate.row_count == 0:
                # An empty correlation proves the whole BGP result empty
                # regardless of materialisation (statistics-only knowledge).
                return TableChoice(
                    candidate.table_name,
                    0,
                    0.0,
                    source="empty",
                    kind=candidate.kind,
                    correlated_predicate=candidate.correlated_predicate,
                )
            if not candidate.materialized:
                continue
            if candidate.selectivity < best.selectivity:
                best = TableChoice(
                    candidate.table_name,
                    candidate.row_count,
                    candidate.selectivity,
                    source="extvp",
                    kind=candidate.kind,
                    correlated_predicate=candidate.correlated_predicate,
                )
        return best
