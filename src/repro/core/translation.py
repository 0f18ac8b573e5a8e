"""Triple pattern to SQL translation (Algorithm 2 of the paper).

Every triple pattern becomes a ``SELECT ... FROM <table> [WHERE ...]``
subquery: variables rename the physical columns to variable names (so the
surrounding joins are natural joins on variable names) and bound subject /
object values become equality conditions.  A bound predicate is already
implied by the chosen VP/ExtVP table; for the triples table it becomes an
additional condition on the ``p`` column.  A pattern without a variable
projects no column: it holds (one empty solution) or not (none), and joins
as a cross product.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.table_selection import TableChoice
from repro.engine.ops import SubqueryNode
from repro.rdf.terms import Term, Variable
from repro.sparql.algebra import TriplePattern


def triple_pattern_to_subquery(pattern: TriplePattern, choice: TableChoice) -> SubqueryNode:
    """Build the subquery plan node for ``pattern`` over the selected table."""
    projections: List[Tuple[str, str]] = []
    conditions: List[Tuple[str, Term]] = []

    def handle(position_column: str, term: Term) -> None:
        if isinstance(term, Variable):
            projections.append((position_column, term.name))
        else:
            conditions.append((position_column, term))

    handle("s", pattern.subject)
    if choice.is_triples_table:
        handle("p", pattern.predicate)
    # For VP/ExtVP tables a bound predicate is implied by the table itself.
    handle("o", pattern.object)
    return SubqueryNode(
        table_name=choice.table_name,
        projections=tuple(projections),
        conditions=tuple(conditions),
    )
