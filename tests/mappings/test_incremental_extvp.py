"""Incremental ExtVP maintenance against the exhaustive walk it replaced.

:func:`repro.mappings.extvp.compute_incremental_extvp` evaluates only the
correlations an append's batch reaches.  Over random small VP states in id
space — domains small enough that values collide across predicates and
columns — its deltas must be the reference's (:mod:`mappings.extvp_walk`):
the same correlations in the same order, with the same statistics, rows and
distinct counts.
"""

from typing import Dict, List, Set, Tuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.mappings.extvp as extvp_mod
from mappings.extvp_walk import exhaustive_incremental_extvp
from repro.mappings.extvp import ExtVPStatistics, compute_incremental_extvp
from repro.rdf.terms import IRI

PREDICATES = [IRI(f"p{i}") for i in range(4)]
ID_DOMAIN = 6

Rows = Dict[IRI, List[Tuple[int, int]]]


class VPState:
    """A pre-append VP state held in memory: the source interface the
    appender's stored state serves."""

    def __init__(self, rows: Rows) -> None:
        self._rows = rows

    def predicates(self) -> List[IRI]:
        return list(self._rows)

    def row_count(self, predicate: IRI) -> int:
        return len(self._rows.get(predicate, ()))

    def subjects(self, predicate: IRI) -> Set[int]:
        return {row[0] for row in self._rows.get(predicate, ())}

    def objects(self, predicate: IRI) -> Set[int]:
        return {row[1] for row in self._rows.get(predicate, ())}

    def rows(self, predicate: IRI) -> List[Tuple[int, int]]:
        return list(self._rows.get(predicate, ()))


def name_for(kind, first, second) -> str:
    return f"extvp_{kind.value}_{first.value}_{second.value}"


pairs = st.tuples(st.integers(0, ID_DOMAIN - 1), st.integers(0, ID_DOMAIN - 1))
#: Per predicate a list of rows; repeats and rows of the old table included.
tables = st.dictionaries(st.sampled_from(PREDICATES), st.lists(pairs, max_size=8), max_size=4)


def old_state(tables: Rows) -> Rows:
    """The stored VP tables: a predicate has rows, and a row is there once."""
    ordered = sorted(tables.items(), key=lambda item: item[0].value)
    return {predicate: sorted(set(rows)) for predicate, rows in ordered if rows}


def deduplicated(batch: Rows, old: Rows) -> Rows:
    """What the appender hands on: no row already stored or repeated in the
    batch.  A predicate all of whose rows were duplicates keeps an empty list."""
    additions: Rows = {}
    for predicate, rows in batch.items():
        stored = set(old.get(predicate, ()))
        kept: List[Tuple[int, int]] = []
        for row in rows:
            if row not in stored and row not in kept:
                kept.append(row)
        additions[predicate] = kept
    return additions


def statistics_of(old: Rows, threshold: float, include_oo: bool) -> ExtVPStatistics:
    """The statistics a store over ``old`` holds: those of its build."""
    statistics = ExtVPStatistics()
    for delta in exhaustive_incremental_extvp(
        ExtVPStatistics(), VPState({}), old, name_for, threshold, include_oo
    ):
        statistics.add(delta.info)
    return statistics


@settings(max_examples=300, deadline=None)
@given(
    stored=tables,
    batch=tables,
    threshold=st.sampled_from([1.0, 0.25]),
    include_oo=st.booleans(),
    build=st.booleans(),
)
# Old p0 rows revived by an object new to p1's subjects; a new predicate; a
# batch row that is already stored.
@example(
    stored={PREDICATES[0]: [(0, 1), (2, 1)], PREDICATES[1]: [(3, 4)]},
    batch={PREDICATES[1]: [(1, 5), (3, 4)], PREDICATES[2]: [(4, 0)]},
    threshold=0.25,
    include_oo=False,
    build=False,
)
def test_reached_correlations_give_the_exhaustive_walks_deltas(
    stored, batch, threshold, include_oo, build
):
    old = {} if build else old_state(stored)
    statistics = statistics_of(old, threshold, include_oo)
    additions = deduplicated(batch, old)
    arguments = (statistics, VPState(old), additions, name_for, threshold, include_oo)

    expected = exhaustive_incremental_extvp(*arguments)
    evaluated: List[list] = []
    real = extvp_mod._reached_keys

    def spy(*args):
        evaluated.append(real(*args))
        return evaluated[-1]

    with mock.patch.object(extvp_mod, "_reached_keys", spy):
        deltas = compute_incremental_extvp(*arguments)
    assert deltas == expected
    # Every correlation it evaluates yields a delta: none is walked in vain.
    keys = [(delta.info.kind, delta.info.first, delta.info.second) for delta in deltas]
    assert keys == (evaluated[0] if evaluated else [])
