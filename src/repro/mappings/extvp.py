"""Extended Vertical Partitioning — the paper's core contribution (Sec. 5).

For every ordered pair of predicates ``(p1, p2)`` and every correlation kind
the query compiler can encounter (SS, OS, SO — OO is skipped by design,
Sec. 5.2), ExtVP keeps the semi-join reduction of the VP table of ``p1``
against the VP table of ``p2``::

    ExtVP_SS[p1|p2] = VP_p1 ⋉(s=s) VP_p2
    ExtVP_OS[p1|p2] = VP_p1 ⋉(o=s) VP_p2
    ExtVP_SO[p1|p2] = VP_p1 ⋉(s=o) VP_p2

Tables that are empty or equal to the VP table (selectivity factor SF = 0 or
SF = 1) are not stored, and an optional SF threshold drops tables whose
reduction is too small to pay for their storage (Sec. 5.3).  Statistics are
kept for every correlation with rows, materialised or not, so the compiler can
pick the most selective candidate; a correlation without an entry is empty,
which lets it short-circuit queries whose correlations do not exist in the
data (Sec. 6.1) without an entry per empty table.

The paper runs each reduction as a Spark ``LEFT SEMI JOIN`` because each is
its own Parquet table.  Here a reduction is stored as a bitmap over its VP
table's rows, so it is computed where it is stored, in dictionary-id space:
:func:`compute_incremental_extvp` tests each row's join id against the other
table's id value set.  An append runs it over the batch against the stored
state; a build (:meth:`repro.store.writer.DatasetWriter.lay_out`) is the
append of every triple to an empty store.  The compiler reads the outcome
from the store's manifest (:class:`repro.store.view.StoreView`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.rdf.terms import IRI


class CorrelationKind(str, Enum):
    """The correlation kinds ExtVP precomputes (Fig. 9)."""

    SS = "ss"
    OS = "os"
    SO = "so"
    OO = "oo"  # only built when explicitly requested (ablation study)


@dataclass
class ExtVPTableInfo:
    """Statistics about one ExtVP table (materialised or not)."""

    name: str
    kind: CorrelationKind
    first: IRI
    second: IRI
    row_count: int
    vp_row_count: int
    materialized: bool

    @property
    def selectivity(self) -> float:
        """SF(ExtVP_p1|p2) = |ExtVP_p1|p2| / |VP_p1| (Sec. 5.3)."""
        if self.vp_row_count == 0:
            return 0.0
        return self.row_count / self.vp_row_count

    @property
    def is_empty(self) -> bool:
        return self.row_count == 0


@dataclass
class ExtVPStatistics:
    """The statistics of the correlations with rows, indexed by (kind, p1, p2).

    A maintained correlation (:func:`correlation_keys`) without an entry is
    empty: no entry is ever held for an empty one.
    """

    tables: Dict[Tuple[CorrelationKind, IRI, IRI], ExtVPTableInfo] = field(default_factory=dict)

    def add(self, info: ExtVPTableInfo) -> None:
        self.tables[(info.kind, info.first, info.second)] = info

    def lookup(self, kind: CorrelationKind, first: IRI, second: IRI) -> Optional[ExtVPTableInfo]:
        return self.tables.get((kind, first, second))

    def __len__(self) -> int:
        return len(self.tables)

    def materialized(self) -> List[ExtVPTableInfo]:
        return [info for info in self.tables.values() if info.materialized]

    def total_materialized_tuples(self) -> int:
        return sum(info.row_count for info in self.tables.values() if info.materialized)


# The join column of the *reduced* table and of the *other* table per kind.
KIND_JOIN_COLUMNS: Dict[CorrelationKind, Tuple[str, str]] = {
    CorrelationKind.SS: ("s", "s"),
    CorrelationKind.OS: ("o", "s"),
    CorrelationKind.SO: ("s", "o"),
    CorrelationKind.OO: ("o", "o"),
}


def correlation_kinds(include_oo: bool = False) -> List[CorrelationKind]:
    """The correlation kinds a layout maintains (OO only for the ablation)."""
    kinds = [CorrelationKind.SS, CorrelationKind.OS, CorrelationKind.SO]
    if include_oo:
        kinds.append(CorrelationKind.OO)
    return kinds


def correlation_keys(predicates: Sequence, include_oo: bool = False) -> List[Tuple]:
    """Every ``(kind, first, second)`` a layout over ``predicates`` maintains.

    The kinds of :func:`correlation_kinds` for every ordered pair, except SS
    of a predicate with itself (that table is its VP table); listed by first
    predicate, then second, then kind.  ``predicates`` must be distinct; they
    may stand in for the predicates, as their manifest indexes do.
    :func:`is_correlation_key` tests one key against the same rule.
    """
    kinds = correlation_kinds(include_oo)
    return [
        (kind, first, second)
        for first in predicates
        for second in predicates
        for kind in kinds
        if kind is not CorrelationKind.SS or first != second
    ]


def is_correlation_key(kind: CorrelationKind, first, second, include_oo: bool = False) -> bool:
    """Whether :func:`correlation_keys` lists ``(kind, first, second)``, without listing them."""
    return kind in correlation_kinds(include_oo) and (
        kind is not CorrelationKind.SS or first != second
    )


def materialization_rule(
    row_count: int, vp_row_count: int, selectivity_threshold: float
) -> Tuple[float, bool]:
    """The paper's materialisation decision, shared by build and append.

    Returns ``(selectivity, materialize)``: tables that are empty, equal to
    their VP table (SF >= 1) or above the SF threshold are kept as statistics
    only (Sec. 5.3).
    """
    selectivity = 0.0 if vp_row_count == 0 else row_count / vp_row_count
    materialize = (
        row_count > 0
        and selectivity < 1.0
        and (selectivity_threshold >= 1.0 or selectivity < selectivity_threshold)
        and selectivity_threshold > 0.0
    )
    return selectivity, materialize


@dataclass
class ExtVPDelta:
    """Incremental-maintenance outcome for one affected ExtVP table.

    ``rows`` are the *newly qualifying* semi-join rows — rows of ``VP_first``
    (old or appended) that now satisfy the correlation but did not before the
    append.  ``info`` carries the post-append statistics.  A table that is not
    materialised only counts its rows into them: nothing is written, and its
    ``rows`` is empty.

    ``distinct_subjects`` / ``distinct_objects`` are the *exact* post-append
    distinct counts of the full table (old qualifying rows plus the delta),
    computed from the in-memory VP rows — the store never has to re-read a
    delta'd ExtVP table to keep its zone statistics exact.  ``None`` means
    "unchanged": the delta carried no new rows (a denominator-only
    selectivity update), so the stored counts are still exact.
    """

    info: ExtVPTableInfo
    rows: List[Tuple]
    distinct_subjects: Optional[int] = None
    distinct_objects: Optional[int] = None


#: The columns of a VP table, as :data:`KIND_JOIN_COLUMNS` names them.
_COLUMNS = ("s", "o")

#: column -> predicate -> a set of its values.
_ColumnValues = Dict[str, Dict[IRI, AbstractSet[int]]]


def _reached_keys(
    statistics: ExtVPStatistics,
    predicates: Sequence[IRI],
    changed: AbstractSet[IRI],
    include_oo: bool,
    old: _ColumnValues,
    new: _ColumnValues,
    added: _ColumnValues,
) -> List[Tuple[CorrelationKind, IRI, IRI]]:
    """The correlations an append can change, in :func:`correlation_keys` order.

    ``old``, ``new`` and ``added`` are the values of each column before the
    append, of the batch's rows, and of those new to the column.
    ``ExtVP_kind[first|second]`` changes only if

    * a new ``VP_first`` row's join value is in ``VP_second``'s post-append
      join column,
    * a value new to ``VP_second``'s join column is in ``VP_first``'s old
      join column (old ``VP_first`` rows are revived), or
    * it has an entry and ``first`` got rows (its ``|VP_first|`` moved).

    The first two are found from the batch's values: which predicates'
    columns hold them costs one intersection with the batch per predicate and
    column, so the work follows the batch, not the |predicates|² key space.
    """
    batch_values = set().union(*new["s"].values(), *new["o"].values())
    added_values = set().union(*added["s"].values(), *added["o"].values())
    #: column -> batch value -> the predicates whose post-append column holds it.
    holders_after: Dict[str, Dict[int, List[IRI]]] = {"s": {}, "o": {}}
    #: column -> value new to a column -> the predicates whose old column holds it.
    holders_before: Dict[str, Dict[int, List[IRI]]] = {"s": {}, "o": {}}
    for predicate in predicates:
        for column in _COLUMNS:
            old_values = old[column][predicate]
            after = holders_after[column]
            for value in (old_values & batch_values) | new[column][predicate]:
                after.setdefault(value, []).append(predicate)
            before = holders_before[column]
            for value in old_values & added_values:
                before.setdefault(value, []).append(predicate)

    reached: Set[Tuple[CorrelationKind, IRI, IRI]] = {
        key for key, info in statistics.tables.items() if info.first in changed
    }
    kinds = correlation_kinds(include_oo)
    for kind in kinds:
        first_column, second_column = KIND_JOIN_COLUMNS[kind]
        after = holders_after[second_column]
        before = holders_before[first_column]
        for predicate in changed:
            seconds: Set[IRI] = set()
            for value in new[first_column][predicate]:
                seconds.update(after.get(value, ()))
            firsts: Set[IRI] = set()
            for value in added[second_column][predicate]:
                firsts.update(before.get(value, ()))
            reached.update((kind, predicate, second) for second in seconds)
            reached.update((kind, first, predicate) for first in firsts)
    if CorrelationKind.SS in kinds:
        reached.difference_update((CorrelationKind.SS, p, p) for p in changed)
    order = {predicate: index for index, predicate in enumerate(predicates)}
    kind_order = {kind: index for index, kind in enumerate(kinds)}
    return sorted(reached, key=lambda key: (order[key[1]], order[key[2]], kind_order[key[0]]))


def compute_incremental_extvp(
    statistics: ExtVPStatistics,
    source,
    additions: Mapping[IRI, Sequence[Tuple]],
    name_for: Callable[[CorrelationKind, IRI, IRI], str],
    selectivity_threshold: float,
    include_oo: bool = False,
) -> List[ExtVPDelta]:
    """Incrementally maintain ExtVP for an append, touching the reached correlations only.

    A build is the append of every VP row to an empty ``source``: it yields
    every (kind, first, second) entry with rows, materialised or not, each
    with the rows that qualify and exact distinct counts.  A correlation
    without rows yields nothing, at a build and at an append alike: it stays
    without an entry, which is what says it is empty.

    ``source`` is the pre-append VP state, lazily: it exposes
    ``predicates()``, ``row_count()``, ``subjects()``, ``objects()`` and
    ``rows()`` (the dataset store's appender serves it from the manifest's
    value sets and the session's decoded table columns).  Pair evaluation
    runs on the value sets alone; ``rows()`` is called only when a non-empty
    intersection proves old ``VP_first`` rows can actually appear in a delta
    — so a source backed by persisted value sets never touches stored
    segments for an append of fresh terms.
    ``additions`` maps predicates to the *new* rows of this append.  The
    caller must pre-deduplicate: ``additions[p]`` contains no row already in
    the old ``VP_p`` and no within-batch duplicates (VP tables are derived
    from a triple *set*).  ``statistics`` must describe ``source``: an
    entry's ``vp_row_count`` is the row count of its ``first``.

    The maintenance identity: after appending, the delta of
    ``ExtVP_kind[p1|p2]`` is exactly

    * new ``VP_p1`` rows whose join value occurs in ``VP_p2``'s post-append
      join column, plus
    * old ``VP_p1`` rows whose join value is *new to* ``VP_p2``'s join column
      (a value absent before the append cannot have matched before, so these
      rows are provably not in the old ExtVP table — no dedup needed).

    So only three sets of correlations can change (:func:`_reached_keys`):
    those whose first side's new join values meet the second side's
    post-append column, those whose second side's new values meet the first
    side's old column, and the entries whose ``|VP_p1|`` denominator moved.
    They are found from the batch's values and evaluated in
    :func:`correlation_keys` order; every other correlation is provably
    unchanged and is not visited.  The work is O(|batch values| *
    |predicates|) set lookups plus the reached pairs — on the benchmark store
    about as many as the deltas emitted — instead of every key with a changed
    side.  A pair without an entry — a new predicate's, or one empty until
    this append — that gains rows is decided by the materialisation rule, as
    a build decides it: its delta rows are then the whole table.  Entries
    that already have rows keep their materialisation flag — re-deciding it
    would require rewriting history (a previously dropped table has no
    stored rows to extend), which is compaction/rebuild territory, not append
    territory.  Correctness never depends on the flag: a non-materialised
    non-empty table is simply skipped by table selection in favour of the VP
    table.
    """
    changed = {p for p, rows in additions.items() if rows}
    if not changed:
        return []
    predicates = sorted(set(source.predicates()) | changed, key=lambda p: p.value)

    #: Per column: the values before the append, those of the new rows, and
    #: those of them new to the column.
    old: _ColumnValues = {"s": {}, "o": {}}
    new: _ColumnValues = {"s": {}, "o": {}}
    added: _ColumnValues = {"s": {}, "o": {}}
    for predicate in predicates:
        new_rows = additions.get(predicate, ())
        for index, column in enumerate(_COLUMNS):
            old_values = old[column][predicate] = (
                source.subjects(predicate) if column == "s" else source.objects(predicate)
            )
            new_values = new[column][predicate] = {row[index] for row in new_rows}
            # Before a build nothing is old: every new value is added (no copy).
            added[column][predicate] = new_values - old_values if old_values else new_values

    # Inverted index: (first, column) -> {join value: rows}.  Finding the old
    # rows that newly qualify then costs O(|values new to p2's column|)
    # lookups instead of a full scan of VP_first per affected pair.  Built
    # from ``source.rows`` — the one expensive call — and only behind an
    # intersection guard proving the index will be consulted with hits.
    indexes: Dict[Tuple[IRI, int], Dict] = {}

    def old_rows_by_value(first: IRI, value_index: int) -> Dict:
        index = indexes.get((first, value_index))
        if index is None:
            index = {}
            for row in source.rows(first):
                index.setdefault(row[value_index], []).append(row)
            indexes[(first, value_index)] = index
        return index

    vp_after = {p: source.row_count(p) + len(additions.get(p, ())) for p in predicates}
    deltas: List[ExtVPDelta] = []
    for kind, first, second in _reached_keys(
        statistics, predicates, changed, include_oo, old, new, added
    ):
        new_first_rows = additions.get(first, ())
        first_column, second_column = KIND_JOIN_COLUMNS[kind]
        value_index = _COLUMNS.index(first_column)
        first_values_old = old[first_column][first]
        first_values_new = new[first_column][first]
        second_values_old = old[second_column][second]
        second_values_added = added[second_column][second]
        if first_values_new.isdisjoint(second_values_old) and first_values_new.isdisjoint(
            second_values_added
        ):
            rows = []  # no new VP_first row can match: skip the pass
        else:
            rows = [
                row
                for row in new_first_rows
                if row[value_index] in second_values_old
                or row[value_index] in second_values_added
            ]
        if second_values_added & first_values_old:
            # Old VP_first rows revived by values new to VP_second's join
            # column.  The guard is what keeps a fresh-term append O(batch):
            # no overlap, no segment read.
            index = old_rows_by_value(first, value_index)
            for value in second_values_added:
                rows.extend(index.get(value, ()))
        info = statistics.lookup(kind, first, second)
        if info is not None:
            if not rows and vp_after[first] == info.vp_row_count:
                continue  # provably untouched: no new rows, same denominator
            row_count = info.row_count + len(rows)
            materialized = info.materialized
            name = info.name
        elif rows:
            # New, or empty until now: ``rows`` is the whole table.
            row_count = len(rows)
            _, materialized = materialization_rule(
                row_count, vp_after[first], selectivity_threshold
            )
            name = name_for(kind, first, second)
        else:
            continue  # still empty, so still without an entry
        distinct_subjects: Optional[int] = None
        distinct_objects: Optional[int] = None
        if rows:
            # The post-append table is fully determined by the VP rows: old
            # VP_first rows whose join value matched before the append, plus
            # the delta rows (which already cover both newly-added VP_first
            # rows and old rows revived by values new to VP_second).  Folding
            # the old qualifying rows in here keeps the stored distinct counts
            # exact without re-reading the stored ExtVP table — and the
            # intersection guard skips the VP_first read entirely when the
            # value sets prove no old row ever matched.
            subjects = {row[0] for row in rows}
            objects = {row[1] for row in rows}
            matched_old = second_values_old & first_values_old
            if matched_old:
                index = old_rows_by_value(first, value_index)
                for value in matched_old:
                    for row in index.get(value, ()):
                        subjects.add(row[0])
                        objects.add(row[1])
            distinct_subjects = len(subjects)
            distinct_objects = len(objects)
        deltas.append(
            ExtVPDelta(
                info=ExtVPTableInfo(
                    name=name,
                    kind=kind,
                    first=first,
                    second=second,
                    row_count=row_count,
                    vp_row_count=vp_after[first],
                    materialized=materialized,
                ),
                rows=rows if materialized else [],
                distinct_subjects=distinct_subjects,
                distinct_objects=distinct_objects,
            )
        )
    return deltas
