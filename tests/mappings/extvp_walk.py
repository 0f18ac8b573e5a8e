"""The exhaustive walk of incremental ExtVP maintenance: the product's reference.

:func:`repro.mappings.extvp.compute_incremental_extvp` evaluates only the
correlations an append's batch can reach.  This module keeps the walk it
replaced: every ``(kind, first, second)`` of :func:`correlation_keys` over the
post-append predicates is visited, and each pair with a changed side runs the
pair body, whose value-set guards decide whether it yields a delta.  Both must
yield the same deltas in the same order::

    exhaustive_incremental_extvp(statistics, source, additions, name_for, threshold)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.mappings.extvp import (
    KIND_JOIN_COLUMNS,
    CorrelationKind,
    ExtVPDelta,
    ExtVPStatistics,
    ExtVPTableInfo,
    correlation_keys,
    materialization_rule,
)
from repro.rdf.terms import IRI


def exhaustive_incremental_extvp(
    statistics: ExtVPStatistics,
    source,
    additions: Mapping[IRI, Sequence[Tuple]],
    name_for: Callable[[CorrelationKind, IRI, IRI], str],
    selectivity_threshold: float,
    include_oo: bool = False,
) -> List[ExtVPDelta]:
    """The deltas of an append, from every maintained key of the post-append
    predicates: each pair with a changed side runs the pair body."""
    changed = {p for p, rows in additions.items() if rows}
    if not changed:
        return []
    predicates = sorted(set(source.predicates()) | changed, key=lambda p: p.value)

    subjects_old: Dict[IRI, Set] = {}
    objects_old: Dict[IRI, Set] = {}
    #: The values of the new rows, and those of them new to the column.
    subjects_new: Dict[IRI, Set] = {}
    objects_new: Dict[IRI, Set] = {}
    subjects_added: Dict[IRI, Set] = {}
    objects_added: Dict[IRI, Set] = {}
    for predicate in predicates:
        subjects_old[predicate] = source.subjects(predicate)
        objects_old[predicate] = source.objects(predicate)
        new_rows = additions.get(predicate, ())
        new_subjects = subjects_new[predicate] = {row[0] for row in new_rows}
        new_objects = objects_new[predicate] = {row[1] for row in new_rows}
        # Before a build nothing is old: every new value is added (no copy).
        old = subjects_old[predicate]
        subjects_added[predicate] = new_subjects - old if old else new_subjects
        old = objects_old[predicate]
        objects_added[predicate] = new_objects - old if old else new_objects

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
    for kind, first, second in correlation_keys(predicates, include_oo):
        if first not in changed and second not in changed:
            continue
        new_first_rows = additions.get(first, ())
        first_column, second_column = KIND_JOIN_COLUMNS[kind]
        value_index = 0 if first_column == "s" else 1
        first_values_old = subjects_old[first] if first_column == "s" else objects_old[first]
        first_values_new = subjects_new[first] if first_column == "s" else objects_new[first]
        second_values_old = subjects_old[second] if second_column == "s" else objects_old[second]
        second_values_added = (
            subjects_added[second] if second_column == "s" else objects_added[second]
        )
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
