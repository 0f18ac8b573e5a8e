"""ExtVP by its definition, over relations of terms: the oracles' reference.

The store computes ExtVP in id space, as bitmaps over its VP tables' stored
rows (:meth:`repro.store.writer.DatasetWriter.lay_out`).  This module
computes the same tables the way the paper defines them (Sec. 5), sharing
none of that code: the VP tables are the graph's subject/object pairs per
predicate, each ExtVP table is the semi-join ``VP_p1 ⋉ VP_p2`` on the
columns its correlation kind names, all are relations of terms registered
in a catalog, and the materialisation rule of Sec. 5.3 decides which are
stored.  The row oracle and the sqlite oracle read it;
:func:`reference_layout` also gives the compiler the statistics it plans
with, through a :class:`~repro.store.view.StoreView` of a manifest that
holds nothing but them::

    layout = reference_layout(graph)
    RowOracle(layout.catalog).execute(QueryCompiler(TableSelector(layout)).compile(query).plan)
"""

from __future__ import annotations

from repro.engine.catalog import Catalog
from repro.engine.relation import Relation
from repro.mappings.extvp import CorrelationKind, ExtVPStatistics, ExtVPTableInfo
from repro.mappings.naming import TRIPLES_TABLE, build_unique_keys, correlation_table_name
from repro.rdf.graph import Graph
from repro.store.format import FORMAT_VERSION, Manifest
from repro.store.view import StoreView

#: The join column of ``VP_p1`` and of ``VP_p2`` per correlation (Fig. 9).
JOIN_COLUMNS = {
    CorrelationKind.SS: ("s", "s"),
    CorrelationKind.OS: ("o", "s"),
    CorrelationKind.SO: ("s", "o"),
    CorrelationKind.OO: ("o", "o"),
}


def semi_join(vp_first: Relation, kind: CorrelationKind, vp_second: Relation) -> Relation:
    """``VP_first ⋉ VP_second`` on the columns ``kind`` joins."""
    first_column, second_column = JOIN_COLUMNS[kind]
    values = set(vp_second.column_values(second_column))
    index = vp_first.column_index(first_column)
    return Relation(vp_first.columns, [row for row in vp_first.rows if row[index] in values])


def reference_layout(
    graph: Graph, selectivity_threshold: float = 1.0, include_oo: bool = False
) -> StoreView:
    """A layout whose catalog holds the triples table, every VP table and
    every stored ExtVP table as a relation, and whose statistics cover every
    correlation.

    A table is stored when ``0 < SF < selectivity_threshold`` (Sec. 5.3: not
    empty, not equal to its VP table, selective enough); the others are
    statistics only.  SS is not built for a predicate with itself, OO only
    with ``include_oo``.
    """
    catalog = Catalog()
    predicates = graph.predicates()
    keys = build_unique_keys(predicates)
    vp_tables = {predicate: f"vp_{keys[predicate]}" for predicate in predicates}
    vp = {
        predicate: Relation(("s", "o"), list(graph.subject_object_pairs(predicate)))
        for predicate in predicates
    }
    for predicate, relation in vp.items():
        catalog.register(vp_tables[predicate], relation)
    catalog.register(TRIPLES_TABLE, Relation(("s", "p", "o"), [t.as_tuple() for t in graph]))
    kinds = [CorrelationKind.SS, CorrelationKind.OS, CorrelationKind.SO]
    if include_oo:
        kinds.append(CorrelationKind.OO)
    statistics = ExtVPStatistics()
    for first in predicates:
        vp_first = vp[first]
        for second in predicates:
            for kind in kinds:
                if kind == CorrelationKind.SS and first == second:
                    continue
                name = correlation_table_name(kind.value, vp_tables[first], vp_tables[second])
                reduced = semi_join(vp_first, kind, vp[second])
                selectivity = len(reduced) / len(vp_first)
                materialized = 0.0 < selectivity < selectivity_threshold
                statistics.add(
                    ExtVPTableInfo(
                        name, kind, first, second, len(reduced), len(vp_first), materialized
                    )
                )
                if materialized:
                    catalog.register(name, reduced, selectivity=selectivity)
                else:
                    catalog.register_statistics_only(name, len(reduced), selectivity)
    manifest = Manifest(
        format_version=FORMAT_VERSION,
        layout_name="extvp",
        num_buckets=1,
        selectivity_threshold=selectivity_threshold,
        include_oo=include_oo,
        namespaces={},
        dictionary_size=0,
        tables={},
        vp_tables={
            predicate: {"table": vp_tables[predicate], "size": len(relation)}
            for predicate, relation in vp.items()
        },
        extvp=statistics,
    )
    return StoreView(catalog, manifest)
