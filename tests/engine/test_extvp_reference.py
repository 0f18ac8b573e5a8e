"""The store's ExtVP against the paper's definition.

A session builds its store image from a graph and computes ExtVP there, in
id space, as bitmaps over the VP tables' stored rows.  Every correlation —
held with its rows, or answered as empty because it has no entry — must be
the one ``VP_p1 ⋉ VP_p2`` over terms gives (``extvp_reference.py``): the same
names, row counts, ``|VP_p1|``, materialisation decisions and distinct
counts, and for every materialised table the rows its bitmaps select are
that semi-join's rows — on the paper's
running example (Fig. 10) and on the WatDiv-like dataset, at every threshold
regime, with and without OO, at 1, 2 and 8 buckets.
"""

import pytest

from engine.extvp_reference import reference_layout
from repro.core.session import S2RDFSession
from repro.core.table_selection import TableSelector
from repro.mappings.extvp import correlation_keys
from repro.sparql import parse_query
from repro.sparql.algebra import BGP
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.template import instantiate_many

THRESHOLDS = (0.0, 0.25, 1.0)
BUCKET_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def references():
    """``reference_layout`` per (graph, threshold, include_oo), built once."""
    built = {}

    def reference(graph, threshold, include_oo):
        key = (id(graph), threshold, include_oo)
        if key not in built:
            built[key] = reference_layout(graph, threshold, include_oo)
        return built[key]

    return reference


def bag(rows):
    return sorted(map(repr, rows))


@pytest.mark.parametrize("buckets", BUCKET_COUNTS)
@pytest.mark.parametrize("include_oo", (False, True))
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("graph_name", ("example_graph", "small_graph"))
def test_store_extvp_is_the_semi_join_definition(
    request, references, graph_name, threshold, include_oo, buckets
):
    graph = request.getfixturevalue(graph_name)
    expected = references(graph, threshold, include_oo)
    with S2RDFSession.from_graph(
        graph, num_partitions=buckets, selectivity_threshold=threshold, include_oo=include_oo
    ) as session:
        assert session._dataset.manifest.num_buckets == buckets
        # The reference holds every correlation, the empty ones included; the
        # store holds those with rows and answers the others as empty.
        keys = correlation_keys(expected.vp.predicates(), include_oo)
        assert expected.statistics.tables.keys() == set(keys)
        assert session.layout.statistics.tables.keys() == {
            key for key in keys if expected.statistics.tables[key].row_count
        }
        materialized = 0
        for key in keys:
            reference = expected.statistics.tables[key]
            info = session.layout.extvp_info(*key)
            assert (info.name, info.row_count, info.vp_row_count, info.materialized) == (
                reference.name,
                reference.row_count,
                reference.vp_row_count,
                reference.materialized,
            ), key
            if not reference.materialized:
                assert not session.layout.catalog.is_stored(info.name), key
                continue
            materialized += 1
            stored = session.layout.catalog.statistics(info.name)
            defined = expected.catalog.statistics(info.name)
            assert (stored.distinct_subjects, stored.distinct_objects) == (
                defined.distinct_subjects,
                defined.distinct_objects,
            ), key
            assert session.layout.catalog.is_stored(info.name), key
            selected = session.layout.catalog.scan(info.name).relation
            assert bag(selected.rows) == bag(expected.catalog.table(info.name).rows), key
        # Threshold 0 stores nothing; 1.0 stores every non-trivial table.
        if threshold == 0.0:
            assert materialized == 0
        elif threshold == 1.0:
            assert materialized > 0


def _bgps(node):
    """The triple patterns of every BGP under ``node``."""
    if isinstance(node, BGP):
        yield node.patterns
    for child in ("pattern", "left", "right"):
        if getattr(node, child, None) is not None:
            yield from _bgps(getattr(node, child))


@pytest.mark.parametrize("include_oo", (False, True))
@pytest.mark.parametrize("threshold", (1.0, 0.25, 0.0))
def test_table_selection_is_the_definitions(
    references, small_dataset, threshold, include_oo
):
    """Algorithm 1 over the store's statistics — which hold no entry for an
    empty correlation — picks, and lists as candidates, exactly what it does
    over the definition's, which hold every correlation: for every Basic and
    IL template, two instances each."""
    expected = TableSelector(references(small_dataset.graph, threshold, include_oo))
    with S2RDFSession.from_graph(
        small_dataset.graph, selectivity_threshold=threshold, include_oo=include_oo
    ) as session:
        patterns = 0
        for template in BASIC_TEMPLATES + INCREMENTAL_TEMPLATES:
            for text in instantiate_many(template, small_dataset, 2, seed=7):
                for bgp in _bgps(parse_query(text).pattern):
                    for pattern in bgp:
                        assert session.selector.select(pattern, bgp) == expected.select(
                            pattern, bgp
                        ), (template.name, pattern)
                        assert session.selector.candidates(pattern, bgp) == expected.candidates(
                            pattern, bgp
                        ), (template.name, pattern)
                        patterns += 1
        assert patterns > 200
