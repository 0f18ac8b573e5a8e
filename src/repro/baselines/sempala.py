"""Sempala: SPARQL over a unified property table on an Impala-like MPP engine.

Sempala decomposes a BGP into disjoint star-shaped triple groups (patterns
sharing the same subject), answers each group with a scan over the wide
property table (no join needed inside a group, Fig. 7 of the paper) and joins
the groups to build the final result.  Star queries are therefore join-free,
but every group scan has to read the whole property table, which is what the
paper identifies as Sempala's bottleneck compared to ExtVP's input pruning.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine, UnsupportedQueryError
from repro.baselines.cluster import SparkCostModel
from repro.baselines.hdfs import ParquetSizeModel
from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.mappings.naming import PROPERTY_TABLE, build_unique_keys
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term, Variable
from repro.sparql.algebra import Query, TriplePattern


class _PropertyTable:
    """The unified property table of a graph (Sec. 4.3, the Sempala layout).

    All predicates become columns of a single wide table keyed by subject.
    Multi-valued predicates are handled by row duplication as in Table 1 of
    the paper: every extra value of a predicate adds one more row for the
    subject.  This keeps the table size in the order of the number of
    subjects (times the maximum multiplicity), but a single row cannot
    enumerate all *combinations* of two multi-valued predicates — so Sempala
    evaluates at most one multi-valued predicate per table scan and joins
    additional ones back in (the paper's Fig. 7 uses the same pattern: one
    ``SELECT DISTINCT`` block per triple group).
    """

    def __init__(self, graph: Graph) -> None:
        predicates = graph.predicates()
        #: predicate -> column name
        self.predicate_columns: Dict[IRI, str] = build_unique_keys(predicates)
        columns = ("s",) + tuple(self.predicate_columns[p] for p in predicates)

        # Group values per subject and predicate.
        per_subject: Dict[Term, Dict[IRI, List[Term]]] = {}
        for triple in graph:
            per_subject.setdefault(triple.subject, {}).setdefault(triple.predicate, []).append(triple.object)

        #: predicates with more than one value for at least one subject
        self.multi_valued_predicates: Set[IRI] = set()
        rows: List[Tuple[Term, ...]] = []
        for subject in sorted(per_subject, key=lambda s: s.n3()):
            values = per_subject[subject]
            value_lists = [sorted(values.get(p, [None]), key=_value_sort_key) for p in predicates]
            row_count = max(len(value_list) for value_list in value_lists)
            for predicate, value_list in zip(predicates, value_lists):
                if len(value_list) > 1:
                    self.multi_valued_predicates.add(predicate)
            for row_index in range(row_count):
                # Shorter value lists wrap around (Table 1 repeats the single
                # follows value next to each likes value), so every value of
                # every predicate co-occurs with the subject's single-valued
                # attributes in at least one row.
                row = tuple(value_list[row_index % len(value_list)] for value_list in value_lists)
                rows.append((subject,) + row)
        self.relation = Relation(columns, rows)

    def column_for(self, predicate: IRI) -> Optional[str]:
        return self.predicate_columns.get(predicate)

    def is_multi_valued(self, predicate: IRI) -> bool:
        """Whether any subject has more than one value for ``predicate``."""
        return predicate in self.multi_valued_predicates


def _value_sort_key(value: Optional[Term]) -> str:
    """Deterministic ordering of the values packed into one subject's rows."""
    if value is None:
        return ""
    return value.n3()


class SempalaEngine(SparqlEngine):
    """Unified property table + MPP execution (Impala stand-in)."""

    name = "Sempala"

    _load_seconds_per_triple = 2.5e-6

    def __init__(self, cost_model: Optional[SparkCostModel] = None, work_scale: float = 1.0) -> None:
        self.work_scale = work_scale
        # Impala behaves like an in-memory MPP engine; reuse the Spark cost
        # model with a slightly higher scan cost (property table rows are wide).
        self.cost_model = cost_model or SparkCostModel(scan_ns_per_tuple=700.0, query_overhead_ms=120.0)
        self.layout: Optional[_PropertyTable] = None
        self.graph: Optional[Graph] = None

    # ------------------------------------------------------------------ #
    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.graph = graph
        self.layout = _PropertyTable(graph)
        hdfs_bytes = ParquetSizeModel().estimate_bytes(self.layout.relation)
        wallclock = time.perf_counter() - start
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=len(self.layout.relation),
            table_count=1,
            hdfs_bytes=hdfs_bytes,
            simulated_load_seconds=len(graph) * self._load_seconds_per_triple,
            wallclock_seconds=wallclock,
        )

    # ------------------------------------------------------------------ #
    def query(self, query: Union[str, Query]) -> EngineResult:
        if self.layout is None or self.graph is None:
            raise RuntimeError("call load() before query()")
        parsed = self.parse(query)
        bgp = self.extract_single_bgp(parsed)
        patterns = list(bgp.patterns)
        metrics = ExecutionMetrics()

        groups = self._star_groups(patterns, self.layout)
        property_table = self.layout.relation
        result: Optional[Relation] = None
        for subject_term, group_patterns in groups:
            group_relation = self._evaluate_group(subject_term, group_patterns, property_table, metrics)
            if result is None:
                result = group_relation
            else:
                result = result.natural_join(group_relation, metrics)
        if result is None:
            result = Relation.empty(())
        relation = self.apply_solution_modifiers(parsed, result)
        metrics.output_tuples = len(relation)
        runtime = self.cost_model.runtime_ms(metrics.scaled(self.work_scale))
        return EngineResult(
            engine=self.name,
            relation=relation,
            simulated_runtime_ms=runtime,
            metrics=metrics,
            execution_mode=f"impala/property-table ({len(groups)} star groups)",
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _star_groups(
        patterns: List[TriplePattern],
        layout: _PropertyTable,
    ) -> List[Tuple[Term, List[TriplePattern]]]:
        """Group triple patterns by subject term (star-shaped triple groups).

        Two restrictions keep a single property-table scan per group correct
        under the row-duplication strategy: a predicate may appear only once
        per group, and at most one *multi-valued* predicate may appear per
        group (additional ones form their own group and are joined back on the
        shared subject variable).
        """
        grouped: List[Tuple[Term, List[TriplePattern]]] = []
        index: Dict[Term, List[Dict[IRI, TriplePattern]]] = defaultdict(list)
        multi_count: Dict[int, int] = {}
        for pattern in patterns:
            subject = pattern.subject
            predicate = pattern.predicate
            placed = False
            if isinstance(predicate, IRI):
                is_multi = layout.is_multi_valued(predicate)
                for bucket in index[subject]:
                    bucket_id = id(bucket)
                    if predicate in bucket:
                        continue
                    if is_multi and multi_count.get(bucket_id, 0) >= 1:
                        continue
                    bucket[predicate] = pattern
                    if is_multi:
                        multi_count[bucket_id] = multi_count.get(bucket_id, 0) + 1
                    placed = True
                    break
                if not placed:
                    bucket = {predicate: pattern}
                    index[subject].append(bucket)
                    if is_multi:
                        multi_count[id(bucket)] = 1
            else:
                index[subject].append({IRI(f"__var_{len(index[subject])}"): pattern})
        for subject, buckets in index.items():
            for bucket in buckets:
                grouped.append((subject, list(bucket.values())))
        return grouped

    def _evaluate_group(
        self,
        subject_term: Term,
        patterns: List[TriplePattern],
        property_table: Relation,
        metrics: ExecutionMetrics,
    ) -> Relation:
        """Answer one star group with a single scan of the property table."""
        assert self.layout is not None and self.graph is not None
        metrics.record_scan(PROPERTY_TABLE, len(property_table))

        # Variable-predicate patterns fall back to the triples table.
        variable_predicate = [p for p in patterns if isinstance(p.predicate, Variable)]
        fixed = [p for p in patterns if isinstance(p.predicate, IRI)]

        columns: List[str] = []
        projections: List[Tuple[str, str]] = []  # (physical column, output variable)
        conditions: List[Tuple[str, Term]] = []
        if isinstance(subject_term, Variable):
            projections.append(("s", subject_term.name))
        else:
            conditions.append(("s", subject_term))
        for pattern in fixed:
            column = self.layout.column_for(pattern.predicate)
            if column is None:
                return Relation.empty(tuple(sorted({v.name for p in patterns for v in p.variables()})))
            columns.append(column)
            if isinstance(pattern.object, Variable):
                projections.append((column, pattern.object.name))
            else:
                conditions.append((column, pattern.object))

        def row_matches(row: Dict[str, object]) -> bool:
            for column in columns:
                if row.get(column) is None:
                    return False
            for column, value in conditions:
                if row.get(column) != value:
                    return False
            return True

        filtered = property_table.select(row_matches)
        physical = [column for column, _ in projections]
        aliases = {column: alias for column, alias in projections}
        relation = filtered.project(physical).rename(aliases).distinct()

        # Patterns with an unbound predicate are answered from the graph and
        # joined in (rare in the benchmark workloads).
        for pattern in variable_predicate:
            rows = []
            for triple in self.graph:
                binding = {}
                ok = True
                for term, value in (
                    (pattern.subject, triple.subject),
                    (pattern.predicate, triple.predicate),
                    (pattern.object, triple.object),
                ):
                    if isinstance(term, Variable):
                        if term.name in binding and binding[term.name] != value:
                            ok = False
                            break
                        binding[term.name] = value
                    elif term != value:
                        ok = False
                        break
                if ok:
                    rows.append(binding)
            variables = sorted({v.name for v in pattern.variables()})
            extra = Relation(variables, (tuple(b.get(v) for v in variables) for b in rows))
            metrics.record_scan("triples", len(self.graph))
            relation = relation.natural_join(extra, metrics) if len(relation.columns) else extra
        return relation
