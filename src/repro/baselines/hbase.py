"""H2RDF+: six HBase indexes with adaptive centralized / MapReduce execution.

H2RDF+ stores every triple permutation in a sorted HBase table (six clustered
indexes) plus aggregated statistics.  Based on estimated input and join sizes
it either executes a query with centralized merge joins on a single node (very
fast for selective queries) or falls back to MapReduce sort-merge joins (slow
but scalable).  The reproduction keeps both modes and the cost-based switch.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import List, Optional, Union

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine
from repro.baselines.binding_iteration import (
    ResultSizeExceeded,
    bindings_to_relation,
    index_nested_loop_execute,
)
from repro.baselines.cluster import CentralizedCostModel, MapReduceCostModel
from repro.baselines.hdfs import HdfsSimulator
from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.sparql.algebra import Query, TriplePattern


class H2RDFPlusEngine(SparqlEngine):
    """Adaptive HBase engine (H2RDF+)."""

    name = "H2RDF+"

    _load_seconds_per_triple = 4.0e-6  # six indexes + statistics
    #: A query is executed with MapReduce when its estimated input exceeds
    #: ``max(minimum_distributed_input, distributed_input_fraction * |G|)``.
    distributed_input_fraction = 0.05
    minimum_distributed_input = 1500

    def __init__(
        self,
        central_model: Optional[CentralizedCostModel] = None,
        distributed_model: Optional[MapReduceCostModel] = None,
        max_bindings: int = 5_000_000,
        work_scale: float = 1.0,
    ) -> None:
        self.work_scale = work_scale
        self.central_model = central_model or CentralizedCostModel(
            query_overhead_ms=35.0, lookup_ns_per_tuple=1100.0, result_ns_per_tuple=2500.0, timeout_ms=None
        )
        self.distributed_model = distributed_model or MapReduceCostModel(job_overhead_ms=11000.0)
        self.max_bindings = max_bindings
        self.graph: Optional[Graph] = None
        self.hdfs = HdfsSimulator()

    # ------------------------------------------------------------------ #
    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.graph = graph
        # Six permutation indexes; HBase stores the whole triple in the row
        # key, so each index is roughly the size of the dataset (compressed).
        # An HBase table is sorted by its row key: each index is written in
        # its permutation's order of the terms' N3 — not in the graph's set
        # order, which differs between processes and with it the run lengths.
        triples = [
            ((t.subject, t.predicate, t.object), (t.subject.n3(), t.predicate.n3(), t.object.n3()))
            for t in graph
        ]
        for permutation in ("spo", "sop", "pso", "pos", "osp", "ops"):
            pick = itemgetter(*("spo".index(column) for column in permutation))
            ordered = sorted(triples, key=lambda triple: pick(triple[1]))
            rows = [pick(terms) for terms, _ in ordered]
            self.hdfs.write(f"h2rdf/{permutation}.hfile", Relation(tuple(permutation), rows))
        wallclock = time.perf_counter() - start
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=len(graph),
            table_count=6,
            hdfs_bytes=self.hdfs.total_bytes() // 6,  # report per-copy size like the paper
            simulated_load_seconds=len(graph) * self._load_seconds_per_triple,
            wallclock_seconds=wallclock,
        )

    # ------------------------------------------------------------------ #
    def _estimated_input(self, patterns: List[TriplePattern]) -> int:
        """Sum of index-scan sizes for all patterns (H2RDF+'s cost estimate)."""
        assert self.graph is not None
        total = 0
        for pattern in patterns:
            if isinstance(pattern.predicate, Variable):
                total += len(self.graph)
            elif not isinstance(pattern.subject, Variable) or not isinstance(pattern.object, Variable):
                # Bound subject or object: a narrow index range scan.
                subject = None if isinstance(pattern.subject, Variable) else pattern.subject
                object_ = None if isinstance(pattern.object, Variable) else pattern.object
                total += sum(1 for _ in self.graph.triples(subject, pattern.predicate, object_))
            else:
                total += self.graph.predicate_count(pattern.predicate)
        return total

    def query(self, query: Union[str, Query]) -> EngineResult:
        if self.graph is None:
            raise RuntimeError("call load() before query()")
        parsed = self.parse(query)
        bgp = self.extract_single_bgp(parsed)
        patterns = list(bgp.patterns)
        metrics = ExecutionMetrics()

        estimated_input = self._estimated_input(patterns)
        distributed_threshold = max(
            self.minimum_distributed_input,
            self.distributed_input_fraction * max(1, len(self.graph)),
        )
        centralized = estimated_input <= distributed_threshold

        try:
            bindings = index_nested_loop_execute(
                self.graph, patterns, metrics, reorder=True, max_bindings=self.max_bindings
            )
        except ResultSizeExceeded as exc:
            return EngineResult(
                engine=self.name,
                relation=Relation.empty(tuple(sorted(v.name for v in bgp.variables()))),
                simulated_runtime_ms=float("inf"),
                metrics=metrics,
                execution_mode="hbase/failed",
                failed=True,
                failure_reason=str(exc),
            )
        variables = sorted({v.name for p in patterns for v in p.variables()})
        relation = bindings_to_relation(bindings, variables)
        relation = self.apply_solution_modifiers(parsed, relation)

        if centralized:
            runtime = self.central_model.runtime_ms(metrics.scaled(self.work_scale))
            mode = "hbase/centralized merge join"
        else:
            # Distributed sort-merge joins: one MapReduce job per join.
            metrics.shuffled_tuples = max(metrics.shuffled_tuples, metrics.input_tuples + metrics.intermediate_tuples)
            runtime = self.distributed_model.runtime_ms(metrics.scaled(self.work_scale), jobs=max(1, len(patterns) - 1))
            mode = "hbase/mapreduce sort-merge join"
        return EngineResult(
            engine=self.name,
            relation=relation,
            simulated_runtime_ms=runtime,
            metrics=metrics,
            execution_mode=mode,
        )
