"""MapReduce-based engines: SHARD and PigSPARQL.

Both systems execute joins as MapReduce jobs, so every query pays a fixed
multi-second latency per job regardless of selectivity — the reason the paper
groups them as "not able to provide interactive query runtimes".

* SHARD uses clause iteration: one MapReduce job per triple pattern, each of
  which scans the complete data set stored in HDFS.
* PigSPARQL stores VP tables in HDFS and compiles queries to Pig Latin; its
  multi-join optimisation processes several triple patterns that join on the
  same variable within a single MapReduce job.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Set, Union

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine, UnsupportedQueryError
from repro.baselines.binding_iteration import (
    ResultSizeExceeded,
    bindings_to_relation,
    clause_iteration_execute,
    index_nested_loop_execute,
)
from repro.baselines.cluster import MapReduceCostModel
from repro.baselines.hdfs import HdfsSimulator
from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.sparql.algebra import Query, TriplePattern


def _multi_join_job_count(patterns: List[TriplePattern]) -> int:
    """Number of MapReduce jobs PigSPARQL needs for a BGP.

    Patterns that join on the same variable are grouped into one multi-join
    job; a new job starts whenever the join variable changes.
    """
    if len(patterns) <= 1:
        return 1
    jobs = 0
    seen_variables: Set[str] = set()
    current_join_variable: Optional[str] = None
    for pattern in patterns:
        variables = {v.name for v in pattern.variables()}
        shared = variables & seen_variables
        if not seen_variables:
            seen_variables |= variables
            continue
        join_variable = sorted(shared)[0] if shared else None
        if join_variable is None or join_variable != current_join_variable:
            jobs += 1
            current_join_variable = join_variable
        seen_variables |= variables
    return max(1, jobs)


class ShardEngine(SparqlEngine):
    """SHARD: triples grouped by subject in HDFS, clause-iteration MapReduce."""

    name = "SHARD"

    _load_seconds_per_triple = 1.1e-6

    def __init__(
        self,
        cost_model: Optional[MapReduceCostModel] = None,
        max_bindings: int = 2_000_000,
        work_scale: float = 1.0,
    ) -> None:
        self.cost_model = cost_model or MapReduceCostModel(job_overhead_ms=18000.0)
        self.max_bindings = max_bindings
        self.work_scale = work_scale
        self.graph: Optional[Graph] = None
        self.hdfs = HdfsSimulator()

    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.graph = graph
        relation = Relation(("s", "p", "o"), ((t.subject, t.predicate, t.object) for t in graph))
        # SHARD stores plain text lines grouped by subject (no columnar encoding).
        self.hdfs.write_text("shard/triples.txt", relation)
        wallclock = time.perf_counter() - start
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=len(graph),
            table_count=1,
            hdfs_bytes=self.hdfs.total_bytes(),
            simulated_load_seconds=len(graph) * self._load_seconds_per_triple,
            wallclock_seconds=wallclock,
        )

    def query(self, query: Union[str, Query]) -> EngineResult:
        if self.graph is None:
            raise RuntimeError("call load() before query()")
        parsed = self.parse(query)
        bgp = self.extract_single_bgp(parsed)
        metrics = ExecutionMetrics()
        try:
            bindings = clause_iteration_execute(self.graph, list(bgp.patterns), metrics, max_bindings=self.max_bindings)
        except ResultSizeExceeded as exc:
            return EngineResult(
                engine=self.name,
                relation=Relation.empty(tuple(sorted(v.name for v in bgp.variables()))),
                simulated_runtime_ms=float("inf"),
                metrics=metrics,
                execution_mode="mapreduce/clause-iteration",
                failed=True,
                failure_reason=str(exc),
            )
        variables = sorted({v.name for p in bgp.patterns for v in p.variables()})
        relation = bindings_to_relation(bindings, variables)
        relation = self.apply_solution_modifiers(parsed, relation)
        runtime = self.cost_model.runtime_ms(metrics.scaled(self.work_scale), jobs=len(bgp.patterns))
        return EngineResult(
            engine=self.name,
            relation=relation,
            simulated_runtime_ms=runtime,
            metrics=metrics,
            execution_mode="mapreduce/clause-iteration",
        )


class PigSparqlEngine(SparqlEngine):
    """PigSPARQL: VP storage in HDFS, Pig Latin multi-join MapReduce jobs."""

    name = "PigSPARQL"

    _load_seconds_per_triple = 4.5e-7

    def __init__(
        self,
        cost_model: Optional[MapReduceCostModel] = None,
        max_bindings: int = 5_000_000,
        work_scale: float = 1.0,
    ) -> None:
        self.cost_model = cost_model or MapReduceCostModel(job_overhead_ms=15000.0)
        self.max_bindings = max_bindings
        self.work_scale = work_scale
        self.graph: Optional[Graph] = None
        self.hdfs = HdfsSimulator()

    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.graph = graph
        tuples = 0
        for predicate in graph.predicates():
            relation = Relation(("s", "o"), graph.subject_object_pairs(predicate))
            self.hdfs.write_text(f"pigsparql/{predicate.local_name()}.txt", relation)
            tuples += len(relation)
        wallclock = time.perf_counter() - start
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=tuples,
            table_count=len(graph.predicates()),
            hdfs_bytes=self.hdfs.total_bytes(),
            simulated_load_seconds=len(graph) * self._load_seconds_per_triple,
            wallclock_seconds=wallclock,
        )

    def query(self, query: Union[str, Query]) -> EngineResult:
        if self.graph is None:
            raise RuntimeError("call load() before query()")
        parsed = self.parse(query)
        bgp = self.extract_single_bgp(parsed)
        patterns = list(bgp.patterns)
        metrics = ExecutionMetrics()

        # PigSPARQL reads the VP relation of every pattern's predicate from
        # disk (no ExtVP reduction), then joins with MapReduce jobs.
        for pattern in patterns:
            if isinstance(pattern.predicate, Variable):
                metrics.record_scan("triples", len(self.graph))
            else:
                metrics.record_scan(pattern.predicate.local_name(), self.graph.predicate_count(pattern.predicate))
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
                execution_mode="mapreduce/pig",
                failed=True,
                failure_reason=str(exc),
            )
        variables = sorted({v.name for p in patterns for v in p.variables()})
        relation = bindings_to_relation(bindings, variables)
        relation = self.apply_solution_modifiers(parsed, relation)
        # Shuffle volume: each join shuffles its inputs (VP relations and
        # intermediate results).
        metrics.shuffled_tuples = max(metrics.shuffled_tuples, metrics.input_tuples + metrics.intermediate_tuples)
        jobs = _multi_join_job_count(patterns)
        runtime = self.cost_model.runtime_ms(metrics.scaled(self.work_scale), jobs=jobs)
        return EngineResult(
            engine=self.name,
            relation=relation,
            simulated_runtime_ms=runtime,
            metrics=metrics,
            execution_mode=f"mapreduce/pig ({jobs} jobs)",
        )
