"""A centralized RDF store in the style of Virtuoso.

Virtuoso runs on a single server with rich indexes over the triple
permutations.  Selective queries are fast (and repeated executions benefit
from caching), but all work is bound to one machine, so runtimes correlate
strongly with result size and the unbound Incremental Linear queries time out
(Sec. 7.3: "Virtuoso was not able to answer any of the queries within a 10
hours timeout").
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine
from repro.baselines.binding_iteration import (
    ResultSizeExceeded,
    bindings_to_relation,
    index_nested_loop_execute,
)
from repro.baselines.cluster import CentralizedCostModel
from repro.baselines.hdfs import HdfsSimulator
from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.rdf.graph import Graph
from repro.sparql.algebra import Query


class VirtuosoEngine(SparqlEngine):
    """Centralized six-index store with cold / warm cache execution."""

    name = "Virtuoso"

    _load_seconds_per_triple = 2.0e-6

    def __init__(
        self,
        cost_model: Optional[CentralizedCostModel] = None,
        warm_cache: bool = False,
        max_bindings: int = 5_000_000,
        work_scale: float = 1.0,
    ) -> None:
        self.work_scale = work_scale
        self.cost_model = cost_model or CentralizedCostModel()
        self.warm_cache = warm_cache
        self.max_bindings = max_bindings
        self.graph: Optional[Graph] = None
        self.storage = HdfsSimulator()

    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.graph = graph
        relation = Relation(("s", "p", "o"), ((t.subject, t.predicate, t.object) for t in graph))
        self.storage.write("virtuoso/quad_store.db", relation)
        wallclock = time.perf_counter() - start
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=len(graph),
            table_count=1,
            hdfs_bytes=self.storage.total_bytes(),
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
            bindings = index_nested_loop_execute(
                self.graph, list(bgp.patterns), metrics, reorder=True, max_bindings=self.max_bindings
            )
        except ResultSizeExceeded as exc:
            return EngineResult(
                engine=self.name,
                relation=Relation.empty(tuple(sorted(v.name for v in bgp.variables()))),
                simulated_runtime_ms=float("inf"),
                metrics=metrics,
                execution_mode="centralized/timeout",
                failed=True,
                failure_reason=str(exc),
            )
        variables = sorted({v.name for p in bgp.patterns for v in p.variables()})
        relation = bindings_to_relation(bindings, variables)
        relation = self.apply_solution_modifiers(parsed, relation)
        runtime = self.cost_model.runtime_ms(metrics.scaled(self.work_scale), warm=self.warm_cache)
        failed = runtime == float("inf")
        return EngineResult(
            engine=self.name,
            relation=relation,
            simulated_runtime_ms=runtime,
            metrics=metrics,
            execution_mode="centralized/warm" if self.warm_cache else "centralized/cold",
            failed=failed,
            failure_reason="timeout" if failed else "",
        )
