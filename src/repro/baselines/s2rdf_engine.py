"""S2RDF as an engine in the comparison (ExtVP and plain VP variants)."""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine
from repro.core.session import S2RDFSession
from repro.engine.cluster import SparkCostModel
from repro.mappings.extvp import correlation_keys
from repro.rdf.graph import Graph
from repro.sparql.algebra import Query


class S2RDFExtVPEngine(SparqlEngine):
    """S2RDF over the ExtVP layout (the paper's system)."""

    name = "S2RDF ExtVP"

    #: Simulated per-tuple costs for the load phase: the ExtVP build performs
    #: one semi-join per correlated predicate pair, which dominates load time.
    _load_seconds_per_vp_tuple = 3.0e-7
    _load_seconds_per_semijoin_tuple = 4.5e-6

    def __init__(
        self,
        selectivity_threshold: float = 1.0,
        cost_model: Optional[SparkCostModel] = None,
        work_scale: float = 1.0,
    ) -> None:
        self.selectivity_threshold = selectivity_threshold
        self.cost_model = cost_model or SparkCostModel()
        self.work_scale = work_scale
        self.session: Optional[S2RDFSession] = None

    # ------------------------------------------------------------------ #
    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.session = S2RDFSession.from_graph(
            graph,
            selectivity_threshold=self.selectivity_threshold,
            use_extvp=True,
            cost_model=self.cost_model,
            work_scale=self.work_scale,
        )
        wallclock = time.perf_counter() - start
        summary = self.session.storage_summary()
        # The semi-join work is proportional to the VP tuples scanned per
        # correlated predicate pair; approximate it by the number of ExtVP
        # correlations (one semi-join each) times the average VP table size.
        layout = self.session.layout
        predicates = layout.vp.predicates()
        statistics_entries = len(correlation_keys(predicates, layout.include_oo))
        predicate_count = max(1, len(predicates))
        average_vp = layout.vp.total_tuples() / predicate_count
        simulated_load = (
            summary["vp_tuples"] * self._load_seconds_per_vp_tuple
            + statistics_entries * average_vp * self._load_seconds_per_semijoin_tuple
        )
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=summary["total_tuples"],
            table_count=summary["table_counts"]["total"],
            hdfs_bytes=summary["hdfs_bytes"],
            simulated_load_seconds=simulated_load,
            wallclock_seconds=wallclock,
        )

    def query(self, query: Union[str, Query]) -> EngineResult:
        if self.session is None:
            raise RuntimeError("call load() before query()")
        result = self.session.query(query)
        return EngineResult(
            engine=self.name,
            relation=result.relation,
            simulated_runtime_ms=result.simulated_runtime_ms,
            metrics=result.metrics,
            execution_mode="spark-sql/extvp",
        )


class S2RDFVPEngine(SparqlEngine):
    """S2RDF restricted to plain VP tables (the paper's "S2RDF VP" rows)."""

    name = "S2RDF VP"

    _load_seconds_per_tuple = 9.0e-7

    def __init__(self, cost_model: Optional[SparkCostModel] = None, work_scale: float = 1.0) -> None:
        self.cost_model = cost_model or SparkCostModel()
        self.work_scale = work_scale
        self.session: Optional[S2RDFSession] = None

    def load(self, graph: Graph) -> LoadReport:
        start = time.perf_counter()
        self.session = S2RDFSession.from_graph(
            graph, use_extvp=False, cost_model=self.cost_model, work_scale=self.work_scale
        )
        wallclock = time.perf_counter() - start
        summary = self.session.storage_summary()
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=summary["vp_tuples"],
            table_count=summary["table_counts"]["vp"],
            hdfs_bytes=summary["hdfs_bytes"],
            simulated_load_seconds=len(graph) * self._load_seconds_per_tuple,
            wallclock_seconds=wallclock,
        )

    def query(self, query: Union[str, Query]) -> EngineResult:
        if self.session is None:
            raise RuntimeError("call load() before query()")
        result = self.session.query(query)
        return EngineResult(
            engine=self.name,
            relation=result.relation,
            simulated_runtime_ms=result.simulated_runtime_ms,
            metrics=result.metrics,
            execution_mode="spark-sql/vp",
        )
