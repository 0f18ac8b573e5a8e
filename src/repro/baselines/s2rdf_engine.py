"""S2RDF as an engine in the comparison (ExtVP and plain VP variants).

The session serves queries and counts their work; what that work would cost
on the paper's cluster is priced here, as every simulated system prices its
own: :func:`simulated_runtime_ms` turns a query's metrics into a Spark
runtime, :func:`hdfs_bytes` sizes the session's stored tables as the
paper's Parquet files.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine
from repro.baselines.cluster import SparkCostModel
from repro.baselines.hdfs import ParquetSizeModel
from repro.core.session import S2RDFSession
from repro.engine.metrics import ExecutionMetrics
from repro.mappings.extvp import correlation_keys
from repro.rdf.graph import Graph
from repro.sparql.algebra import Query


def simulated_runtime_ms(
    metrics: ExecutionMetrics,
    work_scale: float = 1.0,
    cost_model: Optional[SparkCostModel] = None,
) -> float:
    """The simulated Spark-cluster runtime of a query that counted ``metrics``,
    its data-proportional counters first multiplied by ``work_scale``."""
    model = cost_model or SparkCostModel()
    return model.runtime_ms(metrics.scaled(work_scale) if work_scale != 1.0 else metrics)


def hdfs_bytes(session: S2RDFSession) -> int:
    """What the paper's Parquet files of ``session``'s layout would take.

    One file per VP table and per materialised ExtVP table, each holding its
    rows in the order the store holds them, sized by
    :class:`~repro.baselines.hdfs.ParquetSizeModel`.  It decodes every one of
    those tables, from the store, so an in-memory session and a connected one
    report the same number for the same dataset.
    """
    layout = session.layout
    size_model = ParquetSizeModel()
    stored = [layout.vp_table_name(predicate) for predicate in layout.predicates()]
    stored += [info.name for info in layout.statistics.materialized()]
    return sum(
        size_model.estimate_bytes(layout.catalog.scan_batch(name).batch.to_relation())
        for name in stored
    )


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
        )
        wallclock = time.perf_counter() - start
        summary = self.session.storage_summary()
        # The semi-join work is proportional to the VP tuples scanned per
        # correlated predicate pair; approximate it by the number of ExtVP
        # correlations (one semi-join each) times the average VP table size.
        layout = self.session.layout
        predicates = layout.predicates()
        statistics_entries = len(correlation_keys(predicates, layout.include_oo))
        predicate_count = max(1, len(predicates))
        average_vp = summary["vp_tuples"] / predicate_count
        simulated_load = (
            summary["vp_tuples"] * self._load_seconds_per_vp_tuple
            + statistics_entries * average_vp * self._load_seconds_per_semijoin_tuple
        )
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=summary["total_tuples"],
            table_count=summary["table_counts"]["total"],
            hdfs_bytes=hdfs_bytes(self.session),
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
            simulated_runtime_ms=simulated_runtime_ms(
                result.metrics, self.work_scale, self.cost_model
            ),
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
        self.session = S2RDFSession.from_graph(graph, use_extvp=False)
        wallclock = time.perf_counter() - start
        summary = self.session.storage_summary()
        return LoadReport(
            engine=self.name,
            triples=len(graph),
            tuples_stored=summary["vp_tuples"],
            table_count=summary["table_counts"]["vp"],
            hdfs_bytes=hdfs_bytes(self.session),
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
            simulated_runtime_ms=simulated_runtime_ms(
                result.metrics, self.work_scale, self.cost_model
            ),
            metrics=result.metrics,
            execution_mode="spark-sql/vp",
        )
