"""Cluster cost models.

The evaluation compares systems whose *architectures* differ: in-memory MPP
execution (Spark SQL, Impala), batch MapReduce execution (SHARD, PigSPARQL),
adaptive centralized/distributed execution over HBase (H2RDF+) and a
centralized single-node store (Virtuoso).  The paper attributes the runtime
differences to the architectural constants — per-job latencies, scan and
shuffle throughput, single-node limits — on top of how much data each system
has to read, shuffle and compare.

Each cost model converts :class:`~repro.engine.metrics.ExecutionMetrics` into
a simulated runtime in milliseconds.  Absolute values are calibrated to be in
the same ballpark as the paper's cluster, but the point of the models is to
preserve the *shape* of the comparison: which system wins, by roughly what
factor, and where crossovers happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.metrics import ExecutionMetrics


@dataclass(frozen=True)
class ClusterConfig:
    """Shared description of the simulated cluster (paper Sec. 7 setup)."""

    worker_nodes: int = 9
    cores_per_node: int = 6
    memory_per_executor_gb: int = 20
    network_gbit: float = 1.0

    @property
    def total_cores(self) -> int:
        return self.worker_nodes * self.cores_per_node


class CostModel:
    """Base class: converts execution metrics to a simulated runtime."""

    name = "abstract"

    def runtime_ms(self, metrics: ExecutionMetrics) -> float:
        raise NotImplementedError


@dataclass
class SparkCostModel(CostModel):
    """In-memory MPP execution (Spark SQL; also used for Impala-like engines).

    Work is spread across all cores; the dominant costs are scanning input
    tuples (columnar, in memory), shuffling tuples across the network for
    joins and probing hash tables.  A per-query driver overhead plus a small
    per-stage scheduling latency provide the latency floor the paper observes
    (a few hundred milliseconds even for tiny queries).
    """

    cluster: ClusterConfig = ClusterConfig()
    query_overhead_ms: float = 90.0
    stage_overhead_ms: float = 18.0
    scan_ns_per_tuple: float = 220.0
    shuffle_ns_per_tuple: float = 900.0
    compare_ns: float = 65.0
    result_ns_per_tuple: float = 120.0
    name: str = "spark"

    def shuffle_ns(self, metrics: ExecutionMetrics) -> float:
        """Network time spent exchanging join inputs: every tuple a join reads
        crosses the network once, spread over all cores."""
        return metrics.shuffled_tuples * self.shuffle_ns_per_tuple / max(1, self.cluster.total_cores)

    def runtime_ms(self, metrics: ExecutionMetrics) -> float:
        cores = max(1, self.cluster.total_cores)
        parallel_work_ns = (
            metrics.input_tuples * self.scan_ns_per_tuple
            + metrics.join_comparisons * self.compare_ns
            + metrics.intermediate_tuples * self.result_ns_per_tuple
        ) / cores
        serial_ns = metrics.output_tuples * self.result_ns_per_tuple / cores
        stages = metrics.stages
        return (
            self.query_overhead_ms
            + stages * self.stage_overhead_ms
            + (parallel_work_ns + self.shuffle_ns(metrics) + serial_ns) / 1e6
        )


@dataclass
class MapReduceCostModel(CostModel):
    """Batch MapReduce execution (SHARD, PigSPARQL).

    Every job pays a fixed scheduling/JVM-startup latency and all intermediate
    data is written to and read back from disk, which is why these systems
    "cannot provide interactive query runtimes" (Sec. 1) regardless of how
    little data a query touches.
    """

    cluster: ClusterConfig = ClusterConfig()
    job_overhead_ms: float = 16000.0
    scan_ns_per_tuple: float = 1500.0
    shuffle_ns_per_tuple: float = 6000.0
    compare_ns: float = 65.0
    materialize_ns_per_tuple: float = 2500.0
    name: str = "mapreduce"

    def runtime_ms(self, metrics: ExecutionMetrics, jobs: Optional[int] = None) -> float:
        cores = max(1, self.cluster.total_cores)
        job_count = jobs if jobs is not None else max(1, metrics.joins)
        work_ns = (
            metrics.input_tuples * self.scan_ns_per_tuple
            + metrics.shuffled_tuples * self.shuffle_ns_per_tuple
            + metrics.join_comparisons * self.compare_ns
            + metrics.intermediate_tuples * self.materialize_ns_per_tuple
        ) / cores
        return job_count * self.job_overhead_ms + work_ns / 1e6


@dataclass
class CentralizedCostModel(CostModel):
    """Single-node index-based execution (Virtuoso-like / H2RDF+ central mode).

    Sophisticated indexes make selective lookups cheap (no cluster latency at
    all), but all work runs on the cores of one machine and large intermediate
    or final results dominate the runtime.  A ``timeout_ms`` mirrors the
    paper's 10-hour timeout for the unbound IL-3 queries.
    """

    cores: int = 4
    query_overhead_ms: float = 4.0
    lookup_ns_per_tuple: float = 700.0
    compare_ns: float = 150.0
    result_ns_per_tuple: float = 1500.0
    warm_cache_factor: float = 0.35
    timeout_ms: Optional[float] = 36_000_000.0
    name: str = "centralized"

    def runtime_ms(self, metrics: ExecutionMetrics, warm: bool = False) -> float:
        cores = max(1, self.cores)
        work_ns = (
            metrics.input_tuples * self.lookup_ns_per_tuple
            + metrics.join_comparisons * self.compare_ns
            + (metrics.intermediate_tuples + metrics.output_tuples) * self.result_ns_per_tuple
        ) / cores
        runtime = self.query_overhead_ms + work_ns / 1e6
        if warm:
            runtime *= self.warm_cache_factor
        if self.timeout_ms is not None and runtime > self.timeout_ms:
            return float("inf")
        return runtime


@dataclass
class HBaseCostModel(CostModel):
    """Adaptive HBase execution (H2RDF+).

    Selective queries are answered by centralized merge joins over HBase range
    scans; non-selective queries fall back to MapReduce jobs.  The decision is
    made from the estimated input size, mirroring H2RDF+'s cost-based
    adaptive execution.
    """

    centralized_threshold_tuples: int = 200_000
    central: CentralizedCostModel = None  # type: ignore[assignment]
    distributed: MapReduceCostModel = None  # type: ignore[assignment]
    name: str = "hbase-adaptive"

    def __post_init__(self) -> None:
        if self.central is None:
            self.central = CentralizedCostModel(query_overhead_ms=40.0, lookup_ns_per_tuple=1200.0)
        if self.distributed is None:
            self.distributed = MapReduceCostModel(job_overhead_ms=12000.0)

    def is_centralized(self, metrics: ExecutionMetrics) -> bool:
        return metrics.input_tuples <= self.centralized_threshold_tuples

    def runtime_ms(self, metrics: ExecutionMetrics) -> float:
        if self.is_centralized(metrics):
            return self.central.runtime_ms(metrics)
        return self.distributed.runtime_ms(metrics)
