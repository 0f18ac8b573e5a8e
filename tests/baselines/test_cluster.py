"""Unit tests for the simulated cluster's cost models, and for S2RDF priced
on them by the paper's tables (the session itself prices nothing)."""

import pytest

from repro.baselines import S2RDFExtVPEngine
from repro.baselines.cluster import (
    CentralizedCostModel,
    ClusterConfig,
    HBaseCostModel,
    MapReduceCostModel,
    SparkCostModel,
)
from repro.baselines.s2rdf_engine import simulated_runtime_ms
from repro.engine.metrics import ExecutionMetrics


class TestCostModels:
    def test_spark_cost_monotone_in_input(self):
        model = SparkCostModel()
        small = ExecutionMetrics(input_tuples=1000, stages=2)
        large = ExecutionMetrics(input_tuples=100_000_000, stages=2)
        assert model.runtime_ms(large) > model.runtime_ms(small)

    def test_spark_latency_floor(self):
        model = SparkCostModel()
        assert model.runtime_ms(ExecutionMetrics()) >= model.query_overhead_ms

    def test_mapreduce_job_overhead_dominates(self):
        model = MapReduceCostModel()
        metrics = ExecutionMetrics(input_tuples=10)
        assert model.runtime_ms(metrics, jobs=3) >= 3 * model.job_overhead_ms

    def test_centralized_timeout(self):
        model = CentralizedCostModel(timeout_ms=1000.0)
        metrics = ExecutionMetrics(output_tuples=10_000_000_000)
        assert model.runtime_ms(metrics) == float("inf")

    def test_centralized_warm_cache_faster(self):
        model = CentralizedCostModel()
        metrics = ExecutionMetrics(input_tuples=1_000_000)
        assert model.runtime_ms(metrics, warm=True) < model.runtime_ms(metrics)

    def test_hbase_adaptive_switch(self):
        model = HBaseCostModel(centralized_threshold_tuples=100)
        selective = ExecutionMetrics(input_tuples=50)
        unselective = ExecutionMetrics(input_tuples=10_000)
        assert model.is_centralized(selective)
        assert not model.is_centralized(unselective)
        assert model.runtime_ms(unselective) > model.runtime_ms(selective)

    def test_cluster_config_cores(self):
        assert ClusterConfig(worker_nodes=9, cores_per_node=6).total_cores == 54


class TestS2RDFPricing:
    @staticmethod
    def loaded(graph, **kwargs):
        engine = S2RDFExtVPEngine(**kwargs)
        engine.load(graph)
        return engine

    def test_work_scale_scales_runtime(self, example_graph, query_q1):
        base = self.loaded(example_graph, work_scale=1.0)
        scaled = self.loaded(example_graph, work_scale=1e6)
        assert scaled.query(query_q1).simulated_runtime_ms > base.query(query_q1).simulated_runtime_ms

    def test_shuffle_cost_is_per_tuple(self, example_graph, query_q1):
        metrics = self.loaded(example_graph).query(query_q1).metrics
        model = SparkCostModel()
        assert metrics.shuffled_tuples > 0
        assert metrics.shuffled_bytes == metrics.broadcast_bytes == 0
        assert model.shuffle_ns(metrics) == pytest.approx(
            metrics.shuffled_tuples * model.shuffle_ns_per_tuple / model.cluster.total_cores
        )

    def test_the_runtime_is_the_spark_models_of_the_scaled_metrics(self, example_graph, query_q1):
        engine = self.loaded(example_graph, work_scale=3.0)
        result = engine.query(query_q1)
        model = SparkCostModel()
        assert result.simulated_runtime_ms == model.runtime_ms(result.metrics.scaled(3.0))
        assert simulated_runtime_ms(result.metrics) == model.runtime_ms(result.metrics)
        slower = SparkCostModel(query_overhead_ms=1000.0)
        assert simulated_runtime_ms(result.metrics, cost_model=slower) == slower.runtime_ms(
            result.metrics
        )
