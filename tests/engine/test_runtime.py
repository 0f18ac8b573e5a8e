"""Unit tests for the partitioned parallel execution runtime."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import LeftOuterJoinNode, NaturalJoinNode, SubqueryNode, TableScanNode
from repro.engine.plan import PlanExecutor
from repro.engine.relation import Relation
from repro.engine.runtime import (
    BroadcastHashJoin,
    HashPartitioner,
    ParallelExecutor,
    PartitionedRelation,
    ShuffleHashJoin,
    estimate_rows,
    estimated_bytes,
    key_partition_index,
    plan_join_strategies,
    stable_hash,
)
from repro.rdf.terms import IRI


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register("follows", Relation(("s", "o"), [(IRI(f"u{i}"), IRI(f"u{(i * 7) % 40}")) for i in range(160)]))
    cat.register("likes", Relation(("s", "o"), [(IRI(f"u{i}"), IRI(f"p{i % 5}")) for i in range(0, 160, 3)]))
    return cat


@pytest.fixture()
def join_plan():
    return NaturalJoinNode(
        SubqueryNode("follows", (("s", "x"), ("o", "y"))),
        SubqueryNode("likes", (("s", "y"), ("o", "z"))),
    )


class TestHashPartitioner:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash(IRI("abc")) == stable_hash(IRI("abc"))
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(None) == stable_hash(None)

    def test_rows_preserved_and_colocated(self):
        relation = Relation(("s", "o"), [(IRI(f"k{i % 11}"), i) for i in range(100)])
        parts = HashPartitioner(4).partition(relation, ["s"])
        assert sum(len(p) for p in parts) == 100
        # Every key value lands in exactly one partition.
        for key in {row[0] for row in relation.rows}:
            holders = [i for i, p in enumerate(parts) if key in p.column_values("s")]
            assert len(holders) == 1
            assert holders[0] == key_partition_index((key,), 4)

    def test_balance_over_many_distinct_keys(self):
        relation = Relation(("s",), [(IRI(f"entity{i}"),) for i in range(2000)])
        parts = HashPartitioner(8).partition(relation, ["s"])
        sizes = [len(p) for p in parts]
        mean = sum(sizes) / len(sizes)
        assert all(size > 0 for size in sizes)
        # CRC32 spreads distinct keys near-uniformly: within 25% of the mean.
        assert all(abs(size - mean) / mean < 0.25 for size in sizes)

    def test_single_partition_is_identity(self):
        relation = Relation(("s", "o"), [(1, 2), (3, 4)])
        assert HashPartitioner(1).partition(relation, ["s"]) == [relation]

    def test_split_evenly_sizes(self):
        relation = Relation(("s",), [(i,) for i in range(10)])
        chunks = HashPartitioner(4).split_evenly(relation)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]
        assert sum((c.rows for c in chunks), []) == relation.rows

    def test_requires_keys_and_positive_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        with pytest.raises(ValueError):
            HashPartitioner(2).partition(Relation(("s",), [(1,)]), [])


class TestPartitionedRelation:
    def test_from_relation_merge_roundtrip(self):
        relation = Relation(("s", "o"), [(IRI(f"k{i % 7}"), i) for i in range(50)])
        partitioned = PartitionedRelation.from_relation(relation, 4, keys=["s"])
        assert partitioned.num_partitions == 4
        assert partitioned.total_rows() == 50
        assert partitioned.keys == ("s",)
        assert bag(partitioned.merge()) == bag(relation)

    def test_even_split_has_no_keys(self):
        relation = Relation(("s",), [(i,) for i in range(9)])
        partitioned = PartitionedRelation.from_relation(relation, 3)
        assert partitioned.keys is None
        assert partitioned.partition_sizes() == [3, 3, 3]

    def test_co_partitioning(self):
        left = PartitionedRelation.from_relation(Relation(("a",), [(1,)]), 4, keys=["a"])
        right = PartitionedRelation.from_relation(Relation(("a", "b"), [(1, 2)]), 4, keys=["a"])
        uneven = PartitionedRelation.from_relation(Relation(("a",), [(1,)]), 2, keys=["a"])
        split = PartitionedRelation.from_relation(Relation(("a",), [(1,)]), 4)
        other_keys = PartitionedRelation.from_relation(Relation(("a", "b"), [(1, 2)]), 4, keys=["b"])
        assert left.is_co_partitioned_with(right)
        assert not left.is_co_partitioned_with(uneven)
        assert not left.is_co_partitioned_with(split)
        assert not left.is_co_partitioned_with(other_keys)

    def test_estimated_bytes_scales_with_rows(self):
        small = Relation(("s", "o"), [(1, 2)])
        large = Relation(("s", "o"), [(i, i) for i in range(100)])
        assert estimated_bytes(large) == 100 * estimated_bytes(small)


@pytest.mark.usefixtures("force_partitioned_joins")
class TestPhysicalPlanning:
    def test_estimate_rows_from_statistics(self, catalog, join_plan):
        assert estimate_rows(TableScanNode("follows", ("s", "o")), catalog) == 160
        # The join estimate is the larger input (conservative FK heuristic).
        assert estimate_rows(join_plan, catalog) == 160

    def test_broadcast_below_threshold(self, catalog, join_plan):
        physical = plan_join_strategies(join_plan, catalog, broadcast_threshold=10**9)
        (strategy,) = physical.strategies()
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.build_side == "right"  # likes is the smaller side
        assert strategy.keys == ("y",)

    def test_shuffle_above_threshold(self, catalog, join_plan):
        physical = plan_join_strategies(join_plan, catalog, broadcast_threshold=0)
        (strategy,) = physical.strategies()
        assert isinstance(strategy, ShuffleHashJoin)
        assert strategy.keys == ("y",)

    def test_threshold_cutover_is_exact(self, catalog, join_plan):
        # The build side (likes ~54 rows x 2 columns x 24 B) broadcasts at
        # exactly its estimated size and shuffles one byte below it.
        build_bytes = estimate_rows(SubqueryNode("likes", (("s", "y"), ("o", "z"))), catalog) * 2 * 24
        at = plan_join_strategies(join_plan, catalog, broadcast_threshold=build_bytes)
        below = plan_join_strategies(join_plan, catalog, broadcast_threshold=build_bytes - 1)
        assert isinstance(at.strategies()[0], BroadcastHashJoin)
        assert isinstance(below.strategies()[0], ShuffleHashJoin)

    def test_left_outer_join_only_broadcasts_right(self, catalog):
        # Left side (likes) is smaller, but the preserved side must not be
        # broadcast: the planner picks the right side or falls back to shuffle.
        plan = LeftOuterJoinNode(
            SubqueryNode("likes", (("s", "x"), ("o", "y"))),
            SubqueryNode("follows", (("s", "x"), ("o", "z"))),
        )
        broadcast = plan_join_strategies(plan, catalog, broadcast_threshold=10**9).strategies()[0]
        assert isinstance(broadcast, BroadcastHashJoin) and broadcast.build_side == "right"
        shuffle = plan_join_strategies(plan, catalog, broadcast_threshold=0).strategies()[0]
        assert isinstance(shuffle, ShuffleHashJoin)

    def test_cross_join_degenerates_to_broadcast(self, catalog):
        plan = NaturalJoinNode(
            SubqueryNode("follows", (("s", "a"), ("o", "b"))),
            SubqueryNode("likes", (("s", "c"), ("o", "d"))),
        )
        (strategy,) = plan_join_strategies(plan, catalog, broadcast_threshold=0).strategies()
        assert isinstance(strategy, BroadcastHashJoin)
        assert strategy.keys == ()

    def test_describe_and_counts(self, catalog, join_plan):
        physical = plan_join_strategies(join_plan, catalog, broadcast_threshold=0)
        assert physical.counts()["ShuffleHashJoin"] == 1
        assert "ShuffleHashJoin" in physical.describe()[0]


@pytest.mark.usefixtures("force_partitioned_joins")
class TestParallelExecutor:
    @pytest.mark.parametrize("num_partitions", [1, 2, 8])
    @pytest.mark.parametrize("broadcast_threshold", [0, 10**9])
    def test_bag_equivalent_to_serial(self, catalog, join_plan, num_partitions, broadcast_threshold):
        serial = PlanExecutor(catalog).execute(join_plan, ExecutionMetrics())
        with ParallelExecutor(
            catalog, num_partitions=num_partitions, broadcast_threshold=broadcast_threshold
        ) as executor:
            parallel = executor.execute(join_plan, ExecutionMetrics())
        assert parallel.columns == serial.columns
        assert bag(parallel) == bag(serial)

    @pytest.mark.parametrize("broadcast_threshold", [0, 10**9])
    def test_left_outer_join_equivalent(self, catalog, broadcast_threshold):
        plan = LeftOuterJoinNode(
            SubqueryNode("follows", (("s", "x"), ("o", "y"))),
            SubqueryNode("likes", (("s", "y"), ("o", "z"))),
        )
        serial = PlanExecutor(catalog).execute(plan, ExecutionMetrics())
        with ParallelExecutor(catalog, num_partitions=4, broadcast_threshold=broadcast_threshold) as executor:
            parallel = executor.execute(plan, ExecutionMetrics())
        assert parallel.columns == serial.columns
        assert bag(parallel) == bag(serial)

    def test_shuffle_records_observed_bytes_and_tasks(self, catalog, join_plan):
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4, broadcast_threshold=0) as executor:
            executor.execute(join_plan, metrics)
        assert metrics.shuffle_joins == 1
        assert metrics.broadcast_joins == 0
        assert metrics.shuffled_bytes > 0
        assert metrics.parallel_tasks == 4
        assert metrics.critical_path_ms > 0

    def test_broadcast_records_build_side_volume(self, catalog, join_plan):
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4, broadcast_threshold=10**9) as executor:
            executor.execute(join_plan, metrics)
        assert metrics.broadcast_joins == 1
        assert metrics.shuffled_bytes == 0
        # The build side (likes, 54 rows x 2 columns) is shipped to all 4 partitions.
        assert metrics.broadcast_bytes == 54 * 2 * 24 * 4

    def test_join_counters_match_serial(self, catalog, join_plan):
        serial_metrics = ExecutionMetrics()
        PlanExecutor(catalog).execute(join_plan, serial_metrics)
        parallel_metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=8, broadcast_threshold=0) as executor:
            executor.execute(join_plan, parallel_metrics)
        assert parallel_metrics.joins == serial_metrics.joins
        assert parallel_metrics.stages == serial_metrics.stages
        assert parallel_metrics.shuffled_tuples == serial_metrics.shuffled_tuples
        assert parallel_metrics.output_tuples == serial_metrics.output_tuples

    def test_single_partition_stays_serial(self, catalog, join_plan):
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=1) as executor:
            executor.execute(join_plan, metrics)
        assert metrics.parallel_tasks == 0
        assert metrics.shuffled_bytes == 0
        assert metrics.broadcast_bytes == 0
        assert executor.last_physical_plan is not None

    def test_empty_side_falls_back_to_serial(self, catalog, join_plan):
        catalog.register("likes", Relation.empty(("s", "o")))
        metrics = ExecutionMetrics()
        with ParallelExecutor(catalog, num_partitions=4) as executor:
            result = executor.execute(join_plan, metrics)
        assert len(result) == 0
        assert metrics.parallel_tasks == 0

    def test_rejects_non_positive_partitions(self, catalog):
        with pytest.raises(ValueError):
            ParallelExecutor(catalog, num_partitions=0)
