"""Partitioned parallel execution runtime (the Spark execution-layer stand-in).

S2RDF's VP/ExtVP tables live as partitioned Parquet files that Spark SQL
executes in parallel; this package gives the local engine the same execution
axis:

* :mod:`~repro.engine.runtime.partitioner` — a deterministic
  :class:`HashPartitioner` that splits relations on join-key hashes.
* :mod:`~repro.engine.runtime.partitioned` — :class:`PartitionedRelation`,
  a schema-sharing list of disjoint partitions with byte accounting.
* :mod:`~repro.engine.runtime.strategies` — the physical-planning step:
  per-join :class:`SerialJoin` (no exchange, small inputs) /
  :class:`BroadcastHashJoin` / :class:`ShuffleHashJoin` decisions driven by
  catalog statistics, a measured small-join row bound and a Spark-style
  ``autoBroadcastJoinThreshold``.
* :mod:`~repro.engine.runtime.adaptive` — :class:`AdaptivePlanner`, the
  Spark-3-style adaptive execution layer: re-decides each join's strategy
  from observed input sizes, splits skewed partitions and feeds observed
  cardinalities back into the catalog.
* :mod:`~repro.engine.runtime.executor` — :class:`ParallelExecutor`, which
  inlines joins whose observed inputs are small, runs the per-partition join
  tasks of the rest on a thread pool, merges the partition outputs and
  records observed shuffle/broadcast volume in the metrics.
"""

from repro.engine.runtime.adaptive import (
    DEFAULT_SKEW_FACTOR,
    AdaptivePlanner,
    ReplanEvent,
)
from repro.engine.runtime.executor import ParallelExecutor
from repro.engine.runtime.partitioned import BYTES_PER_VALUE, PartitionedRelation, estimated_bytes
from repro.engine.runtime.partitioner import HashPartitioner, key_partition_index, stable_hash
from repro.engine.runtime.strategies import (
    DEFAULT_BROADCAST_MEMORY_LIMIT,
    DEFAULT_BROADCAST_THRESHOLD,
    UNKNOWN_ROWS,
    BroadcastHashJoin,
    JoinStrategy,
    PhysicalPlan,
    SerialJoin,
    ShuffleHashJoin,
    choose_join_strategy,
    estimate_rows,
    plan_join_strategies,
)

__all__ = [
    "BYTES_PER_VALUE",
    "DEFAULT_BROADCAST_MEMORY_LIMIT",
    "DEFAULT_BROADCAST_THRESHOLD",
    "DEFAULT_SKEW_FACTOR",
    "UNKNOWN_ROWS",
    "AdaptivePlanner",
    "BroadcastHashJoin",
    "HashPartitioner",
    "JoinStrategy",
    "ParallelExecutor",
    "PartitionedRelation",
    "PhysicalPlan",
    "ReplanEvent",
    "SerialJoin",
    "ShuffleHashJoin",
    "choose_join_strategy",
    "estimate_rows",
    "estimated_bytes",
    "key_partition_index",
    "plan_join_strategies",
    "stable_hash",
]
