"""Hash partitioning of relations.

Spark distributes a DataFrame across executors by hashing the shuffle keys of
each row (``HashPartitioner``).  This module provides the same primitive for
the local engine: a deterministic, process-stable hash over term values (CRC32
over the N3 rendering, so partition assignment does not depend on Python's
per-process string-hash randomisation) and a :class:`HashPartitioner` that
splits a :class:`~repro.engine.relation.Relation` into ``num_partitions``
disjoint partitions such that rows with equal key values land in the same
partition — the co-location invariant every partitioned hash join relies on.
"""

from __future__ import annotations

import zlib
from typing import Any, List, Sequence, Tuple

from repro.engine.relation import Relation, Row


def stable_hash(value: Any) -> int:
    """Deterministic 32-bit hash of one term value.

    Stable across processes and runs (unlike ``hash(str)``), so partition
    assignments — and therefore test expectations — are reproducible.
    """
    if value is None:
        data = b"\x00"
    elif hasattr(value, "n3"):
        data = value.n3().encode("utf-8")
    else:
        data = repr(value).encode("utf-8")
    return zlib.crc32(data)


def key_partition_index(key: Tuple[Any, ...], num_partitions: int) -> int:
    """Partition index of one key tuple (CRC32 combined over the components)."""
    combined = 0
    for component in key:
        combined = zlib.crc32(stable_hash(component).to_bytes(4, "big"), combined)
    return combined % num_partitions


class HashPartitioner:
    """Splits relations into hash partitions keyed on join columns."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition(self, relation: Relation, keys: Sequence[str]) -> List[Relation]:
        """Hash-partition ``relation`` on ``keys``.

        Rows with equal key values are guaranteed to share a partition; the
        union of all partitions is exactly the input bag.
        """
        if not keys:
            raise ValueError("hash partitioning requires at least one key column")
        if self.num_partitions == 1:
            return [relation]
        key_indexes = [relation.column_index(k) for k in keys]
        buckets: List[List[Row]] = [[] for _ in range(self.num_partitions)]
        for row in relation.rows:
            key = tuple(row[i] for i in key_indexes)
            buckets[key_partition_index(key, self.num_partitions)].append(row)
        return [Relation.adopt(relation.columns, bucket) for bucket in buckets]

    def split_evenly(self, relation: Relation) -> List[Relation]:
        """Split into ``num_partitions`` contiguous chunks of near-equal size.

        Used for the probe side of a broadcast join, where no co-location is
        needed and an even row count per task maximises parallel balance.
        """
        if self.num_partitions == 1:
            return [relation]
        total = len(relation.rows)
        base, remainder = divmod(total, self.num_partitions)
        chunks: List[Relation] = []
        start = 0
        for index in range(self.num_partitions):
            size = base + (1 if index < remainder else 0)
            chunks.append(Relation.adopt(relation.columns, relation.rows[start : start + size]))
            start += size
        return chunks
