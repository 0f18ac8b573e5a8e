"""Partitioned relations.

A :class:`PartitionedRelation` is the local stand-in for a Spark RDD/DataFrame
that has been shuffled onto executors: an ordered list of disjoint
:class:`~repro.engine.relation.Relation` partitions sharing one schema,
optionally tagged with the key columns they are hash-partitioned on.  Two
relations partitioned on the same keys with the same partition count are
*co-partitioned*: partition ``i`` of one can only join with partition ``i`` of
the other, which is what makes per-partition parallel joins correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.relation import Relation
from repro.engine.runtime.partitioner import HashPartitioner

#: Rough in-flight size of one term value when shipped over the simulated
#: network (pointer + small dictionary-encoded payload).  Used for shuffle and
#: broadcast byte accounting, mirroring Spark's serialized shuffle sizes.
BYTES_PER_VALUE = 24


def estimated_bytes(relation) -> int:
    """Estimated serialized size of a relation's rows.

    Duck-typed: anything carrying its own ``estimated_bytes()`` (notably
    :class:`~repro.engine.vectorized.ColumnBatch`, whose values are packed
    8-byte ids rather than term objects) reports through that, so exchanges
    shipping id batches are automatically accounted smaller.
    """
    own = getattr(relation, "estimated_bytes", None)
    if own is not None:
        return own()
    return len(relation.rows) * len(relation.columns) * BYTES_PER_VALUE


@dataclass(frozen=True)
class PartitionedRelation:
    """A relation split into disjoint partitions with a common schema."""

    columns: Tuple[str, ...]
    partitions: Tuple[Relation, ...]
    #: Key columns the partitions are hashed on (``None`` for an even split).
    keys: Optional[Tuple[str, ...]] = None

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        num_partitions: int,
        keys: Optional[Sequence[str]] = None,
    ) -> "PartitionedRelation":
        """Partition ``relation``: by hash when ``keys`` is given, evenly otherwise."""
        partitioner = HashPartitioner(num_partitions)
        if keys:
            parts = partitioner.partition(relation, keys)
            return cls(relation.columns, tuple(parts), tuple(keys))
        return cls(relation.columns, tuple(partitioner.split_evenly(relation)))

    @classmethod
    def from_prepartitioned(cls, relation: Relation) -> "PartitionedRelation":
        """Adopt the bucket layout a store-backed scan already produced.

        The relation's :class:`~repro.engine.relation.Partitioning` tag
        declares that its rows are ordered by bucket (bucket ``i`` holds the
        next ``counts[i]`` rows, hashed on ``keys`` with the partitioner's
        hash), so the buckets can be sliced out without re-hashing a single
        row — the shuffle exchange this avoids is the whole point of keeping
        tables pre-partitioned in the store.
        """
        tag = relation.partitioning
        if tag is None:
            raise ValueError("relation carries no partitioning tag")
        parts: List[Relation] = []
        start = 0
        for count in tag.counts:
            parts.append(Relation.adopt(relation.columns, relation.rows[start : start + count]))
            start += count
        if start != len(relation.rows):
            raise ValueError(
                f"partitioning tag covers {start} rows but relation has {len(relation.rows)}"
            )
        return cls(relation.columns, tuple(parts), tag.keys)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def total_rows(self) -> int:
        return sum(len(part) for part in self.partitions)

    def estimated_bytes(self) -> int:
        return sum(estimated_bytes(part) for part in self.partitions)

    def partition_sizes(self) -> List[int]:
        return [len(part) for part in self.partitions]

    def merge(self) -> Relation:
        """Concatenate all partitions back into one relation (bag semantics)."""
        rows: List = []
        for part in self.partitions:
            rows.extend(part.rows)
        return Relation.adopt(self.columns, rows)

    def is_co_partitioned_with(self, other: "PartitionedRelation") -> bool:
        """True when per-index partition joins with ``other`` are correct.

        Both sides must be hashed on the *same* key columns with the same
        partition count — natural joins rename shared variables to identical
        column names, so name equality is the right test.
        """
        return (
            self.keys is not None
            and self.keys == other.keys
            and self.num_partitions == other.num_partitions
        )
