"""Adaptive query execution (AQE): re-optimize join strategies at run time.

Spark 3's adaptive execution re-plans the not-yet-executed stages of a query
at shuffle materialization boundaries, where the *observed* sizes of the
finished stages are known — demoting sort-merge joins to broadcast joins,
coalescing small partitions and splitting skewed ones.  The static planner in
:mod:`repro.engine.runtime.strategies` is exactly the component that needs
this safety net: it trusts pre-execution estimates, and a stale (or missing)
statistics entry makes it broadcast a huge table or shuffle a tiny one.

This module is the local analogue.  Joins execute bottom-up, so by the time a
join operator runs, both of its inputs are fully materialized — the natural
re-optimization point.  The :class:`AdaptivePlanner`

* **revises** each join's planned strategy from the observed input sizes just
  before it runs (:meth:`AdaptivePlanner.revise`; the executor only asks when
  the observed inputs are big enough to need an exchange at all): a planned
  :class:`~repro.engine.runtime.strategies.SerialJoin` whose inputs outgrew
  the small-join bound gets the exchange it needs, a planned
  :class:`~repro.engine.runtime.strategies.ShuffleHashJoin` whose build
  candidate is actually under the broadcast threshold is demoted to a
  :class:`~repro.engine.runtime.strategies.BroadcastHashJoin`, the reverse is
  promoted back to a shuffle, and a broadcast whose build side turned out to
  be the larger one has its build side flipped;
* **splits skewed partitions** (:meth:`AdaptivePlanner.split_skewed`): any
  shuffle partition larger than ``skew_factor ×`` the median partition size is
  subdivided into median-sized chunks, each joined against the whole
  co-partition of the other side, so the join's critical path tracks the
  median partition instead of the straggler;
* **feeds observed cardinalities back into the catalog**
  (:meth:`AdaptivePlanner.observe_scan` →
  :meth:`~repro.engine.catalog.Catalog.record_observed`), a session-level
  statistics cache consulted by
  :func:`~repro.engine.runtime.strategies.estimate_rows`, so repeated queries
  plan from observed truth and need no replans at all.

Correctness invariants the splitter maintains:

* only *one* side of a co-partition pair is ever chunked (chunk × chunk
  pairing would miss matches), and the chunks partition the side's rows, so
  the union of the chunk joins is bag-equal to the whole-partition join;
* the preserved (left) side is the only splittable side of a left outer join
  — splitting the right side would emit spurious null-padded rows;
* inputs consumed pre-partitioned from the dataset store (partition-aligned
  scans) are never re-split: their bucket layout is the zero-shuffle contract
  the store provides, and chunking it would discard that audit trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.catalog import Catalog
from repro.engine.ops import PlanNode
from repro.engine.relation import Relation
from repro.engine.vectorized import ColumnBatch, PartitionedBatch
from repro.engine.runtime.partitioned import estimated_bytes
from repro.engine.runtime.partitioner import HashPartitioner
from repro.engine.runtime.strategies import (
    DEFAULT_BROADCAST_THRESHOLD,
    BroadcastHashJoin,
    JoinStrategy,
    SerialJoin,
    ShuffleHashJoin,
    choose_join_strategy,
)

#: A partition is skewed when it holds more than this multiple of the median
#: partition size (Spark: ``spark.sql.adaptive.skewJoin.skewedPartitionFactor``).
DEFAULT_SKEW_FACTOR = 4.0

#: Partitions smaller than this are never split, whatever the ratio says —
#: chunking a handful of rows only adds task overhead (Spark's analogue is
#: ``skewedPartitionThresholdInBytes``).
MIN_SKEW_PARTITION_ROWS = 16

#: Upper bound on chunks per split partition, so a degenerate layout (one hub
#: key holding every row, median 0) cannot explode into thousands of tasks.
MAX_SKEW_CHUNKS = 16

#: One co-partitioned (left, right) join task input.
PartitionPair = Tuple[Relation, Relation]


@dataclass(frozen=True)
class ReplanEvent:
    """One strategy revision made from observed input sizes."""

    initial: JoinStrategy
    revised: JoinStrategy
    reason: str
    #: ``id()`` of the revised join's plan node, so ``explain_analyze`` can
    #: attach the revision (and its reason) to the right operator.
    node_id: int = 0

    def describe(self) -> str:
        return f"{self.initial.name} -> {self.revised.name}: {self.reason}"


class AdaptivePlanner:
    """Re-plans joins from observed cardinalities as the plan materializes."""

    def __init__(
        self,
        catalog: Catalog,
        broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
        skew_factor: float = DEFAULT_SKEW_FACTOR,
        min_skew_rows: int = MIN_SKEW_PARTITION_ROWS,
    ) -> None:
        if skew_factor <= 1.0:
            raise ValueError("skew_factor must be > 1")
        self.catalog = catalog
        self.broadcast_threshold = broadcast_threshold
        self.skew_factor = skew_factor
        self.min_skew_rows = min_skew_rows
        #: Revisions made while executing the current query, with reasons —
        #: introspection for plan debugging (counts live in ExecutionMetrics).
        self.replan_events: List[ReplanEvent] = []

    # ------------------------------------------------------------------ #
    # Per-query lifecycle
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear per-query state."""
        self.replan_events = []

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe_scan(self, table_name: str, row_count: int) -> None:
        """Feed a full-table observation into the catalog's statistics cache.

        Subsequent queries (and re-plans of this one) estimate the table from
        this observed size instead of the possibly stale static statistics.
        """
        self.catalog.record_observed(table_name, row_count)

    # ------------------------------------------------------------------ #
    # Strategy revision
    # ------------------------------------------------------------------ #
    def revise(
        self,
        node: PlanNode,
        planned: JoinStrategy,
        left: Relation,
        right: Relation,
    ) -> Tuple[JoinStrategy, Optional[ReplanEvent]]:
        """Re-decide ``planned`` from the materialized join inputs.

        Applies the same decision rule as the static planner, but with
        observed sizes — so the outcome is what the planner *would* have
        chosen with perfect statistics.  Returns the strategy to execute and
        a :class:`ReplanEvent` when it differs from the plan.
        """
        left_bytes = estimated_bytes(left)
        right_bytes = estimated_bytes(right)
        # Same decision rule as the static planner, fed observed sizes.
        revised = choose_join_strategy(
            planned.keys,
            len(left),
            len(right),
            left_bytes,
            right_bytes,
            self.broadcast_threshold,
            outer=node.is_outer_join,
        )

        if revised.same_decision(planned):
            return revised, None
        event = ReplanEvent(
            planned,
            revised,
            self._reason(planned, revised, left_bytes, right_bytes),
            node_id=id(node),
        )
        self.replan_events.append(event)
        return revised, event

    def replan_event_for(self, node: PlanNode) -> Optional[ReplanEvent]:
        """The revision recorded for ``node`` during the last execution."""
        for event in self.replan_events:
            if event.node_id == id(node):
                return event
        return None

    def _reason(
        self,
        planned: JoinStrategy,
        revised: JoinStrategy,
        left_bytes: int,
        right_bytes: int,
    ) -> str:
        observed = f"observed left={left_bytes} B, right={right_bytes} B"
        if isinstance(planned, SerialJoin):
            # Estimated under the small-join bound, materialized above it.
            observed = (
                f"estimated {planned.reason}, observed {revised.left_rows} + "
                f"{revised.right_rows} rows; {observed}"
            )
        if isinstance(revised, BroadcastHashJoin) and not isinstance(planned, BroadcastHashJoin):
            build = left_bytes if revised.build_side == "left" else right_bytes
            return (
                f"demoted to broadcast: {observed}; build side {build} B <= "
                f"threshold {self.broadcast_threshold} B"
            )
        if isinstance(revised, ShuffleHashJoin) and not isinstance(planned, ShuffleHashJoin):
            return (
                f"promoted to shuffle: {observed}; both sides > "
                f"threshold {self.broadcast_threshold} B"
            )
        return f"build side flipped: {observed}"

    # ------------------------------------------------------------------ #
    # Skew splitting
    # ------------------------------------------------------------------ #
    def split_skewed(
        self,
        pairs: List[PartitionPair],
        splittable_left: bool = True,
        splittable_right: bool = True,
    ) -> Tuple[List[PartitionPair], int]:
        """Subdivide skewed partitions into median-sized join tasks.

        For each co-partition pair whose left (or right) side exceeds
        ``skew_factor ×`` the median partition size of that side, the skewed
        side is chunked evenly and every chunk is paired with the *whole*
        co-partition of the other side — bag-equal to the unsplit join, but
        with a critical path bounded by the chunk size rather than the
        straggler.  Returns the expanded task list and the number of extra
        tasks created (0 when nothing is skewed).
        """
        left_target = self._chunk_target([len(l) for l, _ in pairs])
        right_target = self._chunk_target([len(r) for _, r in pairs])
        out: List[PartitionPair] = []
        extra = 0
        for left_part, right_part in pairs:
            left_chunks = self._chunks_for(len(left_part), left_target) if splittable_left else 1
            right_chunks = self._chunks_for(len(right_part), right_target) if splittable_right else 1
            # Only one side of a pair may be chunked (chunk x chunk pairing
            # would miss matches); split the more skewed side.
            if left_chunks >= right_chunks and left_chunks > 1:
                for chunk in self._split(left_part, left_chunks):
                    out.append((chunk, right_part))
                extra += left_chunks - 1
            elif right_chunks > 1:
                for chunk in self._split(right_part, right_chunks):
                    out.append((left_part, chunk))
                extra += right_chunks - 1
            else:
                out.append((left_part, right_part))
        return out, extra

    def _chunk_target(self, sizes: List[int]) -> int:
        """Desired rows per task: the median partition size (floored sanely)."""
        if not sizes:
            return 1
        ordered = sorted(sizes)
        median = ordered[len(ordered) // 2]
        return max(1, median)

    def _chunks_for(self, size: int, target: int) -> int:
        if size < self.min_skew_rows or size <= self.skew_factor * target:
            return 1
        return min(MAX_SKEW_CHUNKS, math.ceil(size / target))

    @staticmethod
    def _split(part, chunks: int) -> List:
        """``part`` in ``chunks`` even pieces; a batch partition is a selection
        vector, so its chunks are slices of it over the same id columns."""
        if isinstance(part, ColumnBatch):
            return list(PartitionedBatch.from_batch(part, chunks).partitions)
        return HashPartitioner(chunks).split_evenly(part)
