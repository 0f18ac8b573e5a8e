"""Execution metrics.

The paper's argument for ExtVP is quantitative: fewer input tuples, fewer
shuffled tuples and fewer join comparisons.  Every relational operator in the
engine updates an :class:`ExecutionMetrics` instance so the benchmark harness
can report exactly these quantities and feed them to the simulated systems'
cost models (:mod:`repro.baselines.cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import ClassVar, Dict, FrozenSet, Tuple


@dataclass
class ExecutionMetrics:
    """Counters collected while executing one query.

    ``merge``/``copy``/``as_dict`` are derived from ``dataclasses.fields()``,
    so adding a counter field needs no lockstep edits — only the *scaling
    category* must be declared: a new field's name goes into
    :data:`DATA_PROPORTIONAL` if it grows with data size, into
    :data:`UNSCALED_TIMINGS` if it is an observed wall-clock measurement, and
    nowhere otherwise (structural counters are copied unscaled).  The
    fields-audit test asserts every field is classified.
    """

    #: Tuples read from base tables (query input size).
    input_tuples: int = 0
    #: Tuples moved between "nodes" for joins (shuffle volume).
    shuffled_tuples: int = 0
    #: Candidate pairs compared during join probing.
    join_comparisons: int = 0
    #: Tuples produced by the final operator.
    output_tuples: int = 0
    #: Tuples produced by intermediate joins (materialised between stages).
    intermediate_tuples: int = 0
    #: Number of join operators executed.
    joins: int = 0
    #: Number of base-table scans.
    table_scans: int = 0
    #: Number of distributed stages (scans + shuffles), used by cost models.
    stages: int = 0
    #: Bytes moved by a shuffle exchange, bytes shipped by a broadcast
    #: exchange, joins replanned at run time.  Every join runs in process, so
    #: these are always 0; they stay only because the benchmark suite's
    #: per-layer probe reads them, and go once its ``smoke()`` tolerates a
    #: metric declared unavailable (ROADMAP item 1).
    shuffled_bytes: int = 0
    broadcast_bytes: int = 0
    aqe_replans: int = 0
    #: Wall-clock milliseconds spent in join operators, summed over joins.
    critical_path_ms: float = 0.0
    #: Column segments a pruned columnar scan of the dataset store reads.
    store_segments_scanned: int = 0
    #: Column segments it skips by zone-map / bucket pruning.
    store_segments_pruned: int = 0
    #: Rows that flowed through id-batch operators instead of row ones —
    #: how much of a query ran on dictionary ids (0 only when nothing was
    #: scanned: every scan yields a batch).
    vectorized_rows: int = 0
    #: Plan operators that executed on :class:`~repro.engine.vectorized.ColumnBatch`
    #: inputs (structural: depends on the plan shape, not the data size).
    vectorized_batches: int = 0
    #: Per-table scan counts, useful for debugging table selection.
    scanned_tables: Dict[str, int] = field(default_factory=dict)

    #: Fields multiplied by :meth:`scaled`'s factor (tuple and byte counts,
    #: including the per-table ``scanned_tables`` map): they grow with data
    #: size, so the benchmark harness extrapolates them to the paper's scale.
    DATA_PROPORTIONAL: ClassVar[FrozenSet[str]] = frozenset(
        {
            "input_tuples",
            "shuffled_tuples",
            "join_comparisons",
            "output_tuples",
            "intermediate_tuples",
            "shuffled_bytes",
            "broadcast_bytes",
            "vectorized_rows",
            "scanned_tables",
        }
    )
    #: Observed wall-clock timings: copied *unscaled* by :meth:`scaled` — they
    #: measure this machine at this data scale, and extrapolated runtimes must
    #: come from the cost models' counter-derived terms.
    UNSCALED_TIMINGS: ClassVar[FrozenSet[str]] = frozenset({"critical_path_ms"})

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """Every counter field, in declaration order."""
        return tuple(f.name for f in fields(cls))

    def record_scan(self, table_name: str, rows: int) -> None:
        self.input_tuples += rows
        self.table_scans += 1
        self.stages += 1
        self.scanned_tables[table_name] = self.scanned_tables.get(table_name, 0) + rows

    def record_join(self, left_rows: int, right_rows: int, comparisons: int, output_rows: int) -> None:
        self.joins += 1
        self.stages += 1
        self.shuffled_tuples += left_rows + right_rows
        self.join_comparisons += comparisons
        self.intermediate_tuples += output_rows

    def record_critical_path(self, elapsed_ms: float) -> None:
        self.critical_path_ms += elapsed_ms

    def record_segment_scan(self, scanned: int, pruned: int) -> None:
        """One store-backed table scan: segments read vs. segments pruned."""
        self.store_segments_scanned += scanned
        self.store_segments_pruned += pruned

    def record_vectorized(self, rows: int) -> None:
        """One plan operator produced a ``rows``-long id batch (no row dicts)."""
        self.vectorized_batches += 1
        self.vectorized_rows += rows

    def merge(self, other: "ExecutionMetrics") -> None:
        """Accumulate another metrics object into this one (field-derived)."""
        for name in self.field_names():
            value = getattr(other, name)
            if isinstance(value, dict):
                mine = getattr(self, name)
                for key, amount in value.items():
                    mine[key] = mine.get(key, 0) + amount
            else:
                setattr(self, name, getattr(self, name) + value)

    def scaled(self, factor: float) -> "ExecutionMetrics":
        """Return a copy with all data-proportional counters multiplied.

        The benchmark harness uses this to extrapolate counters measured on a
        laptop-scale dataset to the paper's data scale before feeding them to
        the cost models.  The scaling contract, encoded by the two class-level
        category sets:

        * fields in :data:`DATA_PROPORTIONAL` are multiplied by ``factor``;
        * fields in :data:`UNSCALED_TIMINGS` are copied unscaled — multiplying
          a measured time by the data factor would double-count hardware
          speed;
        * every other field is *structural* (``joins``, ``table_scans``,
          ``stages``, ``aqe_replans``): it does not grow with data size and
          stays unchanged.
        """
        clone = self.copy()
        for name in self.field_names():
            if name not in self.DATA_PROPORTIONAL:
                continue
            value = getattr(self, name)
            if isinstance(value, dict):
                setattr(clone, name, {key: int(v * factor) for key, v in value.items()})
            else:
                setattr(clone, name, int(value * factor))
        return clone

    def __reduce__(self):
        # By value, in declaration order: a served query's counters cross the
        # worker pipe with every reply, and the field names need not.
        return ExecutionMetrics, _FIELD_VALUES(self)

    def copy(self) -> "ExecutionMetrics":
        clone = ExecutionMetrics()
        for name in self.field_names():
            value = getattr(self, name)
            setattr(clone, name, dict(value) if isinstance(value, dict) else value)
        return clone

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in self.field_names():
            value = getattr(self, name)
            if isinstance(value, dict):
                out[name] = dict(value)
            elif isinstance(value, float):
                out[name] = round(value, 3)
            else:
                out[name] = value
        return out


_FIELD_VALUES = attrgetter(*ExecutionMetrics.field_names())
