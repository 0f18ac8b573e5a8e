"""Vectorized execution on dictionary-id column batches.

The dataset store holds RLE-paged integer id columns, and this module is how
the native engine executes on that shape instead of per-tuple term objects:
the batch representation stored scans emit — a :class:`ColumnBatch` of lists
of interned ids (a gather copies pointers, it never boxes an int) plus an
optional selection vector, the DuckDB vector idiom — and the batch-wise
kernels the executor runs on it: equality and single-variable filters,
joins on raw ids, projection/rename, DISTINCT, UNION and LIMIT.  Term
decoding is deferred to one :meth:`ColumnBatch.to_relation` boundary at the
end of the plan (or before an operator that has no id kernel), so a query
that scans millions of ids decodes only the rows it returns — through the
dictionary's session-long memo, so each id is decoded once per session, not
once per query that returns it.  In-memory
tables have no dictionary ids; plans over them run on
:class:`~repro.engine.relation.Relation` rows.

A join is one probe loop: one side's rows are looked up in an id -> positions
index of the other side.  A stored table keeps its whole-table id columns in
memory between queries, and each carries a :class:`PositionIndex`, built the
first time a join asks for it and dropped with the table's cached scans; the
batch of such a scan carries those indexes (``ColumnBatch.indexes``), so a
join on one column probes the stored side's index instead of hashing the
stored side again — the join index of RDF-3X's index nested-loop joins.  A
join with no resident index on its column indexes its smaller side for that
join only: the classic hash join.

Raw ids are only ever compared for *equality* — dictionary ids are assigned
in write order, not value order, so ``<``/``>`` on ids would be meaningless.
Comparison filters therefore decode each *distinct* id once and memoise the
predicate verdict (:meth:`ColumnBatch.select_ids`), which preserves the
row-path semantics at O(distinct) instead of O(rows) decode cost.

``NULL_ID`` (-1) stands in for SQL NULL / unbound variables; two NULLs
compare equal in a natural join, exactly like the row path's ``None == None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation, SchemaError
from repro.engine.storage import NULL_ID


def null_column(length: int) -> List[int]:
    """An id column of ``length`` NULLs."""
    return [NULL_ID] * length


def _count_selection(rows: int) -> List[int]:
    """The selection of a batch without columns: all it holds is a row count."""
    return list(range(rows))


def index_positions(rows: Iterable[Tuple[int, Any]]) -> Dict[Any, List[int]]:
    """key -> the positions it is met at, from ``(position, key)`` pairs."""
    index: Dict[Any, List[int]] = {}
    setdefault = index.setdefault
    for position, key in rows:
        setdefault(key, []).append(position)
    return index


class PositionIndex:
    """One resident id column and its id -> positions index, built on first use.

    A stored table keeps one per whole-table column it holds between queries
    and drops it with its cached scans, so the index lives exactly as long
    as the column it indexes.  The index is published by one assignment once
    complete: threads racing the first build may each build one, and none
    looks into a half-built one.
    """

    __slots__ = ("column", "_positions")

    def __init__(self, column: List[int]) -> None:
        self.column = column
        self._positions: Optional[Dict[Any, List[int]]] = None

    def positions(self) -> Dict[Any, List[int]]:
        positions = self._positions
        if positions is None:
            positions = self._positions = index_positions(enumerate(self.column))
        return positions


def _keyed_rows(batch: "ColumnBatch", key_columns: Sequence[str]) -> Iterable[Tuple[int, Any]]:
    """``(position, join key)`` of every valid row of ``batch``; one key
    column's raw id is its own key, more columns make a tuple."""
    keys = [batch.ids[batch.column_index(c)] for c in key_columns]
    selection = batch.selection
    if len(keys) == 1:
        column = keys[0]
        return enumerate(column) if selection is None else ((i, column[i]) for i in selection)
    return ((i, tuple(key[i] for key in keys)) for i in batch.indices())


class ColumnBatch:
    """An immutable batch of dictionary-id columns with a selection vector.

    ``ids`` holds one list of interned ids per column, all of equal length;
    ``selection`` (when not ``None``) lists the physically valid row indices
    in output order, so filters narrow a batch without copying a single
    column.  A batch without columns has nothing to take a length from: its
    selection is its rows (only the count means anything).  ``decode`` maps
    an id back to its term: it is the ``__getitem__`` of a
    :class:`~repro.store.format.TermMemo` (the stored dataset's dictionary
    memo), so it maps ``NULL_ID`` to ``None``; batches joined or unioned
    together must share it.  ``indexes`` (when not ``None``) holds
    per column its :class:`PositionIndex` or ``None``: a stored table's
    whole scan carries the ones of its resident columns, kernels that reuse
    the same lists in the same order pass them on, and every other kernel
    drops them.
    """

    __slots__ = ("columns", "ids", "selection", "decode", "indexes")

    def __init__(
        self,
        columns: Sequence[str],
        ids: Sequence[List[int]],
        decode: Callable[[int], Any],
        selection: Optional[List[int]] = None,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names in {self.columns}")
        if len(ids) != len(self.columns):
            raise SchemaError(
                f"{len(ids)} id columns for {len(self.columns)} column names"
            )
        lengths = {len(column) for column in ids}
        if len(lengths) > 1:
            raise SchemaError(f"id columns have unequal lengths {sorted(lengths)}")
        self.ids: Tuple[List[int], ...] = tuple(ids)
        self.selection = selection
        self.decode = decode
        self.indexes: Optional[Tuple[Optional[PositionIndex], ...]] = None

    @classmethod
    def adopt(
        cls,
        columns: Tuple[str, ...],
        ids: Tuple[List[int], ...],
        decode: Callable[[int], Any],
        selection: Optional[List[int]] = None,
        indexes: Optional[Tuple[Optional[PositionIndex], ...]] = None,
    ) -> "ColumnBatch":
        """Engine-internal constructor: check the schema, adopt ``ids`` as-is.

        The counterpart of :meth:`Relation.adopt` for kernels and scans:
        ``columns`` and ``ids`` are already tuples, one equal-length list of
        interned ids per name *by construction* (usually they are another
        batch's), so only the names are checked, and ``indexes`` index
        exactly those lists.  Anything assembled from outside input goes
        through ``ColumnBatch(columns, ids, decode)``.
        """
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column names in {columns}")
        batch = cls.__new__(cls)
        batch.columns = columns
        batch.ids = ids
        batch.selection = selection
        batch.decode = decode
        batch.indexes = indexes
        return batch

    # ------------------------------------------------------------------ #
    # Basics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self.selection is not None:
            return len(self.selection)
        return len(self.ids[0]) if self.ids else 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ColumnBatch(columns={self.columns}, rows={len(self)})"

    def indices(self) -> Sequence[int]:
        """The valid physical row indices, in output order."""
        if self.selection is not None:
            return self.selection
        return range(len(self.ids[0]) if self.ids else 0)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(f"unknown column {name!r}; available: {self.columns}") from None

    @classmethod
    def empty(cls, columns: Sequence[str], decode: Callable[[int], Any]) -> "ColumnBatch":
        return cls(columns, [[] for _ in columns], decode)

    # ------------------------------------------------------------------ #
    # Unary kernels
    # ------------------------------------------------------------------ #
    def gather(self) -> "ColumnBatch":
        """Compact the selection into flat columns (selection becomes implicit)."""
        if self.selection is None or not self.ids:
            return self
        selection = self.selection
        compacted = tuple(list(map(column.__getitem__, selection)) for column in self.ids)
        return ColumnBatch.adopt(self.columns, compacted, self.decode)

    def filter_equal(self, column: str, term_id: int) -> "ColumnBatch":
        """Keep rows whose ``column`` id equals ``term_id`` (raw-id equality)."""
        ids = self.ids[self.column_index(column)]
        if self.selection is None:
            kept = [i for i, value in enumerate(ids) if value == term_id]
        else:
            kept = [i for i in self.selection if ids[i] == term_id]
        return ColumnBatch.adopt(self.columns, self.ids, self.decode, selection=kept)

    def select_ids(self, column: str, predicate: Callable[[int], bool]) -> "ColumnBatch":
        """Filter by a per-id predicate, memoised over *distinct* ids.

        The predicate typically decodes the id and evaluates a SPARQL filter
        expression; memoisation makes that O(distinct ids), which is what
        licenses running comparison filters on unordered dictionary ids.
        """
        ids = self.ids[self.column_index(column)]
        verdicts: Dict[int, bool] = {}
        kept: List[int] = []
        for i in self.indices():
            value = ids[i]
            verdict = verdicts.get(value)
            if verdict is None:
                verdict = bool(predicate(value))
                verdicts[value] = verdict
            if verdict:
                kept.append(i)
        return ColumnBatch.adopt(self.columns, self.ids, self.decode, selection=kept)

    def project(self, columns: Sequence[str]) -> "ColumnBatch":
        """Keep only ``columns``, in the given order (duplicates removed)."""
        unique: List[str] = []
        for column in columns:
            if column not in unique:
                unique.append(column)
        positions = [self.column_index(c) for c in unique]
        picked = tuple(self.ids[p] for p in positions)
        selection = self.selection
        if not picked and selection is None:
            selection = _count_selection(len(self))
        indexes = self.indexes
        if indexes is not None:
            indexes = tuple(indexes[p] for p in positions) if picked else None
        return ColumnBatch.adopt(
            tuple(unique), picked, self.decode, selection=selection, indexes=indexes
        )

    def rename(self, mapping: Mapping[str, str]) -> "ColumnBatch":
        for old in mapping:
            self.column_index(old)
        new_columns = tuple(mapping.get(c, c) for c in self.columns)
        return ColumnBatch.adopt(
            new_columns, self.ids, self.decode, selection=self.selection, indexes=self.indexes
        )

    def pad_to(self, columns: Sequence[str]) -> "ColumnBatch":
        """Add missing columns as all-NULL id columns (unbound variables)."""
        missing = [c for c in columns if c not in self.columns]
        if not missing:
            return self
        length = len(self.ids[0]) if self.ids else len(self)
        padded = self.ids + tuple(null_column(length) for _ in missing)
        return ColumnBatch.adopt(
            self.columns + tuple(missing),
            padded,
            self.decode,
            # Without columns the selection only counted rows; the new columns do now.
            selection=self.selection if self.ids else None,
        )

    def distinct(self) -> "ColumnBatch":
        seen = set()
        add = seen.add
        kept: List[int] = []
        append = kept.append
        ids = self.ids
        selection = self.selection
        if not ids:
            # Zero-column batch: every row is the empty tuple, keep one.
            first = self.indices()[:1]
            return ColumnBatch.adopt(self.columns, ids, self.decode, selection=list(first))
        if len(ids) == 1:
            # Single column: the raw id is its own key, no tuple per row.
            column = ids[0]
            rows = enumerate(column) if selection is None else (
                (i, column[i]) for i in selection
            )
            for i, key in rows:
                if key not in seen:
                    add(key)
                    append(i)
        else:
            indices = self.indices()
            # zip() assembles the key tuples at C speed, column-wise.
            keys = (
                zip(*ids)
                if selection is None
                else zip(*(map(column.__getitem__, selection) for column in ids))
            )
            for i, key in zip(indices, keys):
                if key not in seen:
                    add(key)
                    append(i)
        return ColumnBatch.adopt(self.columns, ids, self.decode, selection=kept)

    def limit(self, count: Optional[int], offset: int = 0) -> "ColumnBatch":
        end = None if count is None else offset + count
        indices = self.indices()
        kept = list(indices[offset:end])
        return ColumnBatch.adopt(self.columns, self.ids, self.decode, selection=kept)

    # ------------------------------------------------------------------ #
    # Binary kernels
    # ------------------------------------------------------------------ #
    def union(self, other: "ColumnBatch") -> "ColumnBatch":
        """Bag union; differing schemas are NULL-padded like ``Relation.union``."""
        if set(self.columns) != set(other.columns):
            all_columns = list(dict.fromkeys(list(self.columns) + list(other.columns)))
            return self.pad_to(all_columns).union(other.pad_to(all_columns))
        aligned = other.project(self.columns)
        return concat_batches([self.gather(), aligned.gather()])

    def natural_join(
        self, other: "ColumnBatch", metrics: Optional[ExecutionMetrics] = None
    ) -> "ColumnBatch":
        """Join on all shared column names: one side's rows probe the other's index.

        On one shared column, a side that is its stored table's whole column
        (it carries the column's :class:`PositionIndex` and no selection) is
        probed where it lies: the other side's rows are looked up in its
        index, and when both sides are such columns the smaller side's rows
        are.  Otherwise the smaller side is indexed for this join only, on
        its raw id or, for more shared columns, its id tuple.  Id equality is
        term equality (the dictionary is injective) and ``NULL_ID`` matches
        ``NULL_ID`` exactly as the row path's ``None == None`` does, so the
        output bag matches :meth:`Relation.natural_join` row for row.
        """
        shared = [c for c in self.columns if c in other.columns]
        output_columns = self.columns + tuple(c for c in other.columns if c not in shared)

        if not shared:
            # Cross product: tile the two index vectors, gather column-wise.
            left_indices = self.indices()
            right_indices = list(other.indices())
            left_idx = [i for i in left_indices for _ in right_indices]
            right_idx = right_indices * len(left_indices)
            out = tuple(
                [list(map(column.__getitem__, left_idx)) for column in self.ids]
                + [list(map(column.__getitem__, right_idx)) for column in other.ids]
            )
            if metrics is not None:
                metrics.record_join(len(self), len(other), len(left_idx), len(left_idx))
            return ColumnBatch.adopt(
                output_columns,
                out,
                self.decode,
                selection=None if out else _count_selection(len(left_idx)),
            )

        smaller_is_left = len(self) <= len(other)
        left_index = self._resident_index(shared)
        right_index = other._resident_index(shared)
        if left_index is not None and (right_index is None or not smaller_is_left):
            index, indexed_is_left = left_index.positions(), True
        elif right_index is not None:
            index, indexed_is_left = right_index.positions(), False
        else:
            indexed_is_left = smaller_is_left
            index = index_positions(_keyed_rows(self if smaller_is_left else other, shared))

        # The probe only collects matched (indexed, probe) position pairs; the
        # output columns are gathered afterwards in one C-level map per column.
        indexed_idx: List[int] = []
        probe_idx: List[int] = []
        indexed_append = indexed_idx.append
        probe_append = probe_idx.append
        comparisons = 0
        get = index.get
        for j, key in _keyed_rows(other if indexed_is_left else self, shared):
            bucket = get(key)
            if bucket is None:
                continue
            matched = len(bucket)
            comparisons += matched
            if matched == 1:
                indexed_append(bucket[0])
                probe_append(j)
            else:
                indexed_idx.extend(bucket)
                probe_idx.extend([j] * matched)

        # The output is ``self``'s columns, then ``other``'s unshared ones.
        left_idx, right_idx = (
            (indexed_idx, probe_idx) if indexed_is_left else (probe_idx, indexed_idx)
        )
        out = [list(map(column.__getitem__, left_idx)) for column in self.ids]
        out += [
            list(map(column.__getitem__, right_idx))
            for name, column in zip(other.columns, other.ids)
            if name not in shared
        ]
        if metrics is not None:
            metrics.record_join(len(self), len(other), comparisons, len(indexed_idx))
        return ColumnBatch.adopt(output_columns, tuple(out), self.decode)

    def _resident_index(self, shared: Sequence[str]) -> Optional[PositionIndex]:
        """The index of the one join column, when this batch is that whole
        resident column: it carries the column's index and no selection."""
        indexes = self.indexes
        if indexes is None or self.selection is not None or len(shared) != 1:
            return None
        return indexes[self.column_index(shared[0])]

    # ------------------------------------------------------------------ #
    # Lowering
    # ------------------------------------------------------------------ #
    def to_relation(self) -> Relation:
        """Decode to a row :class:`Relation` — the single batch→rows boundary.

        Eager: every row is a tuple of decoded terms when this returns.  Whole
        columns go through ``decode`` by ``map`` and into rows by ``zip``.
        ``decode`` is the ``__getitem__`` of a
        :class:`~repro.store.format.TermMemo` — the session's dictionary
        memo, or a served reply's — so ``NULL_ID`` lowers to ``None``, an id
        decoded by any earlier query of the session is a dict hit, and an id
        outside the dictionary's committed range raises ``KeyError`` here,
        never a wrong term.
        """
        decode = self.decode
        selection = self.selection
        columns: Sequence[Iterable[int]] = self.ids
        if selection is not None:
            columns = [map(column.__getitem__, selection) for column in columns]
        if columns:
            rows: List[Tuple] = list(zip(*[map(decode, column) for column in columns]))
        else:
            rows = [()] * len(self)
        return Relation.adopt(self.columns, rows)


def concat_batches(batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """Concatenate batches sharing one schema and decoder (bag semantics)."""
    if not batches:
        raise ValueError("cannot concatenate zero batches")
    first = batches[0]
    out: List[List[int]] = [[] for _ in first.columns]
    for batch in batches:
        if batch.columns != first.columns:
            raise SchemaError(
                f"cannot concatenate batches with schemas {first.columns} and {batch.columns}"
            )
        compacted = batch.gather()
        for position, column in enumerate(compacted.ids):
            out[position].extend(column)
    selection = None if out else _count_selection(sum(map(len, batches)))
    return ColumnBatch.adopt(first.columns, tuple(out), first.decode, selection=selection)


@dataclass
class BatchScanResult:
    """Outcome of a vectorized store scan (the batch-shaped ``ScanResult``)."""

    batch: ColumnBatch
    rows_scanned: int
    segments_scanned: int = 0
    segments_pruned: int = 0
