"""Column-named relations and relational operators.

A :class:`Relation` is a bag of tuples with named columns — the stand-in for a
Spark SQL ``DataFrame``.  All operators are pure (they return new relations)
and optionally record their work in an
:class:`~repro.engine.metrics.ExecutionMetrics` instance.

Joins are natural joins on shared column names, which matches the way the
S2RDF compiler renames VP/ExtVP columns to query-variable names so subqueries
"can be easily joined on same column names" (Sec. 6.1).
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.metrics import ExecutionMetrics

Row = Tuple[Any, ...]


class SchemaError(ValueError):
    """Raised when an operator is applied to incompatible schemas."""


class Relation:
    """An immutable bag of tuples with named columns.

    Two constructors, one per kind of caller.  ``Relation(columns, rows)`` is
    the public one: it accepts any iterable of row sequences, turns each into
    a tuple and checks its width against the schema, so malformed outside
    input raises :class:`SchemaError` here and nowhere later.
    :meth:`Relation.adopt` is the engine's own: operators and scans that build tuples of the right width *by construction* hand their row
    list over as-is — the schema is still checked, the rows are not copied.
    Neither an operator nor a caller may mutate ``rows`` afterwards: adopted
    lists are shared (a rename shares its input's rows, a cached scan shares
    them with every query that reads it).
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names in {self.columns}")
        materialized: List[Row] = []
        width = len(self.columns)
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise SchemaError(
                    f"row has {len(row_tuple)} values but schema has {width} columns: {row_tuple!r}"
                )
            materialized.append(row_tuple)
        self.rows: List[Row] = materialized

    @classmethod
    def adopt(cls, columns: Sequence[str], rows: List[Row]) -> "Relation":
        """Engine-internal constructor: check the schema, adopt ``rows`` as-is.

        ``rows`` must be a list of tuples that each have ``len(columns)``
        values by construction, and the caller gives the list up — it is
        neither copied nor re-checked.  Anything built from outside input
        goes through ``Relation(columns, rows)`` instead.
        """
        relation = cls.__new__(cls)
        relation.columns = tuple(columns)
        if len(set(relation.columns)) != len(relation.columns):
            raise SchemaError(f"duplicate column names in {relation.columns}")
        relation.rows = rows
        return relation

    # ------------------------------------------------------------------ #
    # Basics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality over canonicalized rows.

        Two relations are equal when they have the same column *set* and the
        same multiset of rows once each row's values are reordered by sorted
        column name — so ``Relation(("a", "b"), [(1, 2)])`` equals
        ``Relation(("b", "a"), [(2, 1)])``.  Canonicalization works on the
        value tuples directly (no ``repr`` strings, no sort over the bag).
        """
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.columns) != set(other.columns):
            return False
        return Counter(self._canonical_rows()) == Counter(other._canonical_rows())

    def __hash__(self) -> int:
        """Bag-equality hash, consistent with :meth:`__eq__`.

        Defining ``__eq__`` alone made relations unhashable, which silently
        broke set membership and dict keying for callers.  Relations are
        immutable by convention (operators return new instances; ``rows``
        must not be mutated after construction), so hashing is safe.  Each
        call is O(n) over the rows — fine for occasional dedup/keying, not
        for hot loops.
        """
        return hash(
            (tuple(sorted(self.columns)), frozenset(Counter(self._canonical_rows()).items()))
        )

    def _canonical_rows(self) -> Iterator[Row]:
        """Rows with values reordered by sorted column name."""
        indexes = [self.columns.index(c) for c in sorted(self.columns)]
        return (tuple(row[i] for i in indexes) for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Relation(columns={self.columns}, rows={len(self.rows)})"

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(f"unknown column {name!r}; available: {self.columns}") from None

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Materialise rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column_values(self, name: str) -> List[Any]:
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def distinct_count(self, name: str) -> int:
        return len(set(self.column_values(name)))

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Relation":
        return cls(columns, [])

    # ------------------------------------------------------------------ #
    # Unary operators
    # ------------------------------------------------------------------ #
    def project(self, columns: Sequence[str]) -> "Relation":
        """Keep only ``columns``, in the given order (duplicates removed)."""
        unique: List[str] = []
        for column in columns:
            if column not in unique:
                unique.append(column)
        if tuple(unique) == self.columns:
            return self  # relations are immutable: the identity projection copies nothing
        indexes = [self.column_index(c) for c in unique]
        return Relation.adopt(unique, [tuple(row[i] for i in indexes) for row in self.rows])

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename columns according to ``mapping`` (old name -> new name)."""
        for old in mapping:
            self.column_index(old)
        new_columns = [mapping.get(c, c) for c in self.columns]
        return Relation.adopt(new_columns, self.rows)

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Relation":
        """Filter rows by a predicate over row dictionaries."""
        kept = [row for row in self.rows if predicate(dict(zip(self.columns, row)))]
        return Relation.adopt(self.columns, kept)

    def select_eq(self, conditions: Mapping[str, Any]) -> "Relation":
        """Filter rows by equality conditions (column -> required value)."""
        indexes = [(self.column_index(column), value) for column, value in conditions.items()]
        kept = [row for row in self.rows if all(row[i] == v for i, v in indexes)]
        return Relation.adopt(self.columns, kept)

    def distinct(self) -> "Relation":
        seen = set()
        kept: List[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                kept.append(row)
        return Relation.adopt(self.columns, kept)

    def order_by(self, keys: Sequence[Tuple[str, bool]]) -> "Relation":
        """Sort by ``(column, ascending)`` pairs; stable, None sorts last."""
        rows = list(self.rows)
        for column, ascending in reversed(list(keys)):
            index = self.column_index(column)

            def sort_key(row: Row, index: int = index) -> Tuple[int, Any]:
                value = row[index]
                if value is None:
                    return (1, "")
                return (0, _sortable(value))

            rows.sort(key=sort_key, reverse=not ascending)
        return Relation.adopt(self.columns, rows)

    def limit(self, count: Optional[int], offset: int = 0) -> "Relation":
        end = None if count is None else offset + count
        return Relation.adopt(self.columns, self.rows[offset:end])

    def top_k(self, keys: Sequence[Tuple[str, bool]], count: int, offset: int = 0) -> "Relation":
        """ORDER BY + LIMIT fused into a heap-based top-k selection.

        Produces exactly ``order_by(keys).limit(count, offset)`` — including
        stability, None-last-ascending/None-first-descending placement and
        mixed-type ordering — but keeps only ``count + offset`` rows in the
        heap instead of sorting the whole input (``heapq.nsmallest`` is
        stable and O(n log k)).  Descending keys wrap their component in
        :class:`_ReversedKey` so a single lexicographic composite key
        replicates the multi-pass ``reverse=True`` sorts.
        """
        key_specs = [(self.column_index(column), ascending) for column, ascending in keys]

        def composite(row: Row) -> Tuple[Any, ...]:
            parts = []
            for index, ascending in key_specs:
                value = row[index]
                part = (1, "") if value is None else (0, _sortable(value))
                parts.append(part if ascending else _ReversedKey(part))
            return tuple(parts)

        rows = heapq.nsmallest(count + offset, self.rows, key=composite)
        return Relation.adopt(self.columns, rows[offset:])

    def aggregate(self, group_keys: Sequence[str], aggregates: Sequence[Any]) -> "Relation":
        """GROUP BY ``group_keys`` computing ``aggregates`` per group.

        ``aggregates`` are :class:`repro.engine.ops.AggregateSpec`-shaped
        objects (``function``/``column``/``alias``/``distinct``).  Groups are
        emitted in first-seen order.  With no ``group_keys`` the whole input
        forms one implicit group and exactly one row is produced, even for an
        empty input (SPARQL's bare-aggregate form).  ``None`` values (unbound
        variables) are excluded from every aggregate argument, as in SQL.
        """
        key_indexes = [self.column_index(k) for k in group_keys]
        spec_indexes = [
            (spec, None if spec.column is None else self.column_index(spec.column))
            for spec in aggregates
        ]
        groups: Dict[Row, List[Row]] = {}
        order: List[Row] = []
        for row in self.rows:
            key = tuple(row[i] for i in key_indexes)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(row)
        if not group_keys and not order:
            # Implicit grouping aggregates the empty bag to a single row.
            groups[()] = []
            order.append(())
        output_columns = list(group_keys) + [spec.alias for spec in aggregates]
        output_rows: List[Row] = []
        for key in order:
            bucket = groups[key]
            values = list(key)
            for spec, index in spec_indexes:
                if index is None:
                    values.append(len(set(bucket)) if spec.distinct else len(bucket))
                else:
                    argument = [row[index] for row in bucket if row[index] is not None]
                    values.append(aggregate_value(spec.function, argument, spec.distinct))
            output_rows.append(tuple(values))
        return Relation.adopt(output_columns, output_rows)

    # ------------------------------------------------------------------ #
    # Binary operators
    # ------------------------------------------------------------------ #
    def union(self, other: "Relation") -> "Relation":
        if set(self.columns) != set(other.columns):
            # SPARQL UNION allows different variables; pad with None.
            all_columns = list(dict.fromkeys(list(self.columns) + list(other.columns)))
            left = self._pad_to(all_columns)
            right = other._pad_to(all_columns)
            return Relation.adopt(all_columns, left.rows + right.rows)
        aligned = other.project(self.columns)
        return Relation.adopt(self.columns, self.rows + aligned.rows)

    def _pad_to(self, columns: Sequence[str]) -> "Relation":
        index_map = {c: i for i, c in enumerate(self.columns)}
        rows = [
            tuple(row[index_map[c]] if c in index_map else None for c in columns)
            for row in self.rows
        ]
        return Relation.adopt(columns, rows)

    def natural_join(self, other: "Relation", metrics: Optional[ExecutionMetrics] = None) -> "Relation":
        """Hash join on all shared column names.

        Shared columns appear once in the output.  When there is no shared
        column the result is the cross product (the compiler avoids this, but
        the operator supports it for completeness).
        """
        shared = [c for c in self.columns if c in other.columns]
        output_columns = list(self.columns) + [c for c in other.columns if c not in shared]
        comparisons = 0
        output_rows: List[Row] = []

        if not shared:
            for left_row in self.rows:
                for right_row in other.rows:
                    comparisons += 1
                    output_rows.append(left_row + right_row)
            if metrics is not None:
                metrics.record_join(len(self.rows), len(other.rows), comparisons, len(output_rows))
            return Relation.adopt(output_columns, output_rows)

        # Build the hash table on the smaller input, probe with the larger.
        build, probe, build_is_left = (
            (self, other, True) if len(self.rows) <= len(other.rows) else (other, self, False)
        )
        build_key_indexes = [build.column_index(c) for c in shared]
        probe_key_indexes = [probe.column_index(c) for c in shared]
        probe_extra_indexes = [
            probe.column_index(c) for c in probe.columns if c not in shared
        ]
        hash_table: Dict[Row, List[Row]] = defaultdict(list)
        for row in build.rows:
            hash_table[tuple(row[i] for i in build_key_indexes)].append(row)

        right_extra_positions = [other.column_index(c) for c in other.columns if c not in shared]

        for probe_row in probe.rows:
            key = tuple(probe_row[i] for i in probe_key_indexes)
            bucket = hash_table.get(key)
            if not bucket:
                continue
            comparisons += len(bucket)
            for build_row in bucket:
                left_row = build_row if build_is_left else probe_row
                right_row = probe_row if build_is_left else build_row
                output_rows.append(
                    left_row + tuple(right_row[i] for i in right_extra_positions)
                )
        if metrics is not None:
            metrics.record_join(len(self.rows), len(other.rows), comparisons, len(output_rows))
        return Relation.adopt(output_columns, output_rows)

    def left_outer_join(self, other: "Relation", metrics: Optional[ExecutionMetrics] = None) -> "Relation":
        """Left outer join on shared column names (OPTIONAL semantics)."""
        shared = [c for c in self.columns if c in other.columns]
        extra_columns = [c for c in other.columns if c not in shared]
        output_columns = list(self.columns) + extra_columns
        comparisons = 0
        output_rows: List[Row] = []

        right_key_indexes = [other.column_index(c) for c in shared]
        right_extra_indexes = [other.column_index(c) for c in extra_columns]
        hash_table: Dict[Row, List[Row]] = defaultdict(list)
        for row in other.rows:
            hash_table[tuple(row[i] for i in right_key_indexes)].append(row)

        left_key_indexes = [self.column_index(c) for c in shared]
        for left_row in self.rows:
            key = tuple(left_row[i] for i in left_key_indexes)
            bucket = hash_table.get(key)
            if bucket:
                comparisons += len(bucket)
                for right_row in bucket:
                    output_rows.append(left_row + tuple(right_row[i] for i in right_extra_indexes))
            else:
                output_rows.append(left_row + tuple(None for _ in extra_columns))
        if metrics is not None:
            metrics.record_join(len(self.rows), len(other.rows), comparisons, len(output_rows))
        return Relation.adopt(output_columns, output_rows)


class _ReversedKey:
    """Inverts the ordering of a wrapped sort key (for descending columns).

    ``a < b`` holds exactly when the wrapped values satisfy ``b.value <
    a.value``, so sorting ascending by the wrapper equals sorting descending
    by the value — while stability (equal keys keep input order) is
    untouched, matching ``list.sort(reverse=True)`` semantics per key.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_ReversedKey") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReversedKey) and self.value == other.value


def _sortable(value: Any) -> Any:
    """Make heterogeneous values comparable for ORDER BY."""
    if isinstance(value, (int, float)):
        return (0, value, "")
    if hasattr(value, "n3"):
        return (1, 0, value.n3())
    return (1, 0, str(value))


def aggregate_value(function: str, values: Sequence[Any], distinct: bool) -> Any:
    """One aggregate over the non-``None`` argument values of a group.

    This is the single definition of aggregate semantics, shared by
    :meth:`Relation.aggregate` and the registered aggregate functions of the
    SQL oracle under ``tests/``, so both agree bit-for-bit:

    * ``count`` counts values (terms deduplicated first under ``DISTINCT``);
    * ``min``/``max`` order values like ORDER BY does (numbers first, then
      terms by their N3 text) and return the winning value itself;
    * ``sum``/``avg`` convert terms to numbers the way filter comparisons do;
      a non-numeric value makes the result unbound (``None``), and the empty
      group sums/averages to ``0`` (SPARQL 1.1 Sum/Avg definitions).
    """
    if distinct:
        seen = set()
        deduped = []
        for value in values:
            if value not in seen:
                seen.add(value)
                deduped.append(value)
        values = deduped
    if function == "count":
        return len(values)
    if function in ("min", "max"):
        if not values:
            return None
        chooser = min if function == "min" else max
        return chooser(values, key=_sortable)
    if function not in ("sum", "avg"):
        raise ValueError(f"unknown aggregate function {function!r}")
    from repro.sparql.expressions import _term_value

    numbers: List[Any] = []
    for value in values:
        converted = _term_value(value) if hasattr(value, "n3") else value
        if not isinstance(converted, (int, float)):
            return None  # a non-numeric value makes the whole aggregate error out
        numbers.append(converted)
    if function == "sum":
        return sum(numbers) if numbers else 0
    return sum(numbers) / len(numbers) if numbers else 0
