"""Table catalog with statistics.

S2RDF "collects statistics about all tables in ExtVP during the initial
creation process, most notably the selectivities (SF values) and actual sizes"
(Sec. 6.1).  The :class:`Catalog` is the shared table store: the dataset
store registers its tables here, the compiler consults the statistics, and
the plan executor reads the relations.

A relation of terms can be registered as it is (:meth:`Catalog.register`);
what a session's queries run on are *stored* tables, backed by the columnar
dataset store (:mod:`repro.store`) — a dataset directory, or the same image
held in memory for a session that was just built.  Stored tables
are registered with a handle (:meth:`Catalog.register_stored`, which drops the
relation of the same name) and decoded lazily; the plan executor scans them
through :meth:`Catalog.scan_batch` as dictionary-id batches, so projection and
equality predicates push down into the store (zone-map and hash-bucket
segment pruning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.engine.relation import Relation


@dataclass
class ScanResult:
    """Outcome of one :meth:`Catalog.scan` call."""

    #: The scanned rows, restricted to the requested columns.
    relation: Relation
    #: Rows a columnar scan reads before filtering: for a store scan, those
    #: of the segments zone maps and bucket pruning leave, from the manifest
    #: (the paper tables price them as ``input_tuples``).
    rows_scanned: int
    #: Column segments such a scan reads.
    segments_scanned: int = 0
    #: Column segments it skips via zone maps / bucket pruning.
    segments_pruned: int = 0


class StoredTableProvider:
    """Interface of a lazily-decoded table backing a catalog entry."""

    def read(self) -> Relation:  # pragma: no cover - interface
        """Decode and return the full relation."""
        raise NotImplementedError

    def scan(
        self,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> ScanResult:  # pragma: no cover - interface
        """Scan with projection and equality-predicate pushdown."""
        raise NotImplementedError

    def scan_batch(
        self,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> Any:  # pragma: no cover - interface
        """Id-batch scan returning a ``BatchScanResult``."""
        raise NotImplementedError

    # The id scan in the parts a cached plan prepares once
    # (:class:`~repro.engine.plan.PreparedScan`).
    def scan_columns(
        self, columns: Sequence[str], condition_columns: Sequence[str]
    ) -> List[str]:  # pragma: no cover - interface
        """The checked output columns of a scan under conditions on ``condition_columns``."""
        raise NotImplementedError

    def scan_whole(self, columns: Tuple[str, ...]) -> Any:  # pragma: no cover - interface
        """The cached unconditioned ``BatchScanResult`` of ``columns``."""
        raise NotImplementedError

    def scan_bound(
        self,
        output_columns: List[str],
        bound: Sequence[Tuple[str, Optional[Tuple[int, Optional[int]]]]],
    ) -> Any:  # pragma: no cover - interface
        """The ``BatchScanResult`` under conditions whose constants are encoded."""
        raise NotImplementedError


@dataclass
class TableStatistics:
    """Per-table statistics used by table selection and join ordering."""

    name: str
    row_count: int
    #: Selectivity factor relative to the underlying VP table (1.0 for VP and
    #: base tables, |ExtVP| / |VP| for ExtVP tables, 0.0 for empty tables).
    selectivity: float = 1.0
    #: Distinct subjects/objects — handy for cardinality estimates.
    distinct_subjects: int = 0
    distinct_objects: int = 0

    @property
    def is_empty(self) -> bool:
        return self.row_count == 0


class TableNotFoundError(KeyError):
    """Raised when a plan references a table the catalog does not contain."""


class Catalog:
    """Named relations plus their statistics.

    S2RDF "also stores statistics about empty tables (which do not physically
    exist)" (Sec. 6.1); here that is the store manifest's knowledge
    (:meth:`~repro.store.view.StoreView.extvp_info`), not the catalog's.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Relation] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        self._stored: Dict[str, StoredTableProvider] = {}
        #: The statistics generation, stepped by every ``register*``, ``drop``
        #: and ``remove_statistics``: odd while the change is in flight, even
        #: once it is complete.  What was derived from the statistics while
        #: one even generation held (a cached plan, its join annotation) is
        #: valid exactly while it is still current.  Like every write here,
        #: a step assumes one writer at a time (a session's store lock);
        #: readers may run alongside.
        self.generation = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        relation: Relation,
        selectivity: float = 1.0,
    ) -> TableStatistics:
        """Register a relation (and derive its statistics)."""
        subjects = relation.distinct_count(relation.columns[0]) if relation.columns and relation.rows else 0
        objects = (
            relation.distinct_count(relation.columns[1])
            if len(relation.columns) > 1 and relation.rows
            else 0
        )
        statistics = TableStatistics(
            name=name,
            row_count=len(relation),
            selectivity=selectivity,
            distinct_subjects=subjects,
            distinct_objects=objects,
        )
        self._tables[name] = relation
        self.generation += 1
        self._statistics[name] = statistics
        self.generation += 1
        return statistics

    def register_statistics_only(self, name: str, row_count: int, selectivity: float) -> TableStatistics:
        """Record (or overwrite) the statistics of ``name`` without a table behind them.

        The seam for changing what the planner believes about a table, e.g.
        inflating it to see the row estimates miss; the product does not call it.
        """
        statistics = TableStatistics(name=name, row_count=row_count, selectivity=selectivity)
        self.generation += 1
        self._statistics[name] = statistics
        self.generation += 1
        return statistics

    def register_stored(
        self, name: str, provider: StoredTableProvider, statistics: TableStatistics
    ) -> TableStatistics:
        """Register a lazily-decoded table backed by the dataset store.

        The statistics come from the store's manifest (zone-map aggregates),
        so the compiler can plan without ever decoding the table.

        A relation registered under ``name`` is dropped: from here on the
        store serves the table.
        """
        self._stored[name] = provider
        self._tables.pop(name, None)
        self.generation += 1
        self._statistics[name] = statistics
        self.generation += 1
        return statistics

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)
        self._stored.pop(name, None)
        self.generation += 1
        self._statistics.pop(name, None)
        self.generation += 1

    def remove_statistics(self, name: str) -> None:
        """Forget the statistics for ``name`` (the table itself survives).

        After this, the estimator reports the table as *unknown*
        (:data:`~repro.engine.estimates.UNKNOWN_ROWS`, ``est=?``) rather than
        as empty.  Used by tests to simulate a catalog whose statistics were
        never collected.
        """
        self.generation += 1
        self._statistics.pop(name, None)
        self.generation += 1

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._tables or name in self._stored

    def has_statistics(self, name: str) -> bool:
        return name in self._statistics

    def is_loaded(self, name: str) -> bool:
        """True when the table is a relation of terms (not stored).

        Only a catalog :meth:`register` filled has such tables — a layout
        build's, which the test suite's row oracle reads this of; every table
        of a session is stored, so there it is always false.
        """
        return name in self._tables

    def is_stored(self, name: str) -> bool:
        """True when the table is backed by the persistent dataset store."""
        return name in self._stored

    def table(self, name: str) -> Relation:
        """All rows of ``name`` as terms (a stored table decodes them, once)."""
        relation = self._tables.get(name)
        if relation is not None:
            return relation
        return self._provider(name).read()

    def stored(self, name: str) -> Optional[StoredTableProvider]:
        """The handle of stored table ``name``; ``None`` when no stored table has that name."""
        return self._stored.get(name)

    def _provider(self, name: str) -> StoredTableProvider:
        provider = self._stored.get(name)
        if provider is None:
            raise TableNotFoundError(name)
        return provider

    def scan(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> ScanResult:
        """:meth:`scan_batch` lowered to rows of terms."""
        return self._provider(name).scan(columns=columns, conditions=conditions)

    def scan_batch(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """Scan stored table ``name`` with optional projection and equality predicates.

        The result is a ``BatchScanResult``: id columns gathered from the
        provider's resident columns at the positions its index lists for
        each constant.  The scan counters are *logical* (what a columnar scan
        pruned by zone maps and bucket hashing would read), stable regardless
        of caching.
        """
        return self._provider(name).scan_batch(columns=columns, conditions=conditions)

    def statistics(self, name: str) -> Optional[TableStatistics]:
        return self._statistics.get(name)

    def stored_statistics(self) -> Dict[str, TableStatistics]:
        """Statistics of every store-backed table by name, as of this call."""
        return {
            name: statistics
            # A snapshot: an append may re-register tables meanwhile.
            for name, statistics in list(self._statistics.items())
            if name in self._stored
        }

    def table_names(self) -> List[str]:
        return sorted(set(self._tables) | set(self._stored))

    def statistics_names(self) -> List[str]:
        return sorted(self._statistics)

    def items(self) -> Iterator[Tuple[str, Relation]]:
        """Iterate ``(name, relation)`` pairs, decoding stored tables on demand."""
        return iter((name, self.table(name)) for name in self.table_names())

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_tuples(self) -> int:
        """Sum of materialised table sizes (the paper's "number of tuples").

        Stored tables count via their manifest statistics, so the aggregate is
        available without decoding anything.
        """
        total = 0
        for name in self.table_names():
            relation = self._tables.get(name)
            if relation is not None:
                total += len(relation)
            else:
                statistics = self._statistics.get(name)
                total += statistics.row_count if statistics else 0
        return total

    def table_count(self) -> int:
        return len(set(self._tables) | set(self._stored))
