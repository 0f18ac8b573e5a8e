"""Opening a persisted dataset: lazy tables, pushdown scans, layout restore.

``open_dataset`` rebuilds a fully functional
:class:`~repro.mappings.extvp.ExtVPLayout` from a dataset directory without
parsing N-Triples or recomputing a single semi-join: table statistics come
from the manifest's zone-map aggregates, the VP/ExtVP correlation statistics
are restored verbatim (including the paper's statistics-only entries for
empty tables), and every materialised table is registered as a *stored* table
that decodes its column segments only when a query actually scans it.

Scans push projection and equality predicates into the store:

* **bucket pruning** — a predicate that binds the partition key hashes to
  exactly one bucket (:func:`~repro.engine.runtime.partitioner.key_partition_index`),
  so every other segment is skipped;
* **zone-map pruning** — any equality predicate whose encoded id falls outside
  a segment's ``[min_id, max_id]`` range proves the segment empty unread.

Scanned relations carry a :class:`~repro.engine.relation.Partitioning` tag, so
the parallel runtime's shuffle joins consume the stored buckets directly when
the join keys match — no per-join re-partitioning.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog, ScanResult, StoredTableProvider, TableStatistics
from repro.engine.relation import Partitioning, Relation
from repro.engine.runtime.partitioner import key_partition_index
from repro.engine.storage import NULL_ID
from repro.mappings.extvp import ExtVPLayout, ExtVPTableInfo
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rdf import ntriples as ntriples_io
from repro.rdf.namespaces import NamespaceManager
from repro.engine.vectorized import BatchScanResult, ColumnBatch
from repro.store.format import (
    Manifest,
    PartitionEntry,
    StoredTermDictionary,
    TableEntry,
    file_path,
    manifest_identity,
    read_manifest,
    read_segment_arrays,
)


@dataclass
class DatasetLoadReport:
    """Instrumentation of one cold open — proof of what did *not* happen."""

    path: str
    load_seconds: float
    table_count: int
    statistics_only_count: int
    dictionary_terms: int
    num_buckets: int
    #: Manifest append epoch at open time (0 = never appended/compacted);
    #: the session stamps this into journal records until the next mutation.
    append_epoch: int = 0
    #: Observed instrumentation: whether the open invoked the N-Triples
    #: parser (process-wide parse counter) or the ExtVP builder (the restored
    #: layout's build counter).  Both must be False for a true cold start.
    ntriples_parsed: bool = False
    extvp_rebuilt: bool = False


class StoredTable(StoredTableProvider):
    """One stored table: decodes segments lazily, caches decoded id columns.

    A table's bucket ``i`` consists of its base segment (when the table has
    base partitions) plus every delta segment appended to bucket ``i``; scans
    merge them transparently, emitting rows grouped by bucket so the result
    still carries a partition-aligned layout tag.  Pruning (zone maps, bucket
    arithmetic, unknown terms) applies to base and delta segments alike.
    """

    def __init__(self, root: str, entry: TableEntry, dictionary: StoredTermDictionary) -> None:
        self.root = root
        self.entry = entry
        self.dictionary = dictionary
        #: segment (file, offset) -> {column: array('q')}; grows with scans.
        #: Committed bytes never change in place, so an entry stays valid for
        #: as long as the manifest references its segment.
        self._arrays: Dict[Tuple[str, int], Dict[str, array]] = {}
        #: cached result of a full, unconditioned scan, as ids and — once a
        #: row caller asked — lowered to terms.
        self._full_batch: Optional[BatchScanResult] = None
        self._full: Optional[ScanResult] = None

    # ------------------------------------------------------------------ #
    def read(self) -> Relation:
        return self.scan().relation

    def scan(
        self,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> ScanResult:
        """:meth:`scan_batch` lowered to term rows, for callers that need them.

        Queries never come here (the executor joins the id batch and decodes
        only what it returns); ``catalog.table``, the sqlite loader and worker
        scan tasks that ship rows do.
        """
        scanned = self.scan_batch(columns, conditions)
        if scanned is self._full_batch and self._full is not None:
            return self._full
        result = ScanResult(
            relation=scanned.batch.to_relation(),
            rows_scanned=scanned.rows_scanned,
            segments_scanned=scanned.segments_scanned,
            segments_pruned=scanned.segments_pruned,
        )
        if scanned is self._full_batch:
            self._full = result
        return result

    def scan_batch(
        self,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> BatchScanResult:
        """The store's one scan: projection, pruning and equality filters on ids.

        Segments decode straight into flat ``array('q')`` id columns and the
        result is a :class:`~repro.engine.vectorized.ColumnBatch` whose terms
        stay encoded until someone lowers it.  Rows come out grouped by
        bucket, so the batch carries a partition-aligned layout tag whenever
        the partition keys are among the output columns.
        """
        entry = self.entry
        output_columns = self._unique(columns) if columns is not None else list(entry.columns)
        condition_items = list(conditions.items()) if conditions else []
        full_scan = not condition_items and tuple(output_columns) == entry.columns
        if full_scan and self._full_batch is not None:
            return self._full_batch
        decode_columns = self._unique(output_columns + [c for c, _ in condition_items])
        for column in decode_columns:
            if column not in entry.columns:
                raise KeyError(f"table {entry.name!r} has no column {column!r}")

        condition_ids, unknown_term = self._encode_conditions(condition_items)
        target_bucket = self._target_bucket(condition_ids)

        out = [array("q") for _ in output_columns]
        counts: List[int] = []
        rows_scanned = 0
        segments_scanned = 0
        segments_pruned = 0

        for bucket in range(entry.num_partitions):
            produced_in_bucket = 0
            for segment in entry.segments_for_bucket(bucket):
                pruned = (
                    unknown_term
                    or segment.row_count == 0  # provably empty, never read
                    or (target_bucket is not None and bucket != target_bucket)
                    or any(
                        not segment.zones[column].may_contain(term_id)
                        for column, term_id in condition_ids
                    )
                )
                if pruned:
                    segments_pruned += len(decode_columns)
                    continue
                segments_scanned += len(decode_columns)
                rows_scanned += segment.row_count
                ids = self._segment_arrays(segment, decode_columns)
                output_ids = [ids[column] for column in output_columns]
                if not condition_ids:
                    for position, column in enumerate(output_ids):
                        out[position].extend(column)
                    produced_in_bucket += segment.row_count
                    continue
                keep: Optional[List[int]] = None
                for column, term_id in condition_ids:
                    column_ids = ids[column]
                    keep = [
                        i
                        for i in (keep if keep is not None else range(len(column_ids)))
                        if column_ids[i] == term_id
                    ]
                for position, column in enumerate(output_ids):
                    out[position].extend(map(column.__getitem__, keep))
                produced_in_bucket += len(keep)
            counts.append(produced_in_bucket)

        partitioning = None
        if entry.partition_keys and all(k in output_columns for k in entry.partition_keys):
            partitioning = Partitioning(entry.partition_keys, tuple(counts))
        batch = ColumnBatch.adopt(
            tuple(output_columns), tuple(out), self.dictionary.decode, partitioning=partitioning
        )
        result = BatchScanResult(
            batch=batch,
            rows_scanned=rows_scanned,
            segments_scanned=segments_scanned,
            segments_pruned=segments_pruned,
        )
        if full_scan:
            self._full_batch = result
        return result

    def entry_changed(self) -> None:
        """The manifest entry was updated in place by a committed mutation.

        Cached full scans are stale either way.  Decoded segments are kept
        when the entry still references them: an append only adds segments
        (the base stays decoded), a compaction replaces them all.
        """
        self._full_batch = None
        self._full = None
        live = {(s.file, s.offset) for s in self.entry.partitions + self.entry.deltas}
        for key in [key for key in self._arrays if key not in live]:
            del self._arrays[key]

    # ------------------------------------------------------------------ #
    def _encode_conditions(
        self, condition_items: List[Tuple[str, Any]]
    ) -> Tuple[List[Tuple[str, int]], bool]:
        """Encode predicate values to ids; unknown terms prove the scan empty."""
        encoded: List[Tuple[str, int]] = []
        for column, value in condition_items:
            if value is None:
                encoded.append((column, NULL_ID))
                continue
            term_id = self.dictionary.lookup(value)
            if term_id is None:
                return [], True
            encoded.append((column, term_id))
        return encoded, False

    def _target_bucket(self, condition_ids: List[Tuple[str, int]]) -> Optional[int]:
        """Bucket index when the predicates bind every partition key."""
        keys = self.entry.partition_keys
        if not keys or self.entry.num_partitions <= 1:
            return None
        bound = dict(condition_ids)
        if not all(key in bound for key in keys):
            return None
        key_terms = tuple(
            None if bound[key] == NULL_ID else self.dictionary.decode(bound[key]) for key in keys
        )
        return key_partition_index(key_terms, self.entry.num_partitions)

    def _segment_arrays(self, segment: PartitionEntry, columns: Sequence[str]) -> Dict[str, array]:
        cached = self._arrays.setdefault((segment.file, segment.offset), {})
        missing = [column for column in columns if column not in cached]
        if missing:
            path = file_path(self.root, segment.file)
            cached.update(read_segment_arrays(path, missing, segment.offset, segment.size_bytes))
        return cached

    @staticmethod
    def _unique(columns: Sequence[str]) -> List[str]:
        unique: List[str] = []
        for column in columns:
            if column not in unique:
                unique.append(column)
        return unique


@dataclass
class StoredDataset:
    """An opened dataset directory: manifest, dictionary and table handles.

    A session keeps this object for as long as it is *current*, and its
    appends and compactions work on it in place — the manifest entries the
    table handles point at, the dictionary they share, the value sets — so a
    write costs what its batch costs instead of a re-read of everything.
    """

    root: str
    manifest: Manifest
    dictionary: StoredTermDictionary
    tables: Dict[str, StoredTable] = field(default_factory=dict)

    @classmethod
    def open(cls, root: str) -> "StoredDataset":
        manifest = read_manifest(root)
        dictionary = StoredTermDictionary.open(root, expected_size=manifest.dictionary_size)
        dataset = cls(root=root, manifest=manifest, dictionary=dictionary)
        for name, entry in manifest.tables.items():
            dataset.tables[name] = StoredTable(root, entry, dictionary)
        return dataset

    def is_current(self) -> bool:
        """Whether ``MANIFEST.json`` is still the file this object last read or wrote.

        False once anyone else committed to the directory (another session,
        another process, a full re-save): the resident state then describes a
        superseded manifest and must be re-read before the next write.
        """
        return manifest_identity(self.root) == self.manifest.identity

    def table(self, name: str) -> StoredTable:
        return self.tables[name]


def register_changes(
    layout: ExtVPLayout,
    dataset: StoredDataset,
    tables: Iterable[str],
    statistics_only: Iterable[ExtVPTableInfo],
    started_at: Optional[float] = None,
) -> None:
    """(Re)register ``tables`` and ``statistics_only`` of ``dataset`` into ``layout``.

    With every table and every non-materialised correlation this is the cold
    open; with what one committed append or compaction touched (its report's
    ``touched_tables`` / ``touched_statistics``) it is all a live session has
    to do afterwards, and every other table keeps its decoded rows.  Mutates
    the layout's existing catalog in place — sessions hold references to it —
    via ``register_stored``, which also drops the decoded-rows and observed-
    cardinality caches of the table's previous incarnation.  ``started_at``
    lets the cold open count its file reads into the layout's load time.
    """
    if started_at is None:
        started_at = time.perf_counter()
    manifest = dataset.manifest
    catalog = layout.catalog
    for name in tables:
        entry = manifest.tables[name]
        table = dataset.tables.get(name)
        if table is None:
            table = dataset.tables[name] = StoredTable(dataset.root, entry, dataset.dictionary)
        else:
            table.entry_changed()
        statistics = TableStatistics(
            name=name,
            row_count=entry.row_count,
            selectivity=entry.selectivity,
            distinct_subjects=entry.distinct_subjects,
            distinct_objects=entry.distinct_objects,
        )
        catalog.register_stored(name, table, statistics)
        # Mirror the original HDFS bookkeeping with the *actual* on-disk sizes
        # so storage summaries keep working on a cold session.
        prefix = "extvp" if name.startswith("extvp_") else "vp" if name.startswith("vp_") else "store"
        layout.hdfs.record(
            f"{prefix}/{name}.parquet", entry.row_count, entry.total_bytes(), entry.columns
        )
    for info in statistics_only:
        catalog.register_statistics_only(info.name, info.row_count, info.selectivity)

    # The layout takes the manifest's statistics object itself: the appender
    # maintains it in place, so there is one copy and nothing to rebuild.
    layout.restore(
        {predicate: info["table"] for predicate, info in manifest.vp_tables.items()},
        {predicate: info["size"] for predicate, info in manifest.vp_tables.items()},
        manifest.extvp,
        load_seconds=time.perf_counter() - started_at,
    )


def open_dataset(
    path: str, tracer: Optional[Tracer] = None
) -> Tuple[ExtVPLayout, DatasetLoadReport, StoredDataset]:
    """Open ``path`` and restore a query-ready ExtVP layout from it.

    No N-Triples parsing and no ExtVP semi-join computation happens here —
    only manifest/dictionary I/O plus statistics reconstruction.  Table rows
    stay on disk until a query scans them.  With an enabled ``tracer``, the
    two cold-open stages (manifest + dictionary I/O vs. statistics
    reconstruction) appear as child spans.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    parses_before = ntriples_io.documents_parsed()
    with tracer.span("store.read-manifest", category="store") as span:
        dataset = StoredDataset.open(path)
        span.set(tables=len(dataset.manifest.tables))
    manifest = dataset.manifest

    layout = ExtVPLayout(
        catalog=Catalog(),
        namespaces=NamespaceManager(manifest.namespaces) if manifest.namespaces else None,
        selectivity_threshold=manifest.selectivity_threshold,
        include_oo=manifest.include_oo,
    )
    with tracer.span("store.restore-layout", category="store"):
        statistics_only = manifest.statistics_only
        register_changes(layout, dataset, manifest.tables, statistics_only, started_at=start)

    report = DatasetLoadReport(
        path=path,
        load_seconds=layout.report.build_seconds if layout.report else 0.0,
        table_count=len(manifest.tables),
        statistics_only_count=len(statistics_only),
        dictionary_terms=manifest.dictionary_size,
        num_buckets=manifest.num_buckets,
        append_epoch=manifest.append_epoch,
        ntriples_parsed=ntriples_io.documents_parsed() > parses_before,
        extvp_rebuilt=layout.build_count > 0,
    )
    return layout, report, dataset


def refresh_dataset(layout: ExtVPLayout, path: str) -> StoredDataset:
    """Re-sync an opened layout with whatever its dataset directory now holds.

    The full path, for when a session cannot just re-register what its own
    mutation touched: a pool worker that learns of a newer epoch, a session
    whose resident copy went stale or was dropped after a failed mutation,
    the first append after ``save_dataset``.  Everything is re-read and every
    table re-registered (stale decoded rows and observed cardinalities are
    dropped); the catalog object itself — which executors hold references
    to — stays the same.
    """
    start = time.perf_counter()
    dataset = StoredDataset.open(path)
    manifest = dataset.manifest
    register_changes(layout, dataset, manifest.tables, manifest.statistics_only, started_at=start)
    return dataset
