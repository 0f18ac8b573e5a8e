"""Opening a persisted dataset: lazy tables, pushdown scans, table registration.

``open_dataset`` serves a dataset directory to the query compiler without
parsing N-Triples or recomputing a single semi-join: table statistics come
from the manifest's zone-map aggregates, the compiler reads the statistics
of the ExtVP correlations with rows from the manifest itself
(:class:`~repro.store.view.StoreView`; an unlisted correlation is empty),
and every materialised table is registered as a *stored* table
that decodes its column segments only when a query actually scans it — a VP
table from its own file (:class:`StoredTable`), an ExtVP table as a view of
the rows of its VP table that its bitmaps select (:class:`StoredSelection`).
The same handles serve a :class:`~repro.store.format.DatasetImage` held in
memory (:meth:`StoredDataset.hold`): they read their byte ranges through the
dataset's :class:`DatasetFiles`, which are the directory or the image.

A table keeps the columns its scans touched *resident*: each whole-table id
column, buckets end to end, with its id -> positions index
(:class:`~repro.engine.vectorized.PositionIndex`), assembled on first use
and kept until a committed mutation touches the table.  An unconditioned
scan hands the resident columns out as they are, and joins probe their
indexes; a scan with equality constants looks each constant up in its
column's index, intersects the position lists of two constants and gathers
the output columns at the positions left.  A scan reads no row but those
its rarest constant's index lists.

The scan counters (``rows_scanned``, ``segments_scanned``,
``segments_pruned``) report what a pruned columnar scan would read, the cost
the paper's model prices, and are worked out from the manifest alone:

* **bucket pruning** — a predicate that binds the partition key hashes to
  exactly one bucket (:func:`~repro.store.format.key_partition_index`),
  so every other segment counts as skipped;
* **zone-map pruning** — any equality predicate whose encoded id falls outside
  a segment's ``[min_id, max_id]`` range proves the segment empty unread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog, ScanResult, StoredTableProvider, TableStatistics
from repro.engine.relation import Relation
from repro.engine.storage import NULL_ID
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rdf import ntriples as ntriples_io
from repro.engine.vectorized import BatchScanResult, ColumnBatch, PositionIndex
from repro.store.format import (
    BitmapEntry,
    DatasetImage,
    Manifest,
    PartitionEntry,
    SelectionEntry,
    StoredTermDictionary,
    TableEntry,
    decode_bitmap,
    decode_segment,
    file_path,
    hashed_partition_index,
    manifest_identity,
    read_file_range,
    read_manifest,
    stable_hash,
)
from repro.store.view import StoreView


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
    #: parser (process-wide parse counter).  False for a true cold start.
    ntriples_parsed: bool = False


def _zones_exclude(
    segments: Sequence[PartitionEntry], condition_ids: Sequence[Tuple[str, int]]
) -> bool:
    """Whether the zone maps prove that no row of ``segments`` meets every condition."""
    for column, term_id in condition_ids:
        for segment in segments:
            if segment.zones[column].may_contain(term_id):
                break
        else:
            return True
    return False


class _StoredProvider(StoredTableProvider):
    """The scan of the dataset store, shared by its two kinds of table.

    A physically stored table (:class:`StoredTable`) and a selection over one
    (:class:`StoredSelection`) differ in where a bucket's rows come from;
    what a scan request means, what an unconditioned scan caches and how a
    result is lowered to rows is the same and is here.
    """

    def __init__(self, name: str, entry: TableEntry, dictionary: StoredTermDictionary) -> None:
        self.name = name
        #: The physically stored table whose buckets the rows lie in.
        self.entry = entry
        self.dictionary = dictionary
        #: column -> its ids over the whole table, buckets end to end, with
        #: their position index (built when a join first asks): what every
        #: unconditioned scan hands out, assembled once.
        self._columns: Dict[str, PositionIndex] = {}
        #: requested columns -> their unconditioned scan (shares ``_columns``).
        self._scans: Dict[Tuple[str, ...], BatchScanResult] = {}
        #: the full unconditioned scan lowered to terms, once a row caller asked.
        self._full: Optional[ScanResult] = None

    # -- what the two kinds of table implement --------------------------- #
    def _whole_column(self, column: str) -> List[int]:
        """``column`` of every row, bucket after bucket."""
        raise NotImplementedError

    def _shape(
        self,
        condition_ids: Sequence[Tuple[str, int]],
        unknown: bool,
        target_bucket: Optional[int],
    ) -> Tuple[int, int, int]:
        """``(rows, segments, segments pruned)`` per column that a pruned
        columnar scan under ``condition_ids`` would read, from the manifest."""
        raise NotImplementedError

    def _resident(self) -> Dict[str, PositionIndex]:
        """The resident columns: where both scans take them."""
        return self._columns

    def read(self) -> Relation:
        return self.scan().relation

    def scan(
        self,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> ScanResult:
        """:meth:`scan_batch` lowered to term rows, for callers that need them.

        Queries never come here (the executor joins the id batch and decodes
        only what it returns); ``catalog.table`` and the writer's rewrites of
        a stored layout do.
        """
        scanned = self.scan_batch(columns, conditions)
        full_scan = scanned is self._scans.get(self.entry.columns)
        if full_scan and self._full is not None:
            return self._full
        result = ScanResult(
            relation=scanned.batch.to_relation(),
            rows_scanned=scanned.rows_scanned,
            segments_scanned=scanned.segments_scanned,
            segments_pruned=scanned.segments_pruned,
        )
        if full_scan:
            self._full = result
        return result

    def scan_batch(
        self,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> BatchScanResult:
        """The store's one scan: projection and equality filters on ids.

        The result is a :class:`~repro.engine.vectorized.ColumnBatch` of lists
        of interned ids whose terms stay encoded until someone lowers it; rows
        come out grouped by bucket.  Without conditions every
        request for the same columns gets the same cached result, and all of
        them share the id columns.  The constants are encoded here; a cached
        plan encodes its own once and goes to :meth:`scan_bound` directly.
        """
        requested = self.entry.columns if columns is None else tuple(columns)
        if not conditions:
            return self.scan_whole(requested)
        keys = self.entry.partition_keys
        bound: List[Tuple[str, Optional[Tuple[int, Optional[int]]]]] = []
        empty = False
        for column, value in conditions.items():
            # Once the scan is proved empty no further constant is looked up.
            encoded = None if empty else self._encode(value, column in keys)
            empty = encoded is None
            bound.append((column, encoded))
        return self.scan_bound(self.scan_columns(requested, list(conditions)), bound)

    def scan_columns(
        self, columns: Sequence[str], condition_columns: Sequence[str]
    ) -> List[str]:
        """The checked output columns of a scan of ``columns`` under
        conditions on ``condition_columns``, which are checked too."""
        self._checked(condition_columns)
        return self._checked(columns)

    def scan_whole(self, columns: Tuple[str, ...]) -> BatchScanResult:
        """The scan of ``columns`` without conditions: assembled once, the
        same result for every request after."""
        resident = self._resident()
        cached = self._scans.get(columns)
        if cached is None:
            output_columns = self._checked(columns)
            indexes = tuple(self._index(resident, column) for column in output_columns)
            cached = self._scans[columns] = self._result(
                output_columns,
                tuple(index.column for index in indexes),
                self._shape((), False, None),
                len(output_columns),
                indexes=indexes,
            )
        return cached

    def scan_bound(
        self,
        output_columns: List[str],
        bound: Sequence[Tuple[str, Optional[Tuple[int, Optional[int]]]]],
    ) -> BatchScanResult:
        """The scan under equality conditions whose constants are encoded.

        ``output_columns`` is :meth:`scan_columns`' answer; ``bound`` holds per
        condition its column and the constant's ``(id, stable hash)``
        (:meth:`StoredTermDictionary.encode`), ``None`` for a constant the
        store does not hold.  The position lists of the constants are
        intersected and the output columns gathered there, in ascending order.
        """
        width = len(set(output_columns).union([column for column, _ in bound]))
        condition_ids: List[Tuple[str, int]] = []
        hashes: Dict[str, Optional[int]] = {}
        for column, encoded in bound:
            if encoded is None:
                empty = tuple([] for _ in output_columns)
                return self._result(output_columns, empty, self._shape((), True, None), width)
            condition_ids.append((column, encoded[0]))
            hashes[column] = encoded[1]
        shape = self._shape(condition_ids, False, self._target_bucket(hashes))
        resident = self._resident()
        indexes = [(self._index(resident, column), term_id) for column, term_id in condition_ids]
        found = [index.positions().get(term_id, ()) for index, term_id in indexes]
        matches = min(found, key=len)
        for (index, term_id), positions in zip(indexes, found):
            if positions is not matches:  # keep the rows this constant holds too
                column = index.column
                matches = [i for i in matches if column[i] == term_id]
        ids = tuple(
            list(map(self._index(resident, column).column.__getitem__, matches))
            for column in output_columns
        )
        return self._result(output_columns, ids, shape, width)

    def _index(self, resident: Dict[str, PositionIndex], column: str) -> PositionIndex:
        """``column``'s resident index, its column assembled on first use."""
        index = resident.get(column)
        if index is None:
            index = resident[column] = PositionIndex(self._whole_column(column))
        return index

    def _drop_scans(self) -> None:
        """Forget the cached scans, the resident columns and their indexes."""
        self._columns = {}
        self._scans = {}
        self._full = None

    def _result(
        self,
        output_columns: List[str],
        ids: Tuple[List[int], ...],
        shape: Tuple[int, int, int],
        width: int,
        indexes: Optional[Tuple[PositionIndex, ...]] = None,
    ) -> BatchScanResult:
        """The batch of ``ids``, with ``shape``'s counters for ``width`` columns."""
        batch = ColumnBatch.adopt(
            tuple(output_columns), ids, self.dictionary.terms.__getitem__, indexes=indexes
        )
        rows, scanned, pruned = shape
        return BatchScanResult(
            batch=batch,
            rows_scanned=rows,
            segments_scanned=scanned * width,
            segments_pruned=pruned * width,
        )

    def _checked(self, columns: Sequence[str]) -> List[str]:
        """``columns`` without repeats; every one must be the table's."""
        unique: List[str] = []
        for column in columns:
            if column not in self.entry.columns:
                raise KeyError(f"table {self.name!r} has no column {column!r}")
            if column not in unique:
                unique.append(column)
        return unique

    def _encode(self, value: Any, hashed: bool) -> Optional[Tuple[int, Optional[int]]]:
        """A condition value as :meth:`scan_bound` takes it (``None`` is NULL),
        hashed only when its column is a partition key."""
        if value is None:
            return NULL_ID, stable_hash(None)
        term_id = self.dictionary.lookup(value)
        if term_id is None:
            return None
        return term_id, stable_hash(value) if hashed else None

    def _target_bucket(self, hashes: Mapping[str, Optional[int]]) -> Optional[int]:
        """Bucket index when the conditions (column -> constant's stable hash)
        bind every partition key."""
        keys = self.entry.partition_keys
        if not keys or self.entry.num_partitions <= 1:
            return None
        if not all(key in hashes for key in keys):
            return None
        return hashed_partition_index([hashes[key] for key in keys], self.entry.num_partitions)


class StoredTable(_StoredProvider):
    """One physically stored table: decodes segments lazily, caches decoded id columns.

    A table's bucket ``i`` consists of its base segment (when the table has
    base partitions) plus every delta segment appended to bucket ``i``; its
    whole columns merge them transparently, rows grouped by bucket.  The
    counters' pruning (zone maps, bucket arithmetic, unknown terms) counts
    base and delta segments alike.
    """

    def __init__(
        self, files: "DatasetFiles", entry: TableEntry, dictionary: StoredTermDictionary
    ) -> None:
        super().__init__(entry.name, entry, dictionary)
        #: Where the table's bytes are read from.
        self.files = files
        #: ``id`` of a segment's manifest record -> (the record, {column: list
        #: of interned ids}); grows with scans.  Keyed by the record, not by its
        #: address: committed rows never change, but a compaction may move a
        #: segment it does not merge to another file and offset — it keeps
        #: the record, and what was decoded from it stays good.  (Holding the
        #: record keeps its ``id`` from being reused.)
        self._arrays: Dict[int, Tuple[PartitionEntry, Dict[str, List[int]]]] = {}
        #: Per bucket its segments (base, then deltas), and — once a selection
        #: over it was scanned — its columns end to end (a bucket without
        #: deltas shares its one segment's); both as of the current entry.
        self._buckets: Optional[List[List[PartitionEntry]]] = None
        self._bucket_arrays: Dict[int, Dict[str, List[int]]] = {}
        #: Bumped by :meth:`entry_changed`; what a selection derived from this
        #: table's row order is good for one value of it.
        self.version = 0

    def statistics(self) -> TableStatistics:
        entry = self.entry
        return TableStatistics(
            name=entry.name,
            row_count=entry.row_count,
            selectivity=entry.selectivity,
            distinct_subjects=entry.distinct_subjects,
            distinct_objects=entry.distinct_objects,
        )

    def bucket_segments(self) -> List[List[PartitionEntry]]:
        """The segments of every bucket, in the order their rows count in."""
        buckets = self._buckets
        if buckets is None:
            entry = self.entry
            buckets = self._buckets = [
                entry.segments_for_bucket(bucket) for bucket in range(entry.num_partitions)
            ]
        return buckets

    def bucket_arrays(self, bucket: int, columns: Sequence[str]) -> Mapping[str, List[int]]:
        """``columns`` of ``bucket``'s logical row sequence (base, then deltas)."""
        cached = self._bucket_arrays.get(bucket)
        if cached is not None and all(column in cached for column in columns):
            return cached
        segments = [s for s in self.bucket_segments()[bucket] if s.row_count]
        if len(segments) == 1:
            # The bucket is that segment: the same dict, filled by either path.
            cached = self._bucket_arrays[bucket] = self._segment_arrays(segments[0], columns)
            return cached
        cached = self._bucket_arrays.setdefault(bucket, {})
        for column in columns:
            if column not in cached:
                merged: List[int] = []
                for segment in segments:
                    merged.extend(self._segment_arrays(segment, (column,))[column])
                cached[column] = merged
        return cached

    def _whole_column(self, column: str) -> List[int]:
        whole: List[int] = []
        for segments in self.bucket_segments():
            for segment in segments:
                if segment.row_count:
                    whole.extend(self._segment_arrays(segment, (column,))[column])
        return whole

    def _shape(
        self,
        condition_ids: Sequence[Tuple[str, int]],
        unknown: bool,
        target_bucket: Optional[int],
    ) -> Tuple[int, int, int]:
        rows = scanned = pruned = 0
        for bucket, segments in enumerate(self.bucket_segments()):
            for segment in segments:
                if (
                    unknown
                    or segment.row_count == 0  # provably empty, never read
                    or (target_bucket is not None and bucket != target_bucket)
                    or _zones_exclude((segment,), condition_ids)
                ):
                    pruned += 1
                else:
                    scanned += 1
                    rows += segment.row_count
        return rows, scanned, pruned

    def entry_changed(self) -> None:
        """The manifest entry was updated in place by a committed mutation.

        Cached scans are stale either way.  Decoded segments are kept when
        the entry still holds their records: an append only adds segments (the
        base stays decoded), a compaction replaces those of the buckets it
        merges.
        """
        self.version += 1
        self._drop_scans()
        self._buckets = None
        self._bucket_arrays = {}
        live = {id(segment) for segment in self.entry.partitions + self.entry.deltas}
        for key in [key for key in self._arrays if key not in live]:
            del self._arrays[key]

    def _segment_arrays(
        self, segment: PartitionEntry, columns: Sequence[str]
    ) -> Dict[str, List[int]]:
        held = self._arrays.get(id(segment))
        if held is None:
            held = self._arrays[id(segment)] = (segment, {})
        cached = held[1]
        missing = [column for column in columns if column not in cached]
        if missing:
            data = self.files.read(segment.file, segment.offset, segment.size_bytes)
            origin = f"{self.files.where(segment.file)} at offset {segment.offset}"
            cached.update(decode_segment(data, missing, self.dictionary.interned, origin))
        return cached


class StoredSelection(_StoredProvider):
    """A materialised ExtVP table: a view of some rows of its VP table.

    Nothing of it is stored but one bitmap per bucket of ``base``
    (``VP_first``), so its whole columns borrow that table's decoded id
    columns — a VP column is read and decoded once for the table and all its
    reductions — and pick the selected positions: the rows of ``VP_first``
    that are in the reduction, in ``VP_first``'s order, grouped by its
    buckets.  The decoded position vectors are cached next to the resident
    columns.
    """

    def __init__(self, base: StoredTable, selection: SelectionEntry) -> None:
        super().__init__(selection.name, base.entry, base.dictionary)
        self.base = base
        self.selection = selection
        #: ``id`` of a bitmap's manifest record -> (the record, its set
        #: positions).  Like a segment's, a bitmap's record lives exactly as
        #: long as what it selects stays in place.
        self._positions: Dict[int, Tuple[BitmapEntry, List[int]]] = {}
        #: ``base.version`` the cached scans were assembled at: they hold ids
        #: picked out of ``base``'s buckets as those were then.
        self._base_version = base.version

    def statistics(self) -> TableStatistics:
        selection = self.selection
        vp_rows = self.entry.row_count
        return TableStatistics(
            name=selection.name,
            row_count=selection.row_count,
            selectivity=selection.row_count / vp_rows if vp_rows else 0.0,
            distinct_subjects=selection.distinct_subjects,
            distinct_objects=selection.distinct_objects,
        )

    def _resident(self) -> Dict[str, PositionIndex]:
        if self._base_version != self.base.version:
            self._base_version = self.base.version
            self._drop_scans()
        return self._columns

    def _whole_column(self, column: str) -> List[int]:
        whole: List[int] = []
        for bucket, bitmap in enumerate(self.selection.bitmaps):
            if bitmap.rows:
                ids = self.base.bucket_arrays(bucket, (column,))[column]
                whole.extend(map(ids.__getitem__, self._bucket_positions(bucket)))
        return whole

    def _shape(
        self,
        condition_ids: Sequence[Tuple[str, int]],
        unknown: bool,
        target_bucket: Optional[int],
    ) -> Tuple[int, int, int]:
        # A bucket is pruned whole, also by ``base``'s zone maps (the
        # reduction's values are a subset of the table's).
        rows = scanned = pruned = 0
        buckets = self.base.bucket_segments()
        for bucket, (segments, bitmap) in enumerate(zip(buckets, self.selection.bitmaps)):
            if (
                unknown
                or bitmap.rows == 0
                or (target_bucket is not None and bucket != target_bucket)
                or _zones_exclude(segments, condition_ids)
            ):
                pruned += len(segments)
            else:
                scanned += len(segments)
                rows += bitmap.rows
        return rows, scanned, pruned

    def _bucket_positions(self, bucket: int) -> List[int]:
        bitmap = self.selection.bitmaps[bucket]
        cached = self._positions.get(id(bitmap))
        if cached is None:
            files = self.base.files
            positions = decode_bitmap(
                files.read(self.entry.file, bitmap.offset, bitmap.size_bytes),
                bitmap.rows,
                sum(segment.row_count for segment in self.base.bucket_segments()[bucket]),
                f"{self.name} bucket {bucket} in {files.where(self.entry.file)}",
            )
            # Row numbers share the ids' int objects: a position costs a pointer.
            positions = list(map(self.dictionary.interned.setdefault, positions, positions))
            cached = self._positions[id(bitmap)] = (bitmap, positions)
        return cached[1]

    def entry_changed(self) -> None:
        """A committed mutation touched the selection or the table under it."""
        self._drop_scans()
        live = {id(bitmap) for bitmap in self.selection.bitmaps}
        for key in [key for key in self._positions if key not in live]:
            del self._positions[key]


class DatasetFiles:
    """Where a dataset's table files are: a directory, or a held image's bytes.

    The dataset and every table handle share this one object — a handle
    reads through it and holds nothing else of the dataset — so committing
    the image to a directory moves all of them there at once.
    """

    def __init__(self, root: Optional[str] = None, image: Optional[DatasetImage] = None) -> None:
        #: The directory; ``None`` while the files are ``image``'s.
        self.root = root
        self.image = image

    def read(self, file: str, offset: int, length: int) -> bytes:
        """The bytes ``[offset, offset + length)`` of the manifest-relative ``file``."""
        image = self.image
        if image is not None:
            return image.files[file][offset : offset + length]
        return read_file_range(file_path(self.root, file), offset, length)

    def where(self, file: str) -> str:
        """``file`` named for an error message."""
        return file if self.root is None else file_path(self.root, file)


@dataclass
class StoredDataset:
    """An opened dataset: manifest, dictionary and table handles.

    It lives in a directory (:meth:`open`) or, until it is committed to one,
    in memory as a :class:`~repro.store.format.DatasetImage` (:meth:`hold`);
    the table handles read their byte ranges through its
    :class:`DatasetFiles` and do not know which.  A session keeps this object
    for as long as it is *current*, and its appends and compactions work on
    it in place — the manifest entries the table handles point at, the
    dictionary they share, the value sets — so a write costs what its batch
    costs instead of a re-read of everything.
    """

    files: DatasetFiles
    manifest: Manifest
    dictionary: StoredTermDictionary
    #: Every stored table by name: the physical ones and the selections.
    tables: Dict[str, _StoredProvider] = field(default_factory=dict)

    @classmethod
    def open(cls, root: str) -> "StoredDataset":
        manifest = read_manifest(root)
        dictionary = StoredTermDictionary.open(root, expected_size=manifest.dictionary_size)
        return cls(DatasetFiles(root), manifest, dictionary)._with_tables()

    @classmethod
    def hold(cls, image: DatasetImage) -> "StoredDataset":
        """Serve ``image`` from memory, exactly as if it had been committed and opened."""
        return cls(DatasetFiles(image=image), image.manifest, image.dictionary)._with_tables()

    def _with_tables(self) -> "StoredDataset":
        for name, entry in self.manifest.tables.items():
            base = self.tables[name] = StoredTable(self.files, entry, self.dictionary)
            for selection in entry.selections.values():
                self.tables[selection.name] = StoredSelection(base, selection)
        return self

    @property
    def root(self) -> Optional[str]:
        """The directory the dataset lives in; ``None`` while it is held in memory."""
        return self.files.root

    @property
    def image(self) -> Optional[DatasetImage]:
        """The held image, while the dataset lives in memory only."""
        return self.files.image

    def committed(self, root: str) -> None:
        """The held image was committed to ``root``: read from there from now on.

        The bytes are the same, so every decoded column and position vector
        stays good.
        """
        self.files.root = root  # before the image goes: a read sees one or the other
        self.files.image = None

    def is_current(self) -> bool:
        """Whether ``MANIFEST.json`` and ``MANIFEST.log`` are still the files
        this object last read or wrote.

        False once anyone else committed to the directory (another session's
        or process's append, compaction or full re-save) — and for an image
        held in memory, which no directory holds: the resident state then
        describes no committed manifest and must be re-read before the next
        write.
        """
        return self.root is not None and manifest_identity(self.root) == self.manifest.identity

    def table(self, name: str) -> _StoredProvider:
        return self.tables[name]

    def changed_table(self, name: str) -> _StoredProvider:
        """The handle of a table a committed mutation touched or created."""
        table = self.tables.get(name)
        if table is not None:
            table.entry_changed()
            return table
        entry = self.manifest.tables.get(name)
        if entry is not None:
            table = StoredTable(self.files, entry, self.dictionary)
        else:
            entry, selection = self.manifest.selection(name)
            base = self.tables.get(entry.name) or self.changed_table(entry.name)
            table = StoredSelection(base, selection)
        self.tables[name] = table
        return table


def register_dataset(view: StoreView, dataset: StoredDataset) -> None:
    """Register every table of a freshly opened ``dataset`` and point ``view`` at it.

    The cold open — of a directory, or of the image a session just built:
    the table handles :meth:`StoredDataset.open` / :meth:`~StoredDataset.hold`
    built are registered as they are.  Mutates the view's existing catalog
    in place — sessions hold references to it — via ``register_stored``,
    which also drops the decoded-rows cache of the table's previous
    incarnation; a table of an earlier dataset that ``dataset`` does not
    hold (after a re-save, or someone else's commit) is dropped.
    """
    catalog = view.catalog
    for name in catalog.table_names():
        if name not in dataset.tables:
            catalog.drop(name)
    _register(view, dataset, dataset.tables.items())


def register_changes(view: StoreView, dataset: StoredDataset, tables: Iterable[str]) -> None:
    """Re-register ``tables`` of ``dataset`` — what one committed mutation touched.

    With a committed append's or compaction's ``touched_tables`` this is all
    a live session has to do afterwards: the touched handles drop their
    stale scans (:meth:`StoredDataset.changed_table`), and every other table
    keeps its decoded rows.
    """
    _register(view, dataset, [(name, dataset.changed_table(name)) for name in tables])


def _register(
    view: StoreView, dataset: StoredDataset, tables: Iterable[Tuple[str, _StoredProvider]]
) -> None:
    for name, table in tables:
        view.catalog.register_stored(name, table, table.statistics())
    # The view reads the manifest itself: the appender maintains it in
    # place, so there is one copy and nothing to rebuild.
    view.manifest = dataset.manifest


def open_dataset(
    path: str, tracer: Optional[Tracer] = None
) -> Tuple[StoreView, DatasetLoadReport, StoredDataset]:
    """Open ``path`` and return a query-ready view of it.

    No N-Triples parsing and no ExtVP semi-join computation happens here —
    only manifest/dictionary I/O plus table registration.  Table rows stay
    on disk until a query scans them.  With an enabled ``tracer``, the two
    cold-open stages (manifest + dictionary I/O vs. table registration)
    appear as child spans.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    parses_before = ntriples_io.documents_parsed()
    with tracer.span("store.read-manifest", category="store") as span:
        dataset = StoredDataset.open(path)
        span.set(tables=len(dataset.tables))
    manifest = dataset.manifest
    view = StoreView(Catalog(), manifest)
    with tracer.span("store.restore-layout", category="store"):
        register_dataset(view, dataset)

    report = DatasetLoadReport(
        path=path,
        load_seconds=time.perf_counter() - start,
        table_count=len(dataset.tables),
        statistics_only_count=manifest.statistics_only_count(),
        dictionary_terms=manifest.dictionary_size,
        num_buckets=manifest.num_buckets,
        append_epoch=manifest.append_epoch,
        ntriples_parsed=ntriples_io.documents_parsed() > parses_before,
    )
    return view, report, dataset


def refresh_dataset(view: StoreView, path: str) -> StoredDataset:
    """Re-sync an opened view with whatever its dataset directory now holds.

    The full path, for when a session cannot just re-register what its own
    mutation touched: a pool worker that learns of a newer epoch, a session
    whose resident copy went stale or was dropped after a failed mutation.
    Everything is re-read and every table re-registered (stale decoded rows
    are dropped); the catalog object itself — which executors hold
    references to — stays the same.
    """
    dataset = StoredDataset.open(path)
    register_dataset(view, dataset)
    return dataset
