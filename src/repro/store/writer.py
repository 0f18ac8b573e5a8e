"""Writing the dataset store: one write path for builds, appends and compactions.

A build is an append to an empty store.  :meth:`DatasetWriter.lay_out` runs
a batch of triples through the append's batch step (:func:`_encode_batch`:
sorted, dictionary-encoded, deduplicated, grouped by predicate, new
predicates named, ExtVP maintained by
:func:`~repro.mappings.extvp.compute_incremental_extvp`) against an empty
manifest and writes every table once, as a
:class:`~repro.store.format.DatasetImage` in memory;
:meth:`DatasetWriter.commit` writes such an image to a directory, and a
session built from a graph serves the image in between.  Appends
(:class:`DatasetAppender`) and compactions (:class:`DatasetCompactor`) work
on a dataset already in a directory.

Every segment — a build's, an append's delta, a compaction's merge — is
written by :func:`_write_buckets`: a table's rows are hash-bucketed on their
partition key (:func:`_hash_buckets`, over the decoded terms), and each
bucket's rows are sorted by their id tuple and encoded as run-length-encoded
column pages with per-segment zone maps.  So a build writes each bucket in
the order a compaction writes it.  A materialised ExtVP table is written as
what it is — a subset of its VP table's rows: one bitmap per bucket, behind
that table's segments.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.storage import MAX_ID, NULL_ID, ZoneMap, encode_id_column
from repro.mappings.extvp import (
    ExtVPDelta,
    ExtVPStatistics,
    compute_incremental_extvp,
)
from repro.mappings.naming import TRIPLES_TABLE, correlation_table_name, unique_predicate_key
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import IRI, Term
from repro.rdf.triple import Triple
from repro.store.format import (
    FORMAT_VERSION,
    TABLES_DIR,
    BitmapEntry,
    DatasetFormatError,
    DatasetImage,
    DeltaEntry,
    Manifest,
    PartitionEntry,
    SelectionEntry,
    StoredTermDictionary,
    TableEntry,
    decode_bitmap,
    decode_segment,
    dictionary_path,
    encode_bitmap,
    encode_segment,
    file_path,
    key_partition_index,
    manifest_path,
    read_file_range,
    table_file,
    write_at,
    write_manifest,
)

if TYPE_CHECKING:  # the reader never imports the writer; keep it that way
    from repro.store.reader import StoredDataset


@dataclass
class DatasetWriteReport:
    """Summary returned by :meth:`DatasetWriter.write`."""

    path: str
    table_count: int
    segment_count: int
    dictionary_terms: int
    total_bytes: int
    num_buckets: int
    write_seconds: float


#: Where a row lies: ``(bucket, position in the bucket's logical row sequence)``.
_Positions = Dict[Tuple[int, ...], Tuple[int, int]]


def _hash_buckets(
    entry: "TableEntry", rows: Iterable[Tuple[int, ...]], decode: Callable[[int], Term]
) -> List[List[Tuple[int, ...]]]:
    """``rows`` (id tuples) of ``entry``'s table, bucket by bucket.

    Bucketing hashes the *decoded* partition-key terms, so bucket pruning,
    which hashes a query's constants, stays sound for every segment.
    """
    num_buckets = entry.num_partitions
    key_indexes = [entry.columns.index(key) for key in entry.partition_keys]
    buckets: List[List[Tuple[int, ...]]] = [[] for _ in range(num_buckets)]
    if num_buckets == 1 or not key_indexes:
        buckets[0] = list(rows)
        return buckets
    for row in rows:
        key = tuple(None if row[i] == NULL_ID else decode(row[i]) for i in key_indexes)
        buckets[key_partition_index(key, num_buckets)].append(row)
    return buckets


def _write_buckets(
    file: str,
    columns: Sequence[str],
    buckets: Iterable[Tuple[int, List[Tuple[int, ...]]]],
    image: "_FileImage",
    where: Optional[_Positions] = None,
    behind: Callable[[int], int] = lambda bucket: 0,
) -> List[PartitionEntry]:
    """Write each ``(bucket, rows)`` as one segment of ``file``, in the one row order.

    The single code path of base writes, delta appends and compaction: each
    bucket's rows are sorted by their id tuple, in place — equal values
    become adjacent (long RLE runs) — and encoded with their zone maps, so
    the three never desynchronise on row order, encoding or zone-map
    construction.  Returns the segment records, in ``buckets`` order.  With
    ``where``, records in it where each row went — its bucket and its
    position in the bucket's logical row sequence, in which the segment
    starts ``behind(bucket)`` rows in — the address a selection's bitmap
    knows a row by.
    """
    segments: List[PartitionEntry] = []
    for bucket, rows in buckets:
        rows.sort()
        if where is not None:
            for position, row in enumerate(rows, behind(bucket)):
                where[row] = (bucket, position)
        column_ids = [[row[i] for row in rows] for i in range(len(columns))]
        zones = {column: ZoneMap.from_ids(ids) for column, ids in zip(columns, column_ids)}
        largest = max((zone.max_id for zone in zones.values()), default=NULL_ID)
        if largest > MAX_ID:
            raise DatasetFormatError(f"term id {largest} exceeds the int32 id limit of {MAX_ID}")
        blob = encode_segment(
            [(column, encode_id_column(ids)) for column, ids in zip(columns, column_ids)]
        )
        segments.append(PartitionEntry(file, len(rows), len(blob), zones, image.add(blob)))
    return segments


class _FileImage:
    """What one operation adds to one table file, laid out back to back.

    The build, an append and a compaction all compose a file's new bytes
    here — every range learns its offset as it is added — and put them out in
    one :func:`~repro.store.format.write_at` at ``start``, the file's
    committed end (0 for a new file).
    """

    def __init__(self, start: int = 0) -> None:
        self.start = self.end = start
        self._ranges: List[bytes] = []

    def add(self, data: bytes) -> int:
        """Place ``data`` behind what was added so far; returns its offset."""
        offset = self.end
        self._ranges.append(data)
        self.end += len(data)
        return offset

    def add_bitmap(self, positions: Sequence[int]) -> BitmapEntry:
        """Place the bitmap that selects ``positions`` (nothing, for none)."""
        if not positions:
            return BitmapEntry()
        blob = encode_bitmap(positions)
        return BitmapEntry(self.add(blob), len(blob), len(positions))

    def bytes(self) -> bytes:
        """Everything added, back to back."""
        return b"".join(self._ranges)

    def write(self, path: str) -> int:
        """Write everything added; returns the number of bytes."""
        write_at(path, self.start, self.bytes())
        return self.end - self.start


class DatasetWriter:
    """Builds a dataset from triples: lays it out as a
    :class:`~repro.store.format.DatasetImage` in memory, then commits that
    image to a directory.

    The settings are those the manifest records: the bucket count, the
    ExtVP selectivity threshold and OO flag, and the namespaces new
    predicates' table names are compacted with.
    """

    def __init__(
        self,
        num_buckets: int = 4,
        selectivity_threshold: float = 1.0,
        include_oo: bool = False,
        namespaces: Optional[NamespaceManager] = None,
    ) -> None:
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.num_buckets = num_buckets
        self.selectivity_threshold = selectivity_threshold
        self.include_oo = include_oo
        self.namespaces = namespaces or NamespaceManager()

    # ------------------------------------------------------------------ #
    def write(
        self, path: str, triples: Iterable[Triple], overwrite: bool = False
    ) -> DatasetWriteReport:
        """Write the dataset of ``triples`` under ``path``."""
        return self.commit(self.lay_out(triples), path, overwrite=overwrite)

    def lay_out(self, triples: Iterable[Triple]) -> DatasetImage:
        """The v4 image of ``triples``: table files, dictionary and manifest, in memory.

        The append of ``triples`` to an empty store, with every table written
        once, compacted: the batch step an append runs (:func:`_encode_batch`)
        encodes the triples and computes ExtVP over their id rows, and each
        table's buckets are written as a compaction writes them — so the
        image equals, file for file, an empty dataset with ``triples``
        appended and then compacted.  Each VP table's file holds its
        segments, then the bitmaps of the materialised ExtVP tables over it,
        in name order.
        """
        manifest = Manifest(
            format_version=FORMAT_VERSION,
            layout_name="extvp",
            num_buckets=self.num_buckets,
            selectivity_threshold=self.selectivity_threshold,
            include_oo=self.include_oo,
            namespaces=self.namespaces.namespaces(),
            dictionary_size=0,
            tables={},
            vp_tables={},
            extvp=ExtVPStatistics(),
        )
        dictionary = _DictionaryAppender(StoredTermDictionary([]))
        batch = _encode_batch(triples, manifest, _EMPTY_VP_STATE, dictionary)
        reductions: Dict[IRI, List[ExtVPDelta]] = {}
        for delta in batch.deltas:
            manifest.extvp.add(delta.info)
            if delta.info.materialized:
                reductions.setdefault(delta.info.first, []).append(delta)

        files: Dict[str, bytes] = {}

        def write_table(
            name: str,
            columns: Tuple[str, ...],
            rows: Sequence[Tuple[int, ...]],
            image: _FileImage,
            where: Optional[_Positions] = None,
        ) -> TableEntry:
            entry = manifest.tables[name] = _new_table_entry(name, columns, self.num_buckets)
            buckets = _hash_buckets(entry, rows, dictionary.decode)
            entry.partitions = _write_buckets(entry.file, columns, enumerate(buckets), image, where)
            entry.row_count = len(rows)
            return entry

        # One VP table at a time: only its rows' positions and bytes are held.
        for predicate in batch.new_predicates:
            rows = batch.additions[predicate]
            image = _FileImage()
            where: _Positions = {}
            entry = write_table(batch.vp_names[predicate], ("s", "o"), rows, image, where)
            subjects = {row[0] for row in rows}
            objects = {row[1] for row in rows}
            entry.distinct_subjects, entry.distinct_objects = len(subjects), len(objects)
            manifest.vp_tables[predicate] = {"table": entry.name, "size": entry.row_count}
            manifest.vp_value_sets[predicate] = {"s": subjects, "o": objects}
            for delta in sorted(reductions.get(predicate, ()), key=lambda delta: delta.info.name):
                selected: List[List[int]] = [[] for _ in range(self.num_buckets)]
                for row in delta.rows:
                    bucket, position = where[row]
                    selected[bucket].append(position)
                entry.selections[delta.info.name] = SelectionEntry(
                    name=delta.info.name,
                    row_count=delta.info.row_count,
                    distinct_subjects=delta.distinct_subjects,
                    distinct_objects=delta.distinct_objects,
                    bitmaps=[image.add_bitmap(positions) for positions in selected],
                )
            files[entry.file] = image.bytes()

        # The base triples table (unbound-predicate patterns): column 1 is
        # the predicate.
        image = _FileImage()
        entry = write_table(TRIPLES_TABLE, ("s", "p", "o"), _triples_rows(batch, dictionary), image)
        files[entry.file] = image.bytes()
        entry.distinct_subjects = len(
            set().union(*(value_sets["s"] for value_sets in manifest.vp_value_sets.values()))
        )
        entry.distinct_objects = len(batch.vp_names)

        manifest.dictionary_size = len(dictionary.new_terms)
        return DatasetImage(
            manifest,
            StoredTermDictionary.of_terms(dictionary.new_terms),
            files,
        )

    @staticmethod
    def commit(image: DatasetImage, path: str, overwrite: bool = False) -> DatasetWriteReport:
        """Write ``image`` as the dataset under ``path``.

        The image is complete before anything on disk is touched, so ``path``
        may be the directory the image was read from.  The manifest is
        removed *first* and re-written *last*, so a crash mid-write leaves a
        directory that :func:`repro.store.reader.open_dataset` rejects
        outright instead of a stale manifest silently paired with new
        segments.  All previous dataset artifacts (dictionary, table files)
        are cleared, so shrinking re-saves leave no orphans.
        """
        start = time.perf_counter()
        if os.path.isfile(manifest_path(path)) and not overwrite:
            raise FileExistsError(f"{path!r} already contains a dataset; pass overwrite=True")
        os.makedirs(path, exist_ok=True)
        DatasetWriter._clear_artifacts(path)
        os.makedirs(os.path.join(path, TABLES_DIR))
        total_bytes = 0
        for file, data in image.files.items():
            write_at(file_path(path, file), 0, data)
            total_bytes += len(data)
        total_bytes += image.dictionary.write(path)
        manifest = image.manifest
        write_manifest(path, manifest)
        total_bytes += os.path.getsize(manifest_path(path))

        tables = manifest.tables.values()
        return DatasetWriteReport(
            path=path,
            table_count=len(tables) + sum(len(entry.selections) for entry in tables),
            segment_count=sum(entry.segment_count() for entry in tables),
            dictionary_terms=len(image.dictionary),
            total_bytes=total_bytes,
            num_buckets=manifest.num_buckets,
            write_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _clear_artifacts(path: str) -> None:
        """Remove every previous dataset artifact (manifest invalidated first)."""
        manifest = manifest_path(path)
        if os.path.isfile(manifest):
            os.remove(manifest)
        dictionary = dictionary_path(path)
        if os.path.isfile(dictionary):
            os.remove(dictionary)
        tables_root = os.path.join(path, TABLES_DIR)
        if os.path.isdir(tables_root):
            shutil.rmtree(tables_root)


def _new_table_entry(name: str, columns: Tuple[str, ...], num_buckets: int) -> TableEntry:
    """The entry of a table without rows, bucketed on the subject column —
    the dominant RDF join key."""
    return TableEntry(
        name=name,
        columns=columns,
        row_count=0,
        selectivity=1.0,
        distinct_subjects=0,
        distinct_objects=0,
        partition_keys=("s",),
        num_buckets=num_buckets,
    )


@dataclass
class _Batch:
    """What :func:`_encode_batch` makes of a batch of triples."""

    #: Predicate -> its rows new to the store, ``(subject id, object id)``.
    additions: Dict[IRI, List[Tuple[int, int]]]
    #: Triples already in the store or earlier in the batch.
    duplicates: int
    #: Predicate -> VP table name, for the stored predicates and the new ones.
    vp_names: Dict[IRI, str]
    #: The predicates new to the store, in IRI order.
    new_predicates: List[IRI]
    #: The ExtVP correlations the batch changes.
    deltas: List[ExtVPDelta]


def _encode_batch(
    triples: Iterable[Triple],
    manifest: Manifest,
    source,
    dictionary: "_DictionaryAppender",
) -> _Batch:
    """The batch step of every write: an append's, and a build's, which is
    an append to an empty store.

    The triples are sorted by their (s, p, o) N3 text, so the ids new terms
    get — and with them every byte the write puts out — do not depend on
    how the caller's collection iterates (a ``Graph`` is a hash set).  For
    each one the subject and object are encoded, the pair is deduplicated
    against the batch and against ``source`` (the stored VP state), and the
    predicate is encoded; rows are grouped by predicate.  New predicates are
    named in IRI order with keys that collide with none already stored (those
    are frozen in table names).  Then ExtVP is maintained for the batch
    (:func:`~repro.mappings.extvp.compute_incremental_extvp`).
    """
    additions: Dict[IRI, List[Tuple[int, int]]] = {}
    seen: Dict[IRI, Set[Tuple[int, int]]] = {}
    duplicates = 0
    for triple in sorted(triples, key=lambda t: (t.subject.n3(), t.predicate.n3(), t.object.n3())):
        predicate = triple.predicate
        if not isinstance(predicate, IRI):
            raise TypeError(f"predicate must be an IRI, got {predicate!r}")
        pair = (dictionary.encode(triple.subject), dictionary.encode(triple.object))
        existing = seen.setdefault(predicate, set())
        if pair in existing or source.has_row(predicate, pair):
            duplicates += 1
            continue
        existing.add(pair)
        dictionary.encode(predicate)
        additions.setdefault(predicate, []).append(pair)

    vp_names = {predicate: info["table"] for predicate, info in manifest.vp_tables.items()}
    new_predicates = sorted((p for p in additions if p not in vp_names), key=lambda p: p.value)
    namespaces = NamespaceManager(manifest.namespaces)
    taken_keys: Set[str] = {name[len("vp_") :] for name in vp_names.values()}
    for predicate in new_predicates:
        key = unique_predicate_key(predicate, taken_keys, namespaces)
        taken_keys.add(key)
        vp_names[predicate] = f"vp_{key}"

    deltas = compute_incremental_extvp(
        manifest.extvp,
        source,
        additions,
        lambda kind, first, second: correlation_table_name(
            kind.value, vp_names[first], vp_names[second]
        ),
        manifest.selectivity_threshold,
        manifest.include_oo,
    )
    return _Batch(additions, duplicates, vp_names, new_predicates, deltas)


def _triples_rows(batch: _Batch, dictionary: "_DictionaryAppender") -> List[Tuple[int, int, int]]:
    """The batch's rows of the triples table, ``(subject, predicate, object)`` ids."""
    rows: List[Tuple[int, int, int]] = []
    for predicate, pairs in batch.additions.items():
        predicate_id = dictionary.encode(predicate)
        rows.extend((s, predicate_id, o) for s, o in pairs)
    return rows


# --------------------------------------------------------------------- #
# Incremental appends
# --------------------------------------------------------------------- #
@dataclass
class DatasetAppendReport:
    """Summary returned by :meth:`DatasetAppender.append`."""

    path: str
    epoch: int
    triples_appended: int
    duplicate_triples: int
    new_predicates: int
    tables_updated: int
    tables_created: int
    delta_segments: int
    extvp_pairs_updated: int
    dictionary_terms_added: int
    bytes_written: int
    append_seconds: float
    #: Tables whose manifest entry changed (new rows, or new statistics) —
    #: all a live session has to re-register.
    touched_tables: List[str] = field(default_factory=list, repr=False)

    @property
    def write_amplification(self) -> float:
        """Bytes written to the store per logical triple appended."""
        if self.triples_appended == 0:
            return 0.0
        return self.bytes_written / self.triples_appended


class _DictionaryAppender:
    """Extends a stored dictionary append-only, in id space.

    Existing terms keep their ids (line numbers); unseen terms are assigned
    the next free ids in encounter order and collected for one trailing
    :meth:`~repro.store.format.StoredTermDictionary.append` — or, for a
    build, which extends an empty dictionary, for the image's dictionary.
    """

    def __init__(self, stored: StoredTermDictionary) -> None:
        self._stored = stored
        #: Every term encoded so far -> its id: the stored one is looked up once.
        self._ids: Dict[Term, int] = {}
        self.new_terms: List[Term] = []

    def encode(self, term: Term) -> int:
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = self._stored.lookup(term) if len(self._stored) else None
            if term_id is None:
                term_id = len(self._stored) + len(self.new_terms)
                self.new_terms.append(term)
            self._ids[term] = term_id
        return term_id

    def decode(self, term_id: int) -> Term:
        if term_id < len(self._stored):
            return self._stored.decode(term_id)
        return self.new_terms[term_id - len(self._stored)]


_NO_VALUES: AbstractSet[int] = frozenset()


class _EmptyVPState:
    """The VP state before a build: no predicates, rows or values."""

    def predicates(self) -> List[IRI]:
        return []

    def row_count(self, predicate: IRI) -> int:
        return 0

    def subjects(self, predicate: IRI) -> AbstractSet[int]:
        return _NO_VALUES

    def objects(self, predicate: IRI) -> AbstractSet[int]:
        return _NO_VALUES

    def rows(self, predicate: IRI) -> Iterable[Tuple[int, ...]]:
        return ()

    def has_row(self, predicate: IRI, pair: Tuple[int, int]) -> bool:
        return False


_EMPTY_VP_STATE = _EmptyVPState()


class _StoredVPSource:
    """Pre-append VP state for dedup and incremental maintenance.

    Value sets are the manifest's resident ``vp_value_sets``.  Full rows are
    needed only when the value sets prove they can matter — a maintenance
    intersection is non-empty, or a batch pair survives the subject/object
    membership prefilter in :meth:`has_row` — and then come from the
    dataset's resident table handle
    (:meth:`~repro.store.reader.StoredTable.bucket_arrays`): the decoded,
    interned id columns the session's scans share, so a table a query already
    scanned costs no read, and a base segment decoded for one append stays
    decoded for the next one and for the queries after it.

    A handle's segment lists are those of its committed entry.  So every row
    read must happen before the appender changes any entry in place: it
    calls :meth:`seal` then, and a read of a table first asked for after that
    raises instead of reading segments that are not written yet.  What a read
    found stays as it was found.
    """

    def __init__(self, dataset: "StoredDataset") -> None:
        self._dataset = dataset
        self._manifest = dataset.manifest
        #: The stored predicates' tables, as they were before the append.
        self._vp_names = {
            predicate: info["table"] for predicate, info in dataset.manifest.vp_tables.items()
        }
        #: predicate -> {row: (bucket, position in the bucket's logical row
        #: sequence)}, in that order — the rows, the dedup set and the address
        #: a selection's bitmap knows a row by, from one read.
        self._positions: Dict[IRI, Dict[Tuple[int, ...], Tuple[int, int]]] = {}
        self._sealed = False

    def seal(self) -> None:
        """The appender starts changing entries in place: no more row reads."""
        self._sealed = True

    # -- the lazy VP-source interface compute_incremental_extvp consumes -- #
    def predicates(self) -> List[IRI]:
        return list(self._vp_names)

    def _entry(self, predicate: IRI):
        return self._manifest.tables.get(self._vp_names.get(predicate, ""))

    def row_count(self, predicate: IRI) -> int:
        entry = self._entry(predicate)
        return entry.row_count if entry is not None else 0

    def positions(self, predicate: IRI) -> Dict[Tuple[int, ...], Tuple[int, int]]:
        """Where every pre-append row of ``VP_predicate`` lies (from its handle)."""
        cached = self._positions.get(predicate)
        if cached is None:
            entry = self._entry(predicate)
            if self._sealed:
                raise RuntimeError(
                    f"rows of {entry.name if entry else predicate!r} read after the "
                    "append began changing entries in place"
                )
            cached = {}
            if entry is not None:
                table = self._dataset.tables.get(entry.name)
                if table is not None and table.entry is entry:
                    for bucket in range(entry.num_partitions):
                        arrays = table.bucket_arrays(bucket, entry.columns)
                        rows = zip(*(arrays[column] for column in entry.columns))
                        for position, row in enumerate(rows):
                            cached[row] = (bucket, position)
                if len(cached) != entry.row_count:
                    raise RuntimeError(
                        f"the handle of {entry.name!r} does not hold its committed rows: "
                        "re-register what the last mutation touched before the next one"
                    )
            self._positions[predicate] = cached
        return cached

    def rows(self, predicate: IRI) -> Iterable[Tuple[int, ...]]:
        """All pre-append rows of ``VP_predicate``, in id space (from its handle)."""
        return self.positions(predicate).keys()

    def subjects(self, predicate: IRI) -> AbstractSet[int]:
        stored = self._manifest.vp_value_sets.get(predicate)
        return stored["s"] if stored is not None else _NO_VALUES

    def objects(self, predicate: IRI) -> AbstractSet[int]:
        stored = self._manifest.vp_value_sets.get(predicate)
        return stored["o"] if stored is not None else _NO_VALUES

    def has_row(self, predicate: IRI, pair: Tuple[int, int]) -> bool:
        """Dedup check: is ``pair`` already a row of ``VP_predicate``?

        The value-set prefilter answers the common case (a genuinely new
        subject or object) without touching storage; only pairs whose both
        ids already occur in the table's columns force a read of its rows.
        """
        if pair[0] not in self.subjects(predicate) or pair[1] not in self.objects(predicate):
            return False
        return pair in self.positions(predicate)


class DatasetAppender:
    """Appends triples to an opened dataset as delta segments.

    The batch goes through the step a build runs (:func:`_encode_batch`),
    but nothing existing is rewritten: new rows land as per-bucket delta
    segments at the committed end of each touched table's file
    (hash-bucketed and ordered as every segment is, :func:`_write_buckets`),
    the term dictionary is extended append-only, and the VP/ExtVP statistics
    are maintained incrementally for the affected predicate pairs only
    (:func:`~repro.mappings.extvp.compute_incremental_extvp`).

    The appender works on the caller's resident
    :class:`~repro.store.reader.StoredDataset` — manifest, dictionary (with
    its reverse index) and value sets as they are in memory — and updates
    them in place, so nothing is re-read or rebuilt per append.  The caller
    owns the two consequences: the resident copy must be current
    (:meth:`~repro.store.reader.StoredDataset.is_current`), and after an
    exception it is half-updated and must be thrown away.

    The (atomic) manifest swap is the commit point: a crash mid-append leaves
    the previous manifest in place, so the dataset reopens in its exact
    pre-append state.  What the crashed attempt wrote lies past the committed
    end of the table files and the dictionary, where no reader looks and the
    retry writes.

    Cost model: deduplication, VP statistics and ExtVP pair evaluation all
    run against the resident value sets without reading a single stored
    segment, and only the correlations the batch's values reach are
    evaluated (:func:`~repro.mappings.extvp.compute_incremental_extvp`) —
    about as many as get deltas, not the |predicates|² key space.  Old rows
    are needed only when a value-set intersection proves one can actually
    qualify (or a batch pair survives the dedup prefilter), and then come
    from the dataset's table handles: columns a query or an earlier append
    already decoded are not read again, and what this append decodes stays
    decoded for the queries after it.  An append of fresh terms costs what
    the batch costs, plus one serialisation of the manifest.  The handles must
    be current: the caller re-registers what each committed mutation touched
    (:func:`~repro.store.reader.register_changes`) before the next one.
    """

    def __init__(self, dataset: "StoredDataset") -> None:
        self.dataset = dataset
        self.path = dataset.root

    # ------------------------------------------------------------------ #
    def append(self, triples: Iterable[Triple]) -> DatasetAppendReport:
        start = time.perf_counter()
        manifest = self.dataset.manifest
        dictionary = _DictionaryAppender(self.dataset.dictionary)
        epoch = manifest.append_epoch + 1
        old_predicates = list(manifest.vp_tables)
        # Pre-append VP state, in id space (ids are dataset-global, so value
        # comparisons across tables work without decoding a single term).
        source = _StoredVPSource(self.dataset)

        # --- everything that reads the pre-append state ------------------- #
        batch = _encode_batch(triples, manifest, source, dictionary)
        additions, vp_names, deltas = batch.additions, batch.vp_names, batch.deltas
        if not additions:
            return DatasetAppendReport(
                path=self.path,
                epoch=manifest.append_epoch,
                triples_appended=0,
                duplicate_triples=batch.duplicates,
                new_predicates=0,
                tables_updated=0,
                tables_created=0,
                delta_segments=0,
                extvp_pairs_updated=0,
                dictionary_terms_added=0,
                bytes_written=0,
                append_seconds=time.perf_counter() - start,
            )
        batch_subjects = {row[0] for rows in additions.values() for row in rows}
        new_subjects = sum(
            1
            for subject in batch_subjects
            if not any(subject in source.subjects(predicate) for predicate in old_predicates)
        )

        # --- from here on the resident state changes in place -------------- #
        # The table handles' segment lists are the committed entries': every
        # row this append needs was read above (a delta's old rows are in the
        # rows its maintenance read), and a read from here would see segments
        # not written yet.
        source.seal()
        created: Set[str] = set()
        #: table name -> what this append adds to the table's file.
        images: Dict[str, _FileImage] = {}
        extended: Set[str] = set()  # tables that received delta segments
        #: Selections whose bitmaps or statistics changed — among them every
        #: selection over an extended table (its selectivity is relative to
        #: the table's size).
        reselected: Set[str] = set()

        def image_of(entry: TableEntry) -> _FileImage:
            image = images.get(entry.name)
            if image is None:
                image = images[entry.name] = _FileImage(entry.committed_bytes)
            return image

        # VP tables (and their manifest predicate map).
        added_at: Dict[IRI, _Positions] = {}
        for predicate in sorted(additions, key=lambda p: p.value):
            rows = additions[predicate]
            entry = manifest.tables.get(vp_names[predicate])
            if entry is None:
                entry = manifest.tables[vp_names[predicate]] = _new_table_entry(
                    vp_names[predicate], ("s", "o"), manifest.num_buckets
                )
                created.add(entry.name)
            added_at[predicate] = {}
            self._add_delta(entry, rows, dictionary, epoch, image_of(entry), added_at[predicate])
            extended.add(entry.name)
            entry.row_count += len(rows)
            value_sets = manifest.vp_value_sets.setdefault(predicate, {"s": set(), "o": set()})
            value_sets["s"].update(row[0] for row in rows)
            value_sets["o"].update(row[1] for row in rows)
            entry.distinct_subjects = len(value_sets["s"])
            entry.distinct_objects = len(value_sets["o"])
            manifest.vp_tables[predicate] = {"table": entry.name, "size": entry.row_count}

        # The base triples table (unbound-predicate patterns).
        if TRIPLES_TABLE in manifest.tables:
            triples_rows = _triples_rows(batch, dictionary)
            entry = manifest.tables[TRIPLES_TABLE]
            self._add_delta(entry, triples_rows, dictionary, epoch, image_of(entry))
            extended.add(entry.name)
            entry.row_count += len(triples_rows)
            entry.distinct_subjects += new_subjects
            # Column 1 of the triples table is the predicate.
            entry.distinct_objects = len(vp_names)
        delta_segments = sum(
            1 for name in extended for delta in manifest.tables[name].deltas if delta.epoch == epoch
        )

        # Incremental ExtVP maintenance (affected pairs only).
        #: table name -> [(selection over it, {bucket: positions it gains})]
        gains: Dict[str, List[Tuple[SelectionEntry, Dict[int, List[int]]]]] = {}
        for delta in deltas:
            info = delta.info
            manifest.extvp.add(info)
            if not info.materialized:
                continue
            entry = manifest.tables[vp_names[info.first]]
            selection = entry.selections.get(info.name)
            if selection is None:
                selection = entry.selections[info.name] = SelectionEntry(
                    info.name, 0, 0, 0, [BitmapEntry() for _ in range(entry.num_partitions)]
                )
            reselected.add(info.name)
            selection.row_count = info.row_count
            if delta.rows:
                # ``delta.rows`` are rows of VP_first: this append's, or older
                # ones revived by a value new to VP_second's join column.
                new_rows = added_at.get(info.first, {})
                buckets: Dict[int, List[int]] = {}
                for row in delta.rows:
                    bucket, position = new_rows.get(row) or source.positions(info.first)[row]
                    buckets.setdefault(bucket, []).append(position)
                gains.setdefault(entry.name, []).append((selection, buckets))
            # The maintenance pass computes exact post-append distinct
            # counts from the in-memory VP rows (None = unchanged), so
            # the stored statistics stay exact across appends.
            if delta.distinct_subjects is not None:
                selection.distinct_subjects = delta.distinct_subjects
            if delta.distinct_objects is not None:
                selection.distinct_objects = delta.distinct_objects
        for name in sorted(gains):
            entry = manifest.tables[name]
            self._merge_bitmaps(entry, gains[name], image_of(entry))

        # --- commit: table files, dictionary, manifest last ---------------- #
        bytes_written = 0
        for name in sorted(images):
            bytes_written += images[name].write(file_path(self.path, manifest.tables[name].file))
        bytes_written += self.dataset.dictionary.append(self.path, dictionary.new_terms)
        manifest.dictionary_size = len(self.dataset.dictionary)
        manifest.append_epoch = epoch
        write_manifest(self.path, manifest)

        return DatasetAppendReport(
            path=self.path,
            epoch=epoch,
            triples_appended=sum(len(rows) for rows in additions.values()),
            duplicate_triples=batch.duplicates,
            new_predicates=len(batch.new_predicates),
            tables_updated=len(extended - created),
            tables_created=len(created),
            delta_segments=delta_segments,
            extvp_pairs_updated=len(deltas),
            dictionary_terms_added=len(dictionary.new_terms),
            bytes_written=bytes_written,
            append_seconds=time.perf_counter() - start,
            touched_tables=sorted(extended | reselected),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _add_delta(
        entry: TableEntry,
        rows: Sequence[Tuple[int, ...]],
        dictionary: _DictionaryAppender,
        epoch: int,
        image: _FileImage,
        where: Optional[_Positions] = None,
    ) -> None:
        """Add ``rows`` (id tuples) to the table as one delta segment per
        bucket that gets rows; with ``where``, records where each row went."""
        filled = [
            (bucket, rows)
            for bucket, rows in enumerate(_hash_buckets(entry, rows, dictionary.decode))
            if rows
        ]
        segments = _write_buckets(
            entry.file, entry.columns, filled, image, where, entry.bucket_row_count
        )
        entry.deltas.extend(
            DeltaEntry(
                segment.file,
                segment.row_count,
                segment.size_bytes,
                segment.zones,
                segment.offset,
                bucket=bucket,
                epoch=epoch,
            )
            for segment, (bucket, _) in zip(segments, filled)
        )

    def _merge_bitmaps(
        self,
        entry: TableEntry,
        gains: Sequence[Tuple[SelectionEntry, Dict[int, List[int]]]],
        image: _FileImage,
    ) -> None:
        """Give every selection its gained bits: each bitmap that changes is
        added to ``image`` whole, and the blob it supersedes becomes dead bytes."""
        superseded = [
            selection.bitmaps[bucket]
            for selection, buckets in gains
            for bucket in buckets
            if selection.bitmaps[bucket].rows
        ]
        if superseded:
            # One read of the stretch of the file that holds them all.
            path = file_path(self.path, entry.file)
            low = min(bitmap.offset for bitmap in superseded)
            high = max(bitmap.offset + bitmap.size_bytes for bitmap in superseded)
            data = read_file_range(path, low, high - low)
        for selection, buckets in gains:
            for bucket, positions in sorted(buckets.items()):
                old = selection.bitmaps[bucket]
                if old.rows:
                    # By the maintenance identity no gained bit is set yet.
                    blob = data[old.offset - low : old.offset - low + old.size_bytes]
                    positions.extend(decode_bitmap(blob, old.rows, len(blob) * 8, path))
                selection.bitmaps[bucket] = image.add_bitmap(positions)


# --------------------------------------------------------------------- #
# Compaction
# --------------------------------------------------------------------- #
@dataclass
class CompactionReport:
    """Summary returned by :meth:`DatasetCompactor.compact`."""

    path: str
    tables_compacted: int
    tables_skipped: int
    segments_before: int
    segments_after: int
    delta_rows_merged: int
    bytes_written: int
    compact_seconds: float
    #: The tables whose deltas were merged and the selections over them — all
    #: a live session has to re-register.
    touched_tables: List[str] = field(default_factory=list, repr=False)


class DatasetCompactor:
    """Merges delta segments back into full base bucket segments.

    A table's file is rewritten when its delta-segment count reaches
    ``compaction_threshold`` or when it holds dead bytes (bitmaps an append
    superseded).  Bucket by bucket: base and delta rows are merged, re-sorted
    and re-encoded into a single base segment with freshly computed
    (tightened) zone maps, and every selection over the bucket is mapped
    through the sort permutation, so it keeps selecting the rows it selected.
    Buckets without deltas move over byte for byte, segment and bitmaps
    alike.  Files below the threshold and without dead bytes are left
    untouched, bounding the write amplification an append workload pays.

    Like the appender it works on the caller's resident
    :class:`~repro.store.reader.StoredDataset` and updates its manifest in
    place.  Crash safety mirrors the appender's: a rewritten table goes to a
    *new* file stamped with the compaction epoch, so the previous manifest
    stays fully valid until the new one is atomically swapped in; only after
    that commit are the superseded files deleted.  A crash at any point
    leaves the dataset openable in either its pre- or post-compaction state
    (never in between), with at worst some unreferenced files that the next
    ``compact`` call (even one with nothing to merge) or full save clears.
    """

    def __init__(self, compaction_threshold: int = 1) -> None:
        if compaction_threshold < 1:
            raise ValueError("compaction_threshold must be >= 1")
        self.compaction_threshold = compaction_threshold

    def compact(self, dataset: "StoredDataset") -> CompactionReport:
        start = time.perf_counter()
        path = dataset.root
        manifest = dataset.manifest
        segments_before = sum(entry.segment_count() for entry in manifest.tables.values())
        targets: List[TableEntry] = []
        skipped = 0
        for entry in manifest.tables.values():
            if len(entry.deltas) >= self.compaction_threshold or entry.dead_bytes():
                targets.append(entry)
            elif entry.deltas:
                skipped += 1
        epoch = manifest.append_epoch + 1
        bytes_written = 0
        rows_merged = 0
        touched: List[str] = []
        for entry in targets:
            rows_merged += entry.delta_row_count()
            # A file rewritten only to drop dead bytes holds the rows it held,
            # in the order it held them: nothing a session decoded went stale.
            merged = bool(entry.deltas)
            bytes_written += self._rewrite(path, entry, epoch)
            if merged:
                touched.append(entry.name)
                touched.extend(entry.selections)
        if targets:
            manifest.append_epoch = epoch
            write_manifest(path, manifest)  # atomic commit point
        # Cleanup, after the commit: delete every table file the manifest does
        # not reference — the superseded ones, plus whatever crashed appends
        # and compactions left behind (so a retry after a crash in this very
        # loop finishes it, even with nothing left to merge).
        referenced = {entry.file for entry in manifest.tables.values()}
        for file_name in os.listdir(os.path.join(path, TABLES_DIR)):
            if file_name.endswith(".seg") and f"{TABLES_DIR}/{file_name}" not in referenced:
                os.remove(os.path.join(path, TABLES_DIR, file_name))

        return CompactionReport(
            path=path,
            tables_compacted=len(targets),
            tables_skipped=skipped,
            segments_before=segments_before,
            segments_after=sum(entry.segment_count() for entry in manifest.tables.values()),
            delta_rows_merged=rows_merged,
            bytes_written=bytes_written,
            compact_seconds=time.perf_counter() - start,
            touched_tables=touched,
        )

    @staticmethod
    def _rewrite(path: str, entry: TableEntry, epoch: int) -> int:
        """Write ``entry``'s table into its file of generation ``epoch`` — one
        base segment per bucket, then every selection's bitmaps, no gap — and
        point the entry at it.  Returns the bytes written."""
        # One read of the table's committed bytes serves every range.
        data = read_file_range(file_path(path, entry.file), 0, entry.committed_bytes)
        new_file = table_file(entry.name, epoch)
        image = _FileImage()
        merged: List[PartitionEntry] = []
        #: Per bucket: old position -> new position, ``None`` where rows stayed put.
        moved: List[Optional[List[int]]] = []
        for bucket in range(entry.num_partitions):
            segments = entry.segments_for_bucket(bucket)
            if bucket < len(entry.partitions) and len(segments) == 1:
                # No delta in this bucket: its base segment moves over as is —
                # the same manifest record at a new address, so whatever a
                # session decoded from it stays good.
                base = segments[0]
                blob = base.cut(data)
                base.file, base.offset = new_file, image.add(blob)
                merged.append(base)
                moved.append(None)
                continue
            rows: List[Tuple[int, ...]] = []
            for segment in segments:
                decoded = decode_segment(segment.cut(data), entry.columns)
                rows.extend(zip(*(decoded[column] for column in entry.columns)))
            # Where the rows go is needed only to map the selections' bitmaps.
            old_order = list(rows) if entry.selections else []
            where: _Positions = {}
            merged += _write_buckets(
                new_file, entry.columns, [(bucket, rows)], image, where if old_order else None
            )
            moved.append([where[row][1] for row in old_order])
        for name in sorted(entry.selections):
            bitmaps = entry.selections[name].bitmaps
            for bucket, bitmap in enumerate(bitmaps):
                if not bitmap.rows:
                    continue
                blob = data[bitmap.offset : bitmap.offset + bitmap.size_bytes]
                new_position = moved[bucket]
                if new_position is None:
                    bitmap.offset = image.add(blob)  # the same record, as above
                else:
                    positions = decode_bitmap(blob, bitmap.rows, len(new_position), entry.file)
                    bitmaps[bucket] = image.add_bitmap([new_position[p] for p in positions])
        written = image.write(file_path(path, new_file))
        entry.generation = epoch
        entry.partitions = merged
        entry.deltas = []
        return written
