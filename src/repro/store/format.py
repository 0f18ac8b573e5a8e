"""On-disk layout of a persistent S2RDF dataset (format version 4).

A dataset is a directory::

    <dataset>/
        MANIFEST.json          -- catalog, statistics, zone maps, config
        dictionary.nt          -- dataset-wide term dictionary, one N3 term
                                  per line; the line number is the term id
        tables/<name>.seg      -- one file per *physically stored* table
        tables/<name>.<epoch>.seg   (the same, after a compaction at <epoch>)

Physically stored are the VP tables and the ``triples`` table.  A table's file
holds two kinds of byte ranges, both addressed from the manifest by
``(offset, length)``:

* **Segments.**  The *base* segment of hash bucket ``i`` holds the rows whose
  partition-key values hash (:func:`key_partition_index`) to ``i``;
  *delta* segments hold rows appended after the dataset was written (one
  append *epoch* per :meth:`~repro.store.writer.DatasetAppender.append`
  call), bucketed with the same hash function.  Bucket ``i``'s *logical row
  sequence* is its base segment followed by its delta segments in manifest
  order.  Inside a segment every column is a dictionary-encoded,
  run-length-encoded page (:func:`repro.engine.storage.encode_id_column`);
  the per-column :class:`~repro.engine.storage.ZoneMap` entries live in the
  manifest so that scans can prune whole segments without opening the file.
* **Selections.**  A materialised ``ExtVP_kind[p1|p2]`` is a semi-join
  reduction of ``VP_p1`` — a subset of its rows — and is stored as exactly
  that: per hash bucket one *bitmap* over the logical row sequence of
  ``VP_p1``'s bucket, a blob in ``VP_p1``'s own file (:func:`encode_bitmap`:
  bit ``k`` of the blob is row ``k``; a blob shorter than the bucket means
  trailing zeros, so rows appended behind it need no rewrite).  The manifest
  keeps each blob's ``(offset, length, rows)`` beside the statistics the
  compiler needs.  There is no ExtVP table file, no ExtVP zone map (a scan
  prunes with ``VP_p1``'s zones — a superset test, so still sound) and no
  second copy of a row.

Table files and the term dictionary are append-only: an append writes at the
*committed end* of each file it touches (the end of the last byte the
manifest references) and never renumbers an id or moves a byte, so every
committed range stays valid verbatim.  A bitmap that gains bits is written
anew at the end; the blob it supersedes becomes *dead bytes* until the next
compaction.  The atomic manifest swap is the only commit point; bytes past a
file's committed end belong to an operation that crashed before its swap —
readers never look at them and the next write overwrites them.  Compaction
(:class:`~repro.store.writer.DatasetCompactor`) merges a table's delta
segments back into full base bucket segments — mapping every selection over
a re-sorted bucket through the sort permutation — and drops dead bytes, in a
*new* file (the epoch in its name), and deletes the old one after the swap.

A :class:`DatasetImage` is the same dataset held in memory — the table files'
bytes, the dictionary lines and the manifest object — before (or instead of)
being written to a directory.

The manifest also persists everything the query compiler needs to come back
cold: table statistics, the VP predicate map and the ExtVP correlation
statistics.  Only correlations with rows are listed, as they are held in
memory: a correlation the predicate list implies but the manifest does not
list is empty (the paper's statistics about tables that do not physically
exist, Sec. 6.1, without an entry each).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.storage import ZoneMap, decode_id_column
from repro.mappings.extvp import (
    CorrelationKind,
    ExtVPStatistics,
    ExtVPTableInfo,
    correlation_kinds,
    is_correlation_key,
)
from repro.mappings.naming import correlation_table_name
from repro.rdf.terms import IRI, Literal, Term, XSD_STRING, term_from_string

#: Bumped whenever the directory layout or segment encoding changes.
#: Version 4 stores every ExtVP table as bitmaps over its VP table's rows.
FORMAT_VERSION = 4

MANIFEST_FILE = "MANIFEST.json"
DICTIONARY_FILE = "dictionary.nt"
TABLES_DIR = "tables"

_SEGMENT_MAGIC = b"S2CS"
_SEGMENT_HEADER = struct.Struct("<HH")  # format version, column count
_COLUMN_HEADER = struct.Struct("<HI")  # name byte length, payload byte length

#: A manifest's correlation kind value -> the kind.
_KINDS = {kind.value: kind for kind in CorrelationKind}


def stable_hash(value: Any) -> int:
    """Deterministic 32-bit hash of one term value.

    CRC32 over the N3 rendering: stable across processes and runs (unlike
    ``hash(str)``), so a bucket written by one process is found by another.
    """
    if value is None:
        data = b"\x00"
    elif hasattr(value, "n3"):
        data = value.n3().encode("utf-8")
    else:
        data = repr(value).encode("utf-8")
    return zlib.crc32(data)


def key_partition_index(key: Tuple[Any, ...], num_partitions: int) -> int:
    """Hash bucket of one partition-key tuple (CRC32 combined over the components)."""
    combined = 0
    for component in key:
        combined = zlib.crc32(stable_hash(component).to_bytes(4, "big"), combined)
    return combined % num_partitions


class DatasetFormatError(ValueError):
    """Raised when a dataset directory cannot be read back."""


def manifest_path(root: str) -> str:
    return os.path.join(root, MANIFEST_FILE)


def dictionary_path(root: str) -> str:
    return os.path.join(root, DICTIONARY_FILE)


def table_file(table_name: str, generation: int = 0) -> str:
    """Manifest-relative path of a table's file.

    ``generation`` is 0 for the file :class:`~repro.store.writer.DatasetWriter`
    wrote and the compaction epoch afterwards: a compacted table lands in a
    file the previous manifest does not reference, so that manifest stays
    fully valid until the new one is swapped in.  Always "/"-separated, so
    datasets are portable across operating systems.
    """
    suffix = f".{generation:05d}" if generation else ""
    return f"{TABLES_DIR}/{table_name}{suffix}.seg"


def file_path(root: str, file: str) -> str:
    """Filesystem path of a manifest-relative ``file``."""
    return os.path.join(root, *file.split("/"))


def write_at(path: str, offset: int, data: bytes) -> None:
    """Make ``path`` hold its first ``offset`` bytes followed by ``data``.

    The one write primitive of table files and the dictionary: ``offset`` is
    the file's committed end, so whatever a crashed operation left behind it
    is overwritten and cut off, and nothing before it is touched.
    """
    with open(path, "r+b" if offset else "wb") as handle:
        handle.seek(offset)
        handle.write(data)
        handle.truncate()


# --------------------------------------------------------------------- #
# Segments
# --------------------------------------------------------------------- #
def encode_segment(pages: Sequence[Tuple[str, bytes]]) -> bytes:
    """Serialise one segment of ``(column_name, encoded_page)`` pairs."""
    parts: List[bytes] = [_SEGMENT_MAGIC, _SEGMENT_HEADER.pack(FORMAT_VERSION, len(pages))]
    for name, payload in pages:
        encoded_name = name.encode("utf-8")
        parts.append(_COLUMN_HEADER.pack(len(encoded_name), len(payload)))
        parts.append(encoded_name)
        parts.append(payload)
    return b"".join(parts)


def decode_segment(
    data: bytes,
    columns: Optional[Sequence[str]] = None,
    interned: Optional[Dict[int, int]] = None,
    origin: str = "segment",
) -> Dict[str, List[int]]:
    """Decode one segment's bytes into ``{column_name: ids}``.

    ``columns`` restricts decoding to the named columns (projection pushdown):
    pages of other columns are skipped without RLE expansion.  ``interned``
    is an id -> int table as :func:`~repro.engine.storage.decode_id_column`
    takes it; ``origin`` names the bytes in errors.
    """
    wanted = set(columns) if columns is not None else None
    if data[: len(_SEGMENT_MAGIC)] != _SEGMENT_MAGIC:
        raise DatasetFormatError(f"{origin} is not a dataset segment")
    position = len(_SEGMENT_MAGIC)
    version, column_count = _SEGMENT_HEADER.unpack_from(data, position)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"{origin} has format version {version}, expected {FORMAT_VERSION}")
    position += _SEGMENT_HEADER.size
    view = memoryview(data)  # pages are decoded in place, never copied out
    decoded: Dict[str, List[int]] = {}
    for _ in range(column_count):
        name_length, payload_length = _COLUMN_HEADER.unpack_from(data, position)
        position += _COLUMN_HEADER.size
        name = data[position : position + name_length].decode("utf-8")
        position += name_length
        payload = view[position : position + payload_length]
        position += payload_length
        if wanted is None or name in wanted:
            decoded[name] = decode_id_column(payload, interned)
    if wanted is not None:
        missing = wanted - set(decoded)
        if missing:
            raise DatasetFormatError(f"{origin} lacks columns {sorted(missing)}")
    return decoded


def read_file_range(path: str, offset: int = 0, length: int = -1) -> bytes:
    """The bytes ``[offset, offset + length)`` of ``path`` (to the end by default)."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        return handle.read(length)


# --------------------------------------------------------------------- #
# Selection bitmaps
# --------------------------------------------------------------------- #
#: byte value -> the offsets of its set bits, least significant first.
_SET_BITS = tuple(tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256))


def encode_bitmap(positions: Iterable[int]) -> bytes:
    """The bitmap with exactly the bits ``positions`` set (bit ``k`` = row ``k``).

    Byte ``k // 8`` holds row ``k`` at bit ``k % 8``; trailing zero bytes are
    not stored, so the empty selection is the empty blob.
    """
    positions = list(positions)
    data = bytearray(max(positions) // 8 + 1 if positions else 0)
    for position in positions:
        data[position >> 3] |= 1 << (position & 7)
    return bytes(data)


def decode_bitmap(data: bytes, rows: int, bucket_rows: int, origin: str) -> List[int]:
    """The set positions of a bitmap blob, ascending.

    ``rows`` is the popcount the manifest recorded and ``bucket_rows`` the
    length of the row sequence the bitmap selects from; a blob that disagrees
    with either was not written for this manifest.
    """
    positions = [
        index * 8 + bit for index, value in enumerate(data) if value for bit in _SET_BITS[value]
    ]
    if len(positions) != rows:
        raise DatasetFormatError(
            f"{origin}: bitmap selects {len(positions)} rows, manifest recorded {rows}"
        )
    if positions and positions[-1] >= bucket_rows:
        raise DatasetFormatError(
            f"{origin}: bitmap reaches row {positions[-1]} of a bucket of {bucket_rows} rows"
        )
    return positions


# --------------------------------------------------------------------- #
# Dictionary file
# --------------------------------------------------------------------- #
def encode_term_line(term: Term) -> str:
    """Lossless single-line encoding of one dictionary term.

    Two fixes over plain ``term.n3()``:

    * ``n3()`` canonically suppresses ``^^xsd:string``, which would collapse
      ``Literal("5", xsd:string)`` and ``Literal("5")`` into one dictionary
      entry and change decoded terms after a roundtrip — the datatype is kept
      explicit here;
    * ``n3()`` escapes ``\\n`` but not ``\\r`` (or other Unicode line
      separators), which would shift every later term id when the file is
      split back into lines — the whole line is therefore armoured with
      ``unicode_escape``, leaving pure single-line ASCII.
    """
    n3 = term.n3()
    if isinstance(term, Literal) and term.datatype == XSD_STRING:
        n3 += f"^^<{XSD_STRING}>"
    return n3.encode("unicode_escape").decode("ascii")


def decode_term_line(line: str) -> Term:
    """Inverse of :func:`encode_term_line`."""
    if "\\" in line:  # without one, the armour changed nothing
        line = line.encode("ascii").decode("unicode_escape")
    return term_from_string(line)


class StoredTermDictionary:
    """Lazy view of a persisted term dictionary, with one index per direction.

    Opening a dataset only reads the raw lines.  id -> term parses one line
    on its first :meth:`decode`; term -> id (:meth:`lookup`) encodes the term
    into its canonical line (:func:`encode_term_line`) and finds that line in
    an index of the raw lines, built on the first lookup without parsing any
    of them.  So a cold query parses only its constants' ids and the ids it
    returns, and the open stays proportional to file I/O.  A session keeps
    one instance for its lifetime: appends extend it (and the line index,
    once built) in place.
    """

    def __init__(self, lines: List[str]) -> None:
        self._lines = lines
        self._terms: List[Optional[Term]] = [None] * len(lines)
        #: Line -> its id (the last one, for a line two distinct terms share).
        self._reverse: Optional[Dict[str, int]] = None
        #: int -> its one object, shared by every decoded id column and position vector.
        self.interned: Dict[int, int] = {}
        #: Byte length of the committed lines in ``dictionary.nt`` (ASCII,
        #: one "\n" each) — the offset the next append writes at.
        self.committed_bytes = sum(map(len, lines)) + len(lines)

    @classmethod
    def of_terms(cls, terms: Sequence[Term]) -> "StoredTermDictionary":
        """The dictionary whose line ``i`` encodes ``terms[i]``, not written anywhere yet."""
        dictionary = cls([encode_term_line(term) for term in terms])
        dictionary._terms = list(terms)
        return dictionary

    @classmethod
    def open(cls, root: str, expected_size: Optional[int] = None) -> "StoredTermDictionary":
        with open(dictionary_path(root), "r", encoding="ascii", newline="\n") as handle:
            content = handle.read()
        # Terms are armoured single-line ASCII, so "\n" is the only separator.
        lines = content.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if expected_size is not None:
            if len(lines) < expected_size:
                raise DatasetFormatError(
                    f"dictionary has {len(lines)} terms, manifest expects {expected_size}"
                )
            # The manifest is the commit point of an append: extra trailing
            # lines (a crash between the dictionary append and the manifest
            # swap) are unreferenced by any committed segment, so they are
            # dropped — decode of an id beyond the committed range must fail.
            del lines[expected_size:]
        return cls(lines)

    def write(self, root: str) -> int:
        """Write every line as the whole of ``root``'s dictionary file; returns the bytes."""
        data = "".join(line + "\n" for line in self._lines).encode("ascii")
        write_at(dictionary_path(root), 0, data)
        return len(data)

    def append(self, root: str, terms: Sequence[Term]) -> int:
        """Write ``terms`` at the committed end of the file and adopt them.

        Existing lines (and therefore existing term ids, which are line
        numbers) are never rewritten, so every already-written segment keeps
        decoding to the same terms.  Returns the bytes added.  The caller
        commits the new size with the manifest; if that fails it must drop
        this object along with the rest of its resident state.
        """
        if not terms:
            return 0
        lines = [encode_term_line(term) for term in terms]
        data = "".join(line + "\n" for line in lines).encode("ascii")
        write_at(dictionary_path(root), self.committed_bytes, data)
        self.committed_bytes += len(data)
        first = len(self._lines)
        self._lines.extend(lines)
        self._terms.extend(terms)
        # Indexed once decodable: a lookup that finds a new line decodes its id.
        if self._reverse is not None:
            self._reverse.update(zip(lines, range(first, len(self._lines))))
        return len(data)

    def __len__(self) -> int:
        return len(self._lines)

    def decode(self, term_id: int) -> Term:
        if not 0 <= term_id < len(self._lines):
            raise KeyError(f"unknown term id {term_id}")
        term = self._terms[term_id]
        if term is None:
            term = decode_term_line(self._lines[term_id])
            self._terms[term_id] = term
        return term

    def lookup(self, term: Term) -> Optional[int]:
        """The id of ``term``, or ``None`` if the dictionary does not hold it."""
        reverse = self._reverse
        if reverse is None:
            # Published only once complete: concurrent readers of a cold
            # session may each build it, none may look into a half-built one.
            reverse = dict(zip(self._lines, range(len(self._lines))))
            self._reverse = reverse
        line = encode_term_line(term)
        term_id = reverse.get(line)
        if term_id is None:
            return None
        if self.decode(term_id) == term:
            return term_id
        # Distinct terms with one line (``Literal("x", language="")`` and
        # ``Literal("x")`` share their N3): the line's other ids, if any.
        for term_id, other in enumerate(self._lines):
            if other == line and self.decode(term_id) == term:
                return term_id
        return None


# --------------------------------------------------------------------- #
# Manifest entries
# --------------------------------------------------------------------- #
@dataclass
class PartitionEntry:
    """Manifest record of one base hash bucket of one table."""

    file: str  # the table's file, relative to the dataset root
    row_count: int
    size_bytes: int
    zones: Dict[str, ZoneMap]
    #: Where the segment starts in ``file``; it is ``size_bytes`` long.
    offset: int = 0

    def cut(self, data: bytes) -> bytes:
        """The segment's bytes out of ``data``, the contents of ``file`` from its start."""
        return data[self.offset : self.offset + self.size_bytes]

    def _encode(self, columns: Sequence[str]) -> List[int]:
        record = [self.offset, self.size_bytes, self.row_count]
        for column in columns:
            zone = self.zones[column]
            record += [zone.min_id, zone.max_id, zone.distinct_count, zone.null_count]
        return record

    @classmethod
    def _decode(cls, record: Sequence[int], file: str, columns: Sequence[str], **extra: int):
        if len(record) != 3 + 4 * len(columns):
            raise DatasetFormatError(f"malformed segment record for {file}: {record!r}")
        offset, size_bytes, row_count = record[:3]
        zones = {}
        at = 3
        for column in columns:
            # A zone's row count is its segment's; it is not stored twice.
            zones[column] = ZoneMap(
                record[at], record[at + 1], row_count, record[at + 2], record[at + 3]
            )
            at += 4
        return cls(file, row_count, size_bytes, zones, offset, **extra)


@dataclass
class DeltaEntry(PartitionEntry):
    """Manifest record of one appended delta segment.

    A delta holds rows added after the base segments were written.  It is
    hash-bucketed with the same function as the base partitions, so bucket
    ``bucket``'s logical content is the base segment plus every delta tagged
    with that bucket index; ``epoch`` is the append generation that produced
    it.
    """

    bucket: int = 0
    epoch: int = 0


@dataclass
class BitmapEntry:
    """Where one bucket's bitmap of a selection lies in the VP table's file."""

    offset: int = 0
    size_bytes: int = 0
    #: Set bits; 0 goes with the empty blob (nothing is stored, or read).
    rows: int = 0


@dataclass
class SelectionEntry:
    """Manifest record of one materialised ExtVP table.

    It lives in the :class:`TableEntry` of the VP table it selects from
    (``VP_first`` of the correlation): ``bitmaps[i]`` marks its rows in the
    logical row sequence of that table's bucket ``i``.  Its selectivity is
    ``row_count`` over the VP table's and is not stored.
    """

    name: str
    row_count: int
    distinct_subjects: int
    distinct_objects: int
    bitmaps: List[BitmapEntry]

    def size_bytes(self) -> int:
        return sum(bitmap.size_bytes for bitmap in self.bitmaps)


@dataclass
class TableEntry:
    """Manifest record of one physically stored table: its segments (base
    plus deltas) and the selections over its rows, all in one file."""

    name: str
    columns: Tuple[str, ...]
    #: Total logical rows: base partitions plus all delta segments.
    row_count: int
    selectivity: float
    distinct_subjects: int
    distinct_objects: int
    partition_keys: Tuple[str, ...]
    #: Hash bucket count.  ``partitions`` either has exactly this many entries
    #: or is empty (a delta-only table created by an append).
    num_buckets: int = 0
    partitions: List[PartitionEntry] = field(default_factory=list)
    deltas: List[DeltaEntry] = field(default_factory=list)
    #: Which file holds the table (see :func:`table_file`): 0 as first
    #: written, the compaction epoch once compacted.
    generation: int = 0
    #: The materialised ExtVP tables that are subsets of this (VP) table, by
    #: name.  The manifest lists them with the correlations, not here.
    selections: Dict[str, SelectionEntry] = field(default_factory=dict)

    @property
    def file(self) -> str:
        """The table's one file, relative to the dataset root."""
        return table_file(self.name, self.generation)

    def referenced_ranges(self) -> Iterator[Tuple[int, int]]:
        """``(offset, length)`` of every non-empty range of :attr:`file` in use."""
        for segment in self.partitions + self.deltas:
            yield segment.offset, segment.size_bytes
        for selection in self.selections.values():
            for bitmap in selection.bitmaps:
                if bitmap.size_bytes:
                    yield bitmap.offset, bitmap.size_bytes

    @property
    def committed_bytes(self) -> int:
        """End of the last byte the manifest references in :attr:`file`."""
        return max((offset + length for offset, length in self.referenced_ranges()), default=0)

    def live_bytes(self) -> int:
        """Bytes of :attr:`file` the manifest references."""
        return sum(length for _, length in self.referenced_ranges())

    def dead_bytes(self) -> int:
        """Committed bytes nothing references any more: superseded bitmaps.

        Writers lay ranges out back to back, so whatever lies before the
        committed end and is not live was live once.
        """
        return self.committed_bytes - self.live_bytes()

    @property
    def num_partitions(self) -> int:
        """Bucket count of the table's physical layout (base and deltas alike)."""
        return self.num_buckets if self.num_buckets else len(self.partitions)

    @property
    def has_deltas(self) -> bool:
        return bool(self.deltas)

    def segments_for_bucket(self, bucket: int) -> List[PartitionEntry]:
        """Base segment (if any) then deltas of ``bucket``, in append order."""
        segments: List[PartitionEntry] = []
        if bucket < len(self.partitions):
            segments.append(self.partitions[bucket])
        segments.extend(delta for delta in self.deltas if delta.bucket == bucket)
        return segments

    def segment_count(self) -> int:
        return len(self.partitions) + len(self.deltas)

    def base_row_count(self) -> int:
        return sum(partition.row_count for partition in self.partitions)

    def delta_row_count(self) -> int:
        return sum(delta.row_count for delta in self.deltas)

    def base_bytes(self) -> int:
        return sum(partition.size_bytes for partition in self.partitions)

    def delta_bytes(self) -> int:
        return sum(delta.size_bytes for delta in self.deltas)

    def bucket_row_count(self, bucket: int) -> int:
        """Length of ``bucket``'s logical row sequence."""
        return sum(segment.row_count for segment in self.segments_for_bucket(bucket))

    def _encode(self) -> list:
        columns = self.columns
        return [
            self.name,
            list(columns),
            self.row_count,
            self.selectivity,
            self.distinct_subjects,
            self.distinct_objects,
            list(self.partition_keys),
            self.num_buckets,
            self.generation,
            [partition._encode(columns) for partition in self.partitions],
            [[delta.bucket, delta.epoch] + delta._encode(columns) for delta in self.deltas],
        ]

    @classmethod
    def _decode(cls, record: list) -> "TableEntry":
        (name, columns, row_count, selectivity, distinct_subjects, distinct_objects,
         partition_keys, num_buckets, generation, partitions, deltas) = record  # fmt: skip
        file = table_file(name, generation)
        return cls(
            name=name,
            columns=tuple(columns),
            row_count=row_count,
            selectivity=selectivity,
            distinct_subjects=distinct_subjects,
            distinct_objects=distinct_objects,
            partition_keys=tuple(partition_keys),
            num_buckets=num_buckets,
            generation=generation,
            partitions=[PartitionEntry._decode(p, file, columns) for p in partitions],
            deltas=[
                DeltaEntry._decode(d[2:], file, columns, bucket=d[0], epoch=d[1]) for d in deltas
            ],
        )


@dataclass
class Manifest:
    """Everything needed to reopen a dataset without touching the source graph.

    This is the in-memory form; ``MANIFEST.json`` stores the same content as
    positional arrays (:meth:`to_json`): correlations reference predicates by
    index, and what can be derived — ExtVP table names, segment paths, the
    ``|VP_first|`` every selectivity is relative to — is not stored.
    """

    format_version: int
    layout_name: str
    num_buckets: int
    selectivity_threshold: float
    include_oo: bool
    namespaces: Dict[str, str]
    dictionary_size: int
    tables: Dict[str, TableEntry]
    #: predicate -> {"table": vp table name, "size": row count}
    vp_tables: Dict[IRI, dict]
    #: The statistics of the ExtVP correlations with rows (materialised or
    #: not); a correlation without an entry is empty.  The compiler reads
    #: this very object (:class:`~repro.store.view.StoreView`), so an
    #: append's incremental maintenance is all it takes to update both.
    extvp: ExtVPStatistics
    #: Append generation counter: 0 for a freshly written dataset, incremented
    #: by every committed append and compaction.
    append_epoch: int = 0
    #: Per-predicate distinct value sets, predicate -> ``{"s": subject ids,
    #: "o": object ids}`` (as sets).  These let an append dedup its batch and
    #: maintain ExtVP statistics without re-reading any stored segment.
    vp_value_sets: Dict[IRI, dict] = field(default_factory=dict)
    #: ``(inode, size, mtime_ns)`` of ``MANIFEST.json`` as this object was
    #: last read from or written to it — see :func:`manifest_identity`.
    identity: Optional[Tuple[int, int, int]] = field(default=None, compare=False)

    def statistics_only_count(self) -> int:
        """Correlations without a table: empty, equal to ``VP_first`` or above the threshold."""
        # ``len(correlation_keys(...))`` without listing them: every kind for
        # every ordered pair but SS of a predicate with itself.
        predicates = len(self.vp_tables)
        maintained = len(correlation_kinds(self.include_oo)) * predicates * predicates - predicates
        return maintained - len(self.extvp.materialized())

    def selection(self, name: str) -> Tuple[TableEntry, SelectionEntry]:
        """The selection called ``name`` and the entry of the table it selects from."""
        for entry in self.tables.values():
            selection = entry.selections.get(name)
            if selection is not None:
                return entry, selection
        raise KeyError(name)

    def to_json(self) -> dict:
        predicate_index = {predicate: index for index, predicate in enumerate(self.vp_tables)}
        correlations = []
        for key, info in self.extvp.tables.items():
            # Every held entry is written, so each must be a correlation with
            # rows the layout maintains, relative to the current ``|VP_first|``
            # — what the build and the incremental maintenance guarantee.
            vp_table = self.vp_tables[info.first]
            if (
                info.row_count <= 0
                or info.vp_row_count != vp_table["size"]
                or not is_correlation_key(*key, self.include_oo)
            ):
                raise ValueError(f"ExtVP statistics the manifest cannot hold: {info!r}")
            record = [
                info.kind,  # a ``str`` subclass: serialises as its value
                predicate_index[info.first],
                predicate_index[info.second],
                info.row_count,
                int(info.materialized),
            ]
            if info.materialized:
                selection = self.tables[vp_table["table"]].selections[info.name]
                record += [
                    selection.distinct_subjects,
                    selection.distinct_objects,
                    [
                        number
                        for bitmap in selection.bitmaps
                        for number in (bitmap.offset, bitmap.size_bytes, bitmap.rows)
                    ],
                ]
            correlations.append(record)
        # Canonical order: what an append added last does not show in the bytes.
        correlations.sort(key=lambda record: (record[1], record[2], record[0]))
        return {
            "format_version": self.format_version,
            "layout_name": self.layout_name,
            "num_buckets": self.num_buckets,
            "selectivity_threshold": self.selectivity_threshold,
            "include_oo": self.include_oo,
            "namespaces": self.namespaces,
            "dictionary_size": self.dictionary_size,
            "append_epoch": self.append_epoch,
            # [n3, vp table, rows, subject ids, object ids]
            "predicates": [
                [
                    predicate.n3(),
                    info["table"],
                    info["size"],
                    sorted(self.vp_value_sets[predicate]["s"]),
                    sorted(self.vp_value_sets[predicate]["o"]),
                ]
                for predicate, info in self.vp_tables.items()
            ],
            # [kind, first predicate, second predicate, rows, materialised] and,
            # when materialised, [distinct subjects, distinct objects,
            # [offset, length, rows of bucket 0's bitmap, ... of bucket 1's, ...]]
            "extvp": correlations,
            "tables": [self.tables[name]._encode() for name in sorted(self.tables)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Manifest":
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise DatasetFormatError(
                f"dataset format version {version!r} is not supported: this build reads and "
                f"writes version {FORMAT_VERSION} only — rebuild the dataset with repro.create"
            )
        predicates: List[IRI] = []
        vp_tables: Dict[IRI, dict] = {}
        vp_value_sets: Dict[IRI, dict] = {}
        for n3_text, table, size, subjects, objects in data["predicates"]:
            predicate = term_from_string(n3_text)
            if not isinstance(predicate, IRI):
                raise DatasetFormatError(f"expected a predicate IRI, got {n3_text!r}")
            predicates.append(predicate)
            vp_tables[predicate] = {"table": table, "size": size}
            vp_value_sets[predicate] = {"s": set(subjects), "o": set(objects)}
        tables = {record[0]: TableEntry._decode(record) for record in data["tables"]}

        selectivity_threshold = data["selectivity_threshold"]
        if not 0.0 <= selectivity_threshold <= 1.0:
            raise DatasetFormatError(
                f"selectivity_threshold {selectivity_threshold!r} is not within [0, 1]"
            )
        include_oo = data["include_oo"]
        kept = correlation_kinds(include_oo)
        seen: Set[Tuple[str, int, int]] = set()
        extvp = ExtVPStatistics()
        for record in data["extvp"]:
            kind_value, first, second, row_count, materialized = record[:5]
            if not (0 <= first < len(predicates) and 0 <= second < len(predicates)):
                raise DatasetFormatError(f"correlation {record[:3]!r} names no listed predicate")
            kind = _KINDS.get(kind_value) if isinstance(kind_value, str) else None
            if kind is None:
                raise DatasetFormatError(f"unknown correlation kind in {record[:3]!r}")
            if kind not in kept or (kind is CorrelationKind.SS and first == second):
                raise DatasetFormatError(
                    f"the manifest lists a correlation its layout does not keep: {record[:3]!r}"
                )
            if row_count <= 0:
                raise DatasetFormatError(f"correlation {record[:3]!r} is listed without rows")
            key = (kind_value, first, second)
            if key in seen:
                raise DatasetFormatError(f"correlation {record[:3]!r} is listed twice")
            seen.add(key)
            first_predicate, second_predicate = predicates[first], predicates[second]
            first_table = vp_tables[first_predicate]
            name = correlation_table_name(
                kind.value, first_table["table"], vp_tables[second_predicate]["table"]
            )
            # Positional (name, kind, first, second, rows, vp rows, materialised).
            extvp.add(
                ExtVPTableInfo(
                    name,
                    kind,
                    first_predicate,
                    second_predicate,
                    row_count,
                    first_table["size"],
                    bool(materialized),
                )
            )
            if materialized:
                entry = tables[first_table["table"]]
                entry.selections[name] = _decode_selection(name, record, entry)
        return cls(
            format_version=version,
            layout_name=data["layout_name"],
            num_buckets=data["num_buckets"],
            selectivity_threshold=selectivity_threshold,
            include_oo=include_oo,
            namespaces=data["namespaces"],
            dictionary_size=data["dictionary_size"],
            tables=tables,
            vp_tables=vp_tables,
            extvp=extvp,
            append_epoch=data["append_epoch"],
            vp_value_sets=vp_value_sets,
        )


def _decode_selection(name: str, record: list, entry: TableEntry) -> SelectionEntry:
    if len(record) != 8 or len(record[7]) != 3 * entry.num_partitions:
        raise DatasetFormatError(f"malformed selection record for {name}: {record!r}")
    numbers = record[7]
    return SelectionEntry(
        name=name,
        row_count=record[3],
        distinct_subjects=record[5],
        distinct_objects=record[6],
        bitmaps=list(map(BitmapEntry, numbers[0::3], numbers[1::3], numbers[2::3])),
    )


def _identity(status: os.stat_result) -> Tuple[int, int, int]:
    return (status.st_ino, status.st_size, status.st_mtime_ns)


def manifest_identity(root: str) -> Optional[Tuple[int, int, int]]:
    """``(inode, size, mtime_ns)`` of the committed manifest, ``None`` if absent.

    Every commit swaps in a freshly written file, so this changes whenever
    *anyone* commits; a session trusts its resident copy of the store's state
    only while it equals :attr:`Manifest.identity`.
    """
    try:
        return _identity(os.stat(manifest_path(root)))
    except FileNotFoundError:
        return None


def write_manifest(root: str, manifest: Manifest) -> None:
    # Compact separators and one-shot ``dumps`` (the C encoder; streaming
    # ``json.dump`` falls back to the pure-Python one): the manifest is
    # machine-read, has O(tables x buckets) zone-map records, and its
    # serialisation sits on the commit path of every save, append and
    # compaction.  The write goes to a temp file first and is swapped in
    # with ``os.replace`` so the commit point is atomic: a crash mid-write
    # never leaves a truncated manifest over a previously valid one.
    path = manifest_path(root)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest.to_json(), separators=(",", ":")) + "\n")
        handle.flush()
        # The rename keeps inode, size and mtime, so this is the identity of
        # exactly the file this call commits — not of a later writer's.
        status = os.fstat(handle.fileno())
    os.replace(temporary, path)
    manifest.identity = _identity(status)


def read_manifest(root: str) -> Manifest:
    path = manifest_path(root)
    if not os.path.isfile(path):
        raise DatasetFormatError(f"{root!r} is not a dataset directory (missing {MANIFEST_FILE})")
    with open(path, "r", encoding="utf-8") as handle:
        identity = _identity(os.fstat(handle.fileno()))
        manifest = Manifest.from_json(json.load(handle))
    manifest.identity = identity
    return manifest


@dataclass
class DatasetImage:
    """A whole dataset laid out in memory: every byte a directory would hold.

    :meth:`~repro.store.writer.DatasetWriter.lay_out` builds it and
    :meth:`~repro.store.writer.DatasetWriter.commit` writes it to a directory;
    until then a :class:`~repro.store.reader.StoredDataset` can serve it as it
    serves a directory, reading the same byte ranges out of ``files``.
    """

    manifest: Manifest
    dictionary: StoredTermDictionary
    #: Manifest-relative table file name -> its bytes.
    files: Dict[str, bytes]
