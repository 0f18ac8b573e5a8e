"""Columnar storage: a real page codec plus Parquet-like size accounting.

The paper reports the physical HDFS footprint of each layout (Table 2 and
Table 6) using the Parquet columnar format with snappy compression plus
dictionary and run-length encoding.  :class:`ParquetSizeModel` estimates the
encoded size of a relation with exactly those mechanisms, and
:class:`HdfsSimulator` keeps a flat namespace of "files" so that layouts can
report total storage the way the paper's tables do.

Beside the size model lives the *real* encoding used by the persistent
dataset store (:mod:`repro.store`): columns of dictionary-encoded term ids are
serialised as run-length-encoded binary pages (:func:`encode_id_column` /
:func:`decode_id_column`), and every page carries a :class:`ZoneMap` (min/max
id, row count, distinct count) that scans use to prune segments without
reading them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.relation import Relation

#: Dictionary id standing in for SQL NULL inside an encoded column page.
NULL_ID = -1

_PAGE_HEADER = struct.Struct("<II")  # run count, row count
_RUN = struct.Struct("<iI")  # value id (NULL_ID for None), run length

#: The largest id a page can hold: run values are stored as ``<i``.
MAX_ID = 2**31 - 1


def encode_id_column(ids: Sequence[int]) -> bytes:
    """Serialise a column of dictionary ids as a run-length-encoded page.

    Consecutive equal ids collapse into one ``(id, run_length)`` pair — the
    same mechanism Parquet applies after dictionary encoding, except this one
    actually produces bytes that :func:`decode_id_column` reads back.
    """
    runs: List[Tuple[int, int]] = []
    for value in ids:
        if runs and runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] + 1)
        else:
            runs.append((value, 1))
    parts = [_PAGE_HEADER.pack(len(runs), len(ids))]
    parts.extend(_RUN.pack(value, length) for value, length in runs)
    return b"".join(parts)


def decode_id_column(page: bytes, interned: Optional[Dict[int, int]] = None) -> List[int]:
    """Expand a page produced by :func:`encode_id_column` into a list of ids.

    A cell is a pointer to its run's int; through ``interned`` (id -> the one
    int object standing for it) equal ids of every page decoded with the same
    table share that int, so a cell costs its 8-byte pointer and nothing more.
    """
    if len(page) < _PAGE_HEADER.size:
        raise ValueError("truncated column page header")
    run_count, row_count = _PAGE_HEADER.unpack_from(page, 0)
    expected = _PAGE_HEADER.size + run_count * _RUN.size
    if len(page) != expected:
        raise ValueError(f"column page has {len(page)} bytes, expected {expected}")
    intern = (interned if interned is not None else {}).setdefault
    ids: List[int] = []
    extend = ids.extend
    for value, length in _RUN.iter_unpack(memoryview(page)[_PAGE_HEADER.size :]):
        extend([intern(value, value)] * length)
    if len(ids) != row_count:
        raise ValueError(f"column page decoded {len(ids)} rows, header says {row_count}")
    return ids


@dataclass(frozen=True)
class ZoneMap:
    """Per-segment statistics enabling scans to skip whole segments.

    ``min_id``/``max_id`` bound the dictionary ids present in the segment
    (NULLs excluded), so an equality predicate whose encoded value falls
    outside the range proves the segment empty without decoding it.  The row
    and distinct counts round-trip into
    :class:`~repro.engine.catalog.TableStatistics` when a dataset is opened.
    """

    min_id: int
    max_id: int
    row_count: int
    distinct_count: int
    null_count: int = 0

    @classmethod
    def from_ids(cls, ids: Sequence[int]) -> "ZoneMap":
        present = [i for i in ids if i != NULL_ID]
        return cls(
            min_id=min(present) if present else NULL_ID,
            max_id=max(present) if present else NULL_ID,
            row_count=len(ids),
            distinct_count=len(set(present)),
            null_count=len(ids) - len(present),
        )

    def may_contain(self, term_id: int) -> bool:
        """False only when the segment provably lacks ``term_id``."""
        if term_id == NULL_ID:
            return self.null_count > 0
        if self.row_count == 0 or self.min_id == NULL_ID:
            return False
        return self.min_id <= term_id <= self.max_id

    def to_json(self) -> Dict[str, int]:
        return {
            "min_id": self.min_id,
            "max_id": self.max_id,
            "row_count": self.row_count,
            "distinct_count": self.distinct_count,
            "null_count": self.null_count,
        }

    @classmethod
    def from_json(cls, data: Dict[str, int]) -> "ZoneMap":
        return cls(
            min_id=data["min_id"],
            max_id=data["max_id"],
            row_count=data["row_count"],
            distinct_count=data["distinct_count"],
            null_count=data.get("null_count", 0),
        )


def _term_length(value: Any) -> int:
    """Byte length of one value when stored in a dictionary page."""
    if value is None:
        return 1
    if hasattr(value, "n3"):
        return len(value.n3())
    return len(str(value))


@dataclass
class ColumnEncodingStats:
    """Per-column breakdown of the encoded size."""

    name: str
    row_count: int
    distinct_count: int
    dictionary_bytes: int
    data_bytes: int
    run_length_runs: int

    @property
    def total_bytes(self) -> int:
        return self.dictionary_bytes + self.data_bytes


@dataclass
class ParquetSizeModel:
    """Estimates the on-disk size of a relation in a Parquet-like format.

    The model applies dictionary encoding per column (pointer width grows with
    the number of distinct values), run-length encoding on consecutive equal
    values, a snappy-style compression factor on the resulting pages and a
    fixed per-file metadata footer.
    """

    snappy_factor: float = 0.65
    metadata_bytes: int = 600
    page_overhead_bytes: int = 64

    def column_stats(self, relation: Relation, column: str) -> ColumnEncodingStats:
        values = relation.column_values(column)
        distinct = set(values)
        distinct_count = max(1, len(distinct))
        dictionary_bytes = sum(_term_length(v) for v in distinct)
        code_bits = max(1, math.ceil(math.log2(distinct_count))) if distinct_count > 1 else 1
        # Run-length encoding on consecutive equal codes.
        runs = 0
        previous = object()
        for value in values:
            if value != previous:
                runs += 1
                previous = value
        runs = max(runs, 1) if values else 0
        # Each run stores a code plus a varint run length (~2 bytes).
        data_bytes = math.ceil(runs * (code_bits / 8 + 2)) if values else 0
        return ColumnEncodingStats(
            name=column,
            row_count=len(values),
            distinct_count=len(distinct),
            dictionary_bytes=dictionary_bytes,
            data_bytes=data_bytes,
            run_length_runs=runs,
        )

    def estimate_bytes(self, relation: Relation) -> int:
        """Total estimated file size of ``relation``."""
        if not relation.columns:
            return self.metadata_bytes
        total = self.metadata_bytes
        for column in relation.columns:
            stats = self.column_stats(relation, column)
            total += self.page_overhead_bytes
            total += math.ceil(stats.total_bytes * self.snappy_factor)
        return total

    def estimate_ntriples_bytes(self, relation: Relation) -> int:
        """Size of the same data as uncompressed row-oriented text (N-Triples-like)."""
        total = 0
        for row in relation.rows:
            total += sum(_term_length(value) + 1 for value in row) + 2
        return total


@dataclass
class StoredFile:
    """One file in the simulated HDFS namespace."""

    path: str
    row_count: int
    size_bytes: int
    columns: Tuple[str, ...]


class HdfsSimulator:
    """A flat namespace of stored files with size bookkeeping."""

    def __init__(self, size_model: Optional[ParquetSizeModel] = None) -> None:
        self.size_model = size_model or ParquetSizeModel()
        self._files: Dict[str, StoredFile] = {}

    def write(self, path: str, relation: Relation) -> StoredFile:
        """Persist a relation as a Parquet-like file and return its metadata."""
        stored = StoredFile(
            path=path,
            row_count=len(relation),
            size_bytes=self.size_model.estimate_bytes(relation),
            columns=relation.columns,
        )
        self._files[path] = stored
        return stored

    def write_text(self, path: str, relation: Relation) -> StoredFile:
        """Persist a relation as uncompressed text (for the "original" dataset size)."""
        stored = StoredFile(
            path=path,
            row_count=len(relation),
            size_bytes=self.size_model.estimate_ntriples_bytes(relation),
            columns=relation.columns,
        )
        self._files[path] = stored
        return stored

    def delete(self, path: str) -> None:
        self._files.pop(path, None)

    def exists(self, path: str) -> bool:
        return path in self._files

    def file(self, path: str) -> StoredFile:
        return self._files[path]

    def files(self, prefix: str = "") -> List[StoredFile]:
        return [f for p, f in sorted(self._files.items()) if p.startswith(prefix)]

    def total_bytes(self, prefix: str = "") -> int:
        return sum(f.size_bytes for f in self.files(prefix))

    def total_rows(self, prefix: str = "") -> int:
        return sum(f.row_count for f in self.files(prefix))

    def file_count(self, prefix: str = "") -> int:
        return len(self.files(prefix))


def format_bytes(size: int) -> str:
    """Human-readable byte sizes (used by the benchmark reports)."""
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(size)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} TB"
