"""Parquet-like size accounting over a simulated HDFS namespace.

The paper reports the physical HDFS footprint of each layout (Table 2 and
Table 6) using the Parquet columnar format with snappy compression plus
dictionary and run-length encoding.  :class:`ParquetSizeModel` estimates the
encoded size of a relation with exactly those mechanisms, and
:class:`HdfsSimulator` keeps a flat namespace of "files" so that the
simulated systems can report total storage the way the paper's tables do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.relation import Relation


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
