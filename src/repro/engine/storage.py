"""The store's column page codec.

The persistent dataset store (:mod:`repro.store`) serialises columns of
dictionary-encoded term ids as run-length-encoded binary pages
(:func:`encode_id_column` / :func:`decode_id_column`), and every page carries
a :class:`ZoneMap` (min/max id, row count, distinct count).  Scans find rows
through the resident columns' position indexes; the zone maps feed only
their counters, which report the segments a pruned columnar scan would skip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
