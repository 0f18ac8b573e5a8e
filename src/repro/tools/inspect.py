"""Store health inspector: ``python -m repro.tools.inspect <dataset>``.

Reads a persisted dataset's manifest (and, when present, its query journal)
without loading a single table row, and reports the numbers an operator needs
to decide whether the store is healthy:

* manifest epoch, bucket count, dictionary size (terms and bytes on disk);
* per table file — one append-only file per VP table (and ``triples``):
  base vs. delta segment and byte counts (deltas are the part of the table
  appends have not yet folded back into tight base segments), the selections
  it carries (the ExtVP tables stored as bitmaps over its rows: how many, how
  many bytes), and its *live* bytes (referenced by the manifest), *dead*
  bytes (bitmaps an append superseded, reclaimed by the next compaction) and
  *uncommitted* bytes (behind the committed end: the tail of an append or
  compaction that crashed before its manifest swap; readers ignore it and
  the next write to the file overwrites it);
* write amplification: stored bytes per logical triple;
* zone-map tightness (static): the mean fraction of the dictionary id space a
  base segment's zone covers — wide zones cannot prune;
* observed pruning effectiveness, from the dataset's journal when one exists;
* a compaction recommendation per file that has accumulated enough deltas or
  any dead bytes — what ``session.compact()`` would rewrite.

Everything comes from ``MANIFEST.json`` plus ``os.path.getsize``, so the
inspector is safe to run against a live dataset of any size.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import StoreConfig
from repro.obs.journal import read_dataset_journal
from repro.store.format import Manifest, TableEntry, dictionary_path, file_path, read_manifest

#: Recommend compaction once a table holds at least this many delta segments:
#: the session's own default ``compaction_threshold``.
DEFAULT_DELTA_SEGMENT_THRESHOLD = StoreConfig.compaction_threshold

#: ...or once deltas hold more than this fraction of the table's bytes.
DELTA_BYTES_FRACTION_THRESHOLD = 0.5


@dataclass
class TableHealth:
    """Storage health of one physically stored table — one file — derived
    from its manifest entry."""

    name: str
    rows: int
    base_rows: int
    delta_rows: int
    base_segments: int
    delta_segments: int
    base_bytes: int
    delta_bytes: int
    #: Mean fraction of the dictionary id space covered by the zones of the
    #: table's base segments (0 = perfectly tight, 1 = unprunable); ``None``
    #: for delta-only tables.
    zone_width_fraction: Optional[float]
    needs_compaction: bool
    compaction_reason: str = ""
    #: The table's file (relative to the dataset), the length the manifest
    #: has committed of it, and what lies behind that on disk.
    file: str = ""
    committed_bytes: int = 0
    uncommitted_bytes: int = 0
    #: The ExtVP tables stored as bitmaps over this table's rows.
    selections: int = 0
    selection_bytes: int = 0
    #: Committed bytes nothing references any more (superseded bitmaps).
    dead_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """The file's live bytes: segments plus bitmaps."""
        return self.base_bytes + self.delta_bytes + self.selection_bytes

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rows": self.rows,
            "base_rows": self.base_rows,
            "delta_rows": self.delta_rows,
            "base_segments": self.base_segments,
            "delta_segments": self.delta_segments,
            "base_bytes": self.base_bytes,
            "delta_bytes": self.delta_bytes,
            "zone_width_fraction": (
                round(self.zone_width_fraction, 4)
                if self.zone_width_fraction is not None
                else None
            ),
            "needs_compaction": self.needs_compaction,
            "compaction_reason": self.compaction_reason,
            "file": self.file,
            "committed_bytes": self.committed_bytes,
            "uncommitted_bytes": self.uncommitted_bytes,
            "selections": self.selections,
            "selection_bytes": self.selection_bytes,
            "live_bytes": self.total_bytes,
            "dead_bytes": self.dead_bytes,
        }


@dataclass
class StoreHealthReport:
    """The inspector's full output; ``as_dict``/``render_text`` for consumers."""

    path: str
    format_version: int
    append_epoch: int
    num_buckets: int
    #: Physically stored tables (one file each) and the ExtVP tables kept as
    #: selections over their rows.
    table_count: int
    selection_count: int
    statistics_only_count: int
    dictionary_terms: int
    dictionary_bytes: int
    #: Live bytes of all table files: segments (base + delta) plus bitmaps.
    total_bytes: int
    base_bytes: int
    delta_bytes: int
    selection_bytes: int
    triples: int
    #: Stored bytes per logical triple (all tables, VP/ExtVP redundancy
    #: included) — the store's overall write amplification.
    bytes_per_triple: float
    #: Committed bytes of table files nothing references (superseded bitmaps).
    dead_bytes: int = 0
    #: Bytes behind the committed end of table files (crashed writes).
    uncommitted_bytes: int = 0
    tables: List[TableHealth] = field(default_factory=list)
    compaction_candidates: List[str] = field(default_factory=list)
    journal_records: int = 0
    journal_files: int = 0
    #: Observed fraction of store segments pruned across journaled queries
    #: (``None`` when no journaled query scanned stored segments).
    observed_prune_fraction: Optional[float] = None
    #: Median admission-queue wait and median worker-hop cost (ms) of the
    #: journaled queries that went through a serving scheduler / a process
    #: worker; ``None`` when no journaled query did.
    served_queue_ms_p50: Optional[float] = None
    served_dispatch_ms_p50: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "format_version": self.format_version,
            "append_epoch": self.append_epoch,
            "num_buckets": self.num_buckets,
            "table_count": self.table_count,
            "selection_count": self.selection_count,
            "statistics_only_count": self.statistics_only_count,
            "dictionary_terms": self.dictionary_terms,
            "dictionary_bytes": self.dictionary_bytes,
            "total_bytes": self.total_bytes,
            "base_bytes": self.base_bytes,
            "delta_bytes": self.delta_bytes,
            "selection_bytes": self.selection_bytes,
            "triples": self.triples,
            "bytes_per_triple": round(self.bytes_per_triple, 2),
            "dead_bytes": self.dead_bytes,
            "uncommitted_bytes": self.uncommitted_bytes,
            "tables": [table.as_dict() for table in self.tables],
            "compaction_candidates": list(self.compaction_candidates),
            "journal_records": self.journal_records,
            "journal_files": self.journal_files,
            "observed_prune_fraction": (
                round(self.observed_prune_fraction, 4)
                if self.observed_prune_fraction is not None
                else None
            ),
            "served_queue_ms_p50": self.served_queue_ms_p50,
            "served_dispatch_ms_p50": self.served_dispatch_ms_p50,
        }

    def render_text(self, top_tables: int = 10) -> str:
        lines = [
            f"== Store health: {self.path} ==",
            f"format v{self.format_version}; manifest epoch {self.append_epoch}; "
            f"{self.num_buckets} bucket(s)",
            f"tables: {self.table_count} stored, one file each; {self.selection_count} "
            f"selections over their rows (+{self.statistics_only_count} statistics-only)",
            f"dictionary: {self.dictionary_terms} terms, {self.dictionary_bytes} bytes",
            f"stored bytes: {self.total_bytes} live (base {self.base_bytes}, "
            f"delta {self.delta_bytes}, selections {self.selection_bytes}), "
            f"{self.dead_bytes} dead",
            f"write amplification: {self.bytes_per_triple:.1f} bytes/triple "
            f"over {self.triples} triples",
        ]
        tails = [table for table in self.tables if table.uncommitted_bytes]
        if tails:
            lines.append(
                f"uncommitted tails: {self.uncommitted_bytes} bytes behind the committed end of "
                f"{len(tails)} table file(s) (a crashed write; ignored by readers, overwritten "
                f"by the next write): " + ", ".join(table.file for table in tails[:5])
            )
        if self.observed_prune_fraction is not None:
            lines.append(
                f"observed zone-map pruning: {self.observed_prune_fraction:.1%} of "
                f"segments skipped (journaled queries)"
            )
        if self.journal_records:
            lines.append(
                f"query journal: {self.journal_records} record(s) in "
                f"{self.journal_files} file(s)"
            )
        else:
            lines.append("query journal: empty")
        if self.served_queue_ms_p50 is not None:
            hop = (
                f", worker hop p50 {self.served_dispatch_ms_p50:.3f} ms"
                if self.served_dispatch_ms_p50 is not None
                else " (served on threads: no worker hop)"
            )
            lines.append(f"served queries: queue wait p50 {self.served_queue_ms_p50:.3f} ms{hop}")
        shown = sorted(self.tables, key=lambda t: (-t.total_bytes, t.name))[:top_tables]
        lines.append("")
        lines.append(f"Largest tables (top {len(shown)} of {len(self.tables)}):")
        for table in shown:
            zone = (
                f"zone width {table.zone_width_fraction:.1%}"
                if table.zone_width_fraction is not None
                else "no base segments"
            )
            tail = f" (+{table.uncommitted_bytes} uncommitted)" if table.uncommitted_bytes else ""
            lines.append(
                f"  {table.name}: {table.rows} rows, "
                f"{table.base_segments}+{table.delta_segments} segments, "
                f"{table.selections} selections ({table.selection_bytes} bytes), "
                f"{table.total_bytes} live / {table.dead_bytes} dead bytes{tail} "
                f"in {table.file}, {zone}"
            )
        lines.append("")
        if self.compaction_candidates:
            lines.append(f"Compaction recommended for {len(self.compaction_candidates)} file(s):")
            for name in self.compaction_candidates:
                table = next(t for t in self.tables if t.name == name)
                lines.append(f"  {table.file}: {table.compaction_reason}")
        else:
            lines.append("Compaction: not needed (no file holds enough deltas or any dead bytes)")
        return "\n".join(lines)


def _zone_width_fraction(entry: TableEntry, dictionary_terms: int) -> Optional[float]:
    """Mean id-space coverage of the table's base-segment zone maps."""
    if not entry.partitions or dictionary_terms <= 0:
        return None
    widths: List[float] = []
    for partition in entry.partitions:
        for zone in partition.zones.values():
            if zone.row_count == 0 or zone.max_id < zone.min_id:
                continue
            widths.append((zone.max_id - zone.min_id + 1) / dictionary_terms)
    if not widths:
        return None
    return sum(widths) / len(widths)


def _table_health(
    path: str,
    entry: TableEntry,
    dictionary_terms: int,
    delta_segment_threshold: int,
) -> TableHealth:
    base_bytes = entry.base_bytes()
    delta_bytes = entry.delta_bytes()
    dead_bytes = entry.dead_bytes()
    # The first two are the compactor's own rule for rewriting the file.
    needs = True
    if len(entry.deltas) >= delta_segment_threshold:
        reason = f"{len(entry.deltas)} delta segments (threshold {delta_segment_threshold})"
    elif dead_bytes:
        reason = f"{dead_bytes} dead bytes (superseded bitmaps)"
    elif entry.deltas and base_bytes and delta_bytes > DELTA_BYTES_FRACTION_THRESHOLD * (
        base_bytes + delta_bytes
    ):
        reason = (
            f"deltas hold {delta_bytes / (base_bytes + delta_bytes):.0%} of the "
            "table's bytes"
        )
    else:
        needs, reason = False, ""
    return TableHealth(
        name=entry.name,
        rows=entry.row_count,
        base_rows=entry.base_row_count(),
        delta_rows=entry.delta_row_count(),
        base_segments=len(entry.partitions),
        delta_segments=len(entry.deltas),
        base_bytes=base_bytes,
        delta_bytes=delta_bytes,
        zone_width_fraction=_zone_width_fraction(entry, dictionary_terms),
        needs_compaction=needs,
        compaction_reason=reason,
        file=entry.file,
        committed_bytes=entry.committed_bytes,
        uncommitted_bytes=os.path.getsize(file_path(path, entry.file)) - entry.committed_bytes,
        selections=len(entry.selections),
        selection_bytes=sum(selection.size_bytes() for selection in entry.selections.values()),
        dead_bytes=dead_bytes,
    )


def inspect_dataset(
    path: str,
    delta_segment_threshold: int = DEFAULT_DELTA_SEGMENT_THRESHOLD,
) -> StoreHealthReport:
    """Build a :class:`StoreHealthReport` from a dataset directory."""
    manifest: Manifest = read_manifest(path)
    tables = [
        _table_health(path, entry, manifest.dictionary_size, delta_segment_threshold)
        for entry in manifest.tables.values()
    ]
    tables.sort(key=lambda t: t.name)
    base_bytes = sum(t.base_bytes for t in tables)
    delta_bytes = sum(t.delta_bytes for t in tables)
    selection_bytes = sum(t.selection_bytes for t in tables)
    total_bytes = base_bytes + delta_bytes + selection_bytes
    triples_entry = manifest.tables.get("triples")
    triples = triples_entry.row_count if triples_entry is not None else 0

    dict_file = dictionary_path(path)
    dictionary_bytes = os.path.getsize(dict_file) if os.path.isfile(dict_file) else 0

    records = read_dataset_journal(path)
    scanned = sum(r.segments_scanned for r in records)
    pruned = sum(r.segments_pruned for r in records)
    prune_fraction = pruned / (scanned + pruned) if (scanned + pruned) else None
    queue_ms = [r.queue_ms for r in records if r.queue_ms is not None]
    dispatch_ms = [r.dispatch_ms for r in records if r.dispatch_ms is not None]
    journal_dir = os.path.join(path, "journal")
    journal_files = (
        len([n for n in os.listdir(journal_dir) if n.endswith(".jsonl")])
        if os.path.isdir(journal_dir)
        else 0
    )

    return StoreHealthReport(
        path=path,
        format_version=manifest.format_version,
        append_epoch=manifest.append_epoch,
        num_buckets=manifest.num_buckets,
        table_count=len(manifest.tables),
        selection_count=sum(t.selections for t in tables),
        statistics_only_count=manifest.statistics_only_count(),
        dictionary_terms=manifest.dictionary_size,
        dictionary_bytes=dictionary_bytes,
        total_bytes=total_bytes,
        base_bytes=base_bytes,
        delta_bytes=delta_bytes,
        selection_bytes=selection_bytes,
        triples=triples,
        bytes_per_triple=(total_bytes / triples) if triples else 0.0,
        dead_bytes=sum(t.dead_bytes for t in tables),
        uncommitted_bytes=sum(t.uncommitted_bytes for t in tables),
        tables=tables,
        compaction_candidates=[t.name for t in tables if t.needs_compaction],
        journal_records=len(records),
        journal_files=journal_files,
        observed_prune_fraction=prune_fraction,
        served_queue_ms_p50=statistics.median(queue_ms) if queue_ms else None,
        served_dispatch_ms_p50=statistics.median(dispatch_ms) if dispatch_ms else None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.inspect",
        description="Inspect the storage health of a persisted S2RDF dataset.",
    )
    parser.add_argument("dataset", help="path to a dataset directory (holds MANIFEST.json)")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--top-tables", type=int, default=10, help="tables shown in the text report"
    )
    parser.add_argument(
        "--delta-threshold",
        type=int,
        default=DEFAULT_DELTA_SEGMENT_THRESHOLD,
        help="delta segments per table file before compaction is recommended",
    )
    args = parser.parse_args(argv)
    report = inspect_dataset(args.dataset, delta_segment_threshold=args.delta_threshold)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text(top_tables=args.top_tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
