"""Workload analysis over the query journal.

S2RDF's bet is that the physical layout should follow the workload, and the
related PRoST line of work pushes further: choose *mixed* layouts from
workload evidence.  This module turns the raw evidence stream — the query
journal written by :class:`~repro.core.session.S2RDFSession` — into the
aggregates those decisions need:

* **hot templates**: queries grouped by constant-stripped template
  fingerprint, ranked by execution count and total wall-clock time;
* **table reuse**: how many queries scanned each VP/ExtVP table and how many
  tuples they pulled from it — the per-table demand signal for ExtVP
  materialization and caching;
* **misestimation distribution**: the q-error histogram of the planner's
  root-cardinality estimates, separating workloads the statistics describe
  from those they misdescribe;
* **materialization advice**: concrete cache candidates — templates that
  repeat against one manifest epoch with stable results (plan/result-cache
  candidates keyed on ``(fingerprint, epoch)``) and tables scanned by many
  distinct templates (layout/cache candidates) — the direct input for the
  ROADMAP's epoch-keyed caching work.

Everything is derived deterministically from the records, so a golden test
can compare the report against ground truth exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.journal import JournalRecord

#: q-error histogram bucket upper bounds (the last bucket is unbounded).
Q_ERROR_BUCKETS = (1.5, 2.0, 4.0, 16.0)

#: A template must repeat this often to become a cache candidate.
DEFAULT_MIN_CACHE_COUNT = 3

#: A table must be scanned by this many queries to become a hot-table advice.
DEFAULT_MIN_TABLE_REUSE = 3


@dataclass
class TemplateStats:
    """Aggregated executions of one query template."""

    fingerprint: str
    template: str
    count: int = 0
    total_wall_ms: float = 0.0
    total_rows: int = 0
    #: Distinct manifest epochs this template ran against (``None`` counts
    #: as its own pseudo-epoch: an un-persisted session).
    epochs: List[Optional[int]] = field(default_factory=list)
    #: Distinct result cardinalities seen, per epoch — a template whose rows
    #: vary within one epoch is not a result-cache candidate.
    rows_by_epoch: Dict[Any, List[int]] = field(default_factory=dict)

    @property
    def mean_wall_ms(self) -> float:
        return self.total_wall_ms / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "template": self.template,
            "count": self.count,
            "total_wall_ms": round(self.total_wall_ms, 3),
            "mean_wall_ms": round(self.mean_wall_ms, 3),
            "total_rows": self.total_rows,
            "epochs": self.epochs,
        }


@dataclass
class TableReuse:
    """Aggregated demand on one VP/ExtVP table."""

    table: str
    query_count: int = 0
    rows_scanned: int = 0
    #: Distinct templates that scanned this table.
    template_count: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "table": self.table,
            "query_count": self.query_count,
            "rows_scanned": self.rows_scanned,
            "template_count": self.template_count,
        }


@dataclass
class CacheCandidate:
    """One epoch-keyed materialization/caching recommendation."""

    kind: str  # "result-cache" | "hot-table"
    key: str
    epoch: Optional[int]
    count: int
    reason: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "epoch": self.epoch,
            "count": self.count,
            "reason": self.reason,
        }


@dataclass
class WorkloadAnalysis:
    """The analyzer's full output; ``as_dict``/``render_text`` for consumers."""

    total_queries: int
    total_wall_ms: float
    hot_templates: List[TemplateStats]
    table_reuse: List[TableReuse]
    #: q-error histogram: bucket label -> count (only records with estimates).
    q_error_histogram: Dict[str, int]
    estimated_queries: int
    max_q_error: float
    advice: List[CacheCandidate]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_queries": self.total_queries,
            "total_wall_ms": round(self.total_wall_ms, 3),
            "hot_templates": [t.as_dict() for t in self.hot_templates],
            "table_reuse": [t.as_dict() for t in self.table_reuse],
            "q_error_histogram": dict(self.q_error_histogram),
            "estimated_queries": self.estimated_queries,
            "max_q_error": round(self.max_q_error, 4),
            "advice": [c.as_dict() for c in self.advice],
        }

    def render_text(self) -> str:
        lines = [
            "== Workload report ==",
            f"queries: {self.total_queries}; total wall clock: {self.total_wall_ms:.1f} ms",
            "",
            f"Hot templates (top {len(self.hot_templates)}):",
        ]
        for stats in self.hot_templates:
            lines.append(
                f"  {stats.fingerprint}  x{stats.count}  total {stats.total_wall_ms:.1f} ms  "
                f"mean {stats.mean_wall_ms:.2f} ms"
            )
            lines.append(f"    {stats.template}")
        lines.append("")
        lines.append("Table reuse:")
        for reuse in self.table_reuse:
            lines.append(
                f"  {reuse.table}: {reuse.query_count} queries, "
                f"{reuse.template_count} templates, {reuse.rows_scanned} tuples read"
            )
        lines.append("")
        if self.estimated_queries:
            histogram = ", ".join(
                f"{label}: {count}" for label, count in self.q_error_histogram.items()
            )
            lines.append(
                f"Cardinality estimates ({self.estimated_queries} queries): {histogram}; "
                f"max q-error {self.max_q_error:.2f}"
            )
        else:
            lines.append("Cardinality estimates: none recorded")
        lines.append("")
        if self.advice:
            lines.append("Materialization advice:")
            for candidate in self.advice:
                epoch = "-" if candidate.epoch is None else str(candidate.epoch)
                lines.append(
                    f"  [{candidate.kind}] {candidate.key} (epoch {epoch}, x{candidate.count}): "
                    f"{candidate.reason}"
                )
        else:
            lines.append("Materialization advice: none (no template or table repeats enough)")
        return "\n".join(lines)


def _q_error_label(value: float) -> str:
    lower = 1.0
    for upper in Q_ERROR_BUCKETS:
        if value <= upper:
            return f"({lower:g}, {upper:g}]" if value > 1.0 else "exact"
        lower = upper
    return f"> {Q_ERROR_BUCKETS[-1]:g}"


def analyze_journal(
    records: Sequence[JournalRecord],
    top_k: int = 10,
    min_cache_count: int = DEFAULT_MIN_CACHE_COUNT,
    min_table_reuse: int = DEFAULT_MIN_TABLE_REUSE,
) -> WorkloadAnalysis:
    """Aggregate journal records into a :class:`WorkloadAnalysis`.

    Hot templates are ranked by count (execution time breaks ties), table
    reuse by query count; both orders are made fully deterministic by a final
    name tiebreak so golden tests can compare reports exactly.
    """
    templates: Dict[str, TemplateStats] = {}
    tables: Dict[str, TableReuse] = {}
    table_templates: Dict[str, set] = {}
    histogram: Dict[str, int] = {}
    estimated = 0
    max_q_error = 0.0
    total_wall = 0.0

    for record in records:
        total_wall += record.wall_ms
        stats = templates.get(record.fingerprint)
        if stats is None:
            stats = templates[record.fingerprint] = TemplateStats(
                fingerprint=record.fingerprint, template=record.template
            )
        stats.count += 1
        stats.total_wall_ms += record.wall_ms
        stats.total_rows += record.rows
        if record.epoch not in stats.epochs:
            stats.epochs.append(record.epoch)
        stats.rows_by_epoch.setdefault(record.epoch, []).append(record.rows)

        for table, rows in record.scanned_tables.items():
            reuse = tables.get(table)
            if reuse is None:
                reuse = tables[table] = TableReuse(table=table)
            reuse.query_count += 1
            reuse.rows_scanned += rows
            table_templates.setdefault(table, set()).add(record.fingerprint)

        if record.estimate_q_error is not None:
            estimated += 1
            max_q_error = max(max_q_error, record.estimate_q_error)
            label = _q_error_label(record.estimate_q_error)
            histogram[label] = histogram.get(label, 0) + 1

    for table, fingerprints in table_templates.items():
        tables[table].template_count = len(fingerprints)

    hot = sorted(
        templates.values(),
        key=lambda t: (-t.count, -t.total_wall_ms, t.fingerprint),
    )[:top_k]
    reuse_ranked = sorted(
        tables.values(),
        key=lambda t: (-t.query_count, -t.rows_scanned, t.table),
    )

    advice: List[CacheCandidate] = []
    for stats in sorted(templates.values(), key=lambda t: (-t.count, t.fingerprint)):
        for epoch, row_counts in stats.rows_by_epoch.items():
            if len(row_counts) >= min_cache_count and len(set(row_counts)) == 1:
                advice.append(
                    CacheCandidate(
                        kind="result-cache",
                        key=stats.fingerprint,
                        epoch=epoch,
                        count=len(row_counts),
                        reason=(
                            f"template repeated {len(row_counts)}x on one epoch with a "
                            f"stable {row_counts[0]}-row result; cache keyed on "
                            "(fingerprint, epoch) is safe until the next append"
                        ),
                    )
                )
    for reuse in reuse_ranked:
        if reuse.query_count >= min_table_reuse and reuse.template_count >= 2:
            advice.append(
                CacheCandidate(
                    kind="hot-table",
                    key=reuse.table,
                    epoch=None,
                    count=reuse.query_count,
                    reason=(
                        f"scanned by {reuse.query_count} queries across "
                        f"{reuse.template_count} templates "
                        f"({reuse.rows_scanned} tuples); keep materialized / cache decoded"
                    ),
                )
            )

    return WorkloadAnalysis(
        total_queries=len(records),
        total_wall_ms=total_wall,
        hot_templates=hot,
        table_reuse=reuse_ranked,
        q_error_histogram=histogram,
        estimated_queries=estimated,
        max_q_error=max_q_error,
        advice=advice,
    )


def analyze_dataset(dataset_path: str, top_k: int = 10, **kwargs: Any) -> WorkloadAnalysis:
    """Analyze the persistent journal of a stored dataset."""
    from repro.obs.journal import read_dataset_journal

    return analyze_journal(read_dataset_journal(dataset_path), top_k=top_k, **kwargs)
