"""Partition-scaling benchmark for the parallel execution runtime.

Runs the WatDiv Basic Testing workload on one shared ExtVP layout while
varying ``num_partitions`` and reports how the join work scales: wall-clock
time, the join *critical path* (per join, the slowest partition task — the
time a cluster with one core per partition would spend on the join stage) and
the observed shuffle/broadcast exchange volume.

CPython threads serialize CPU-bound joins under the GIL, so the wall-clock
column barely moves; the critical-path speedup is the honest scaling signal
and is what the acceptance check asserts on.  A ``broadcast_threshold`` of 0
forces shuffle joins everywhere, making the partition count the only variable.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.bench.reporting import ExperimentReport
from repro.bench.scaling import forced_exchange
from repro.core.session import S2RDFSession, SessionConfig
from repro.mappings.extvp import ExtVPLayout
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.template import instantiate_many


def _run_workload(session: S2RDFSession, queries: Sequence[str]) -> Tuple[float, float, int, int]:
    """Execute all queries; return (wall ms, critical-path ms, shuffled B, broadcast B)."""
    wall_ms = 0.0
    critical_ms = 0.0
    shuffled_bytes = 0
    broadcast_bytes = 0
    for query_text in queries:
        start = time.perf_counter()
        result = session.query(query_text)
        wall_ms += (time.perf_counter() - start) * 1000.0
        critical_ms += result.metrics.critical_path_ms
        shuffled_bytes += result.metrics.shuffled_bytes
        broadcast_bytes += result.metrics.broadcast_bytes
    return wall_ms, critical_ms, shuffled_bytes, broadcast_bytes


def run_partition_scaling(
    scale_factor: float = 3.0,
    seed: int = 42,
    instantiations: int = 1,
    partition_counts: Sequence[int] = (1, 2, 4, 8),
    broadcast_threshold: int = 0,
    dataset: Optional[WatDivDataset] = None,
    template_names: Optional[Sequence[str]] = None,
    selectivity_threshold: float = 1.0,
) -> ExperimentReport:
    """Measure join scaling of the parallel runtime across partition counts."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)

    # One layout shared by every session: only the execution axis varies.
    layout = ExtVPLayout(selectivity_threshold=selectivity_threshold)
    layout.build(dataset.graph)

    queries: List[str] = []
    for template in BASIC_TEMPLATES:
        if template_names is not None and template.name not in template_names:
            continue
        queries.extend(instantiate_many(template, dataset, instantiations, seed=seed))

    report = ExperimentReport(
        name="Partition scaling — parallel runtime",
        description=(
            f"WatDiv Basic workload ({len(queries)} queries, scale factor {dataset.scale_factor:g}) on one "
            f"ExtVP layout; num_partitions varies, broadcast_threshold={broadcast_threshold}"
        ),
        columns=[
            "partitions",
            "wall_ms",
            "critical_path_ms",
            "speedup",
            "shuffled_bytes",
            "broadcast_bytes",
        ],
    )

    baseline_critical: Optional[float] = None
    for partitions in partition_counts:
        session = S2RDFSession(
            layout,
            config=SessionConfig.from_flat(
                selectivity_threshold=selectivity_threshold,
                num_partitions=partitions,
                broadcast_threshold=broadcast_threshold,
                # This benchmark isolates the partition-count axis; adaptive
                # replanning and skew splitting are measured by repro.bench.aqe.
                adaptive_enabled=False,
            ),
        )
        # Laptop-scale inputs would all join inline; the subject here is the
        # partitioned join itself.
        with forced_exchange():
            wall_ms, critical_ms, shuffled_bytes, broadcast_bytes = _run_workload(session, queries)
        session.close()
        if baseline_critical is None:
            baseline_critical = critical_ms
        speedup = baseline_critical / critical_ms if critical_ms > 0 else float("inf")
        report.add_row(
            partitions=partitions,
            wall_ms=round(wall_ms, 1),
            critical_path_ms=round(critical_ms, 1),
            speedup=round(speedup, 2),
            shuffled_bytes=shuffled_bytes,
            broadcast_bytes=broadcast_bytes,
        )

    report.add_note(
        "critical_path_ms sums, per join, the slowest partition task — the join-stage time of a cluster "
        "with one core per partition.  Wall-clock barely moves under the GIL; see README."
    )
    return report
