"""Observability overhead guard: tracing and journaling must stay near-free.

The tracer is threaded through every operator, exchange and pool task, so the
query hot path now calls ``tracer.span(...)`` everywhere.  The design promise
is that a *disabled* tracer costs nothing measurable: ``span()`` returns one
shared no-op singleton, so each instrumentation site is a method call plus a
``with`` block — no allocation, no lock, no clock read.

This benchmark quantifies that promise on the partition-scaling workload and
asserts it stays below a 2 % overhead budget.  Comparing two wall-clock runs
of the same workload is far too noisy at this duration (scheduler jitter
between two identical runs routinely exceeds 2 %), so the guard is computed
deterministically instead:

1. run the workload with tracing *enabled* once and count the span/event
   operations it performs (the instrumentation-site traffic);
2. micro-time the no-op span path (``span()`` + ``__enter__`` + ``__exit__``
   on a disabled tracer) over millions of iterations;
3. overhead budget check: ``span_ops x noop_cost`` must be < 2 % of the
   workload's tracing-disabled wall-clock time.

The *query journal* (one structured record appended per executed query, on by
default) is guarded the same way: one journal record costs a template
rendering, a fingerprint hash, a dataclass build and a buffered JSONL append,
so the guard micro-times that whole path (best of three runs — a single pass
is vulnerable to scheduler noise) on a representative workload query and
asserts ``queries x per-record cost`` stays under a 3 % budget.  The record's
cost is fixed per query, so its *share* moves with query speed: the same
~15-20 us record that was 1.0-1.2 % of this workload is 1.4-2.2 % of it now
that small joins run inline (PR 16 made the workload ~1.5x faster and left the
journal alone).  ``benchmarks/suite`` measures the end-to-end share
(``obs.journal_overhead_share``); taking the record off the query path is
ROADMAP item 1(d).

The raw disabled-vs-enabled wall clocks are reported as well, informationally.

Run directly (used by CI in smoke mode)::

    PYTHONPATH=src python -m repro.bench.obs_overhead --smoke
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

from repro.bench.reporting import ExperimentReport, write_bench_json
from repro.core.session import S2RDFSession, SessionConfig
from repro.mappings.extvp import ExtVPLayout
from repro.obs.journal import JournalRecord, QueryJournal
from repro.obs.trace import Tracer
from repro.sparql.parser import parse_query
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.template import instantiate_many

#: The promise this benchmark enforces for disabled tracing.
OVERHEAD_BUDGET = 0.02

#: Budget for the per-query journal record (see the module docstring for why
#: it is not the tracing budget).
JOURNAL_BUDGET = 0.03


def measure_noop_span_cost(iterations: int = 100_000) -> float:
    """Seconds per ``span()`` + enter/exit round trip on a disabled tracer."""
    tracer = Tracer(enabled=False)
    span = tracer.span  # bind once; instrumentation sites hold the tracer too
    start = time.perf_counter()
    for _ in range(iterations):
        with span("noop", category="bench"):
            pass
    elapsed = time.perf_counter() - start
    return elapsed / iterations


def measure_journal_record_cost(
    query_text: str, iterations: int = 1_000, repeats: int = 2
) -> float:
    """Seconds per journal record: template render + fingerprint + append.

    Times the full per-query journal path on an already parsed query (parsing
    happens regardless of journaling) against a *persistent* journal in a
    temporary directory, so the measured cost includes the buffered JSONL
    write (and its amortised flushes) a stored-dataset session pays.  Best of
    ``repeats`` runs — a single pass is vulnerable to scheduler noise.
    """
    parsed = parse_query(query_text)
    best = float("inf")
    with tempfile.TemporaryDirectory() as scratch:
        journal = QueryJournal(directory=os.path.join(scratch, "journal"))
        for _ in range(repeats):
            start = time.perf_counter()
            for index in range(iterations):
                journal.append(
                    JournalRecord(
                        fingerprint="",
                        template="",
                        epoch=0,
                        rows=index,
                        wall_ms=1.0,
                        phase_ms={"parse": 0.1, "compile": 0.2, "plan": 0.1, "execute": 0.5},
                        scanned_tables={"vp_likes": 10, "extvp_os_follows__likes": 4},
                        estimated_rows=index,
                        estimate_q_error=1.0,
                    ),
                    query=parsed,
                )
            best = min(best, (time.perf_counter() - start) / iterations)
        journal.close()
    return best


def _workload(dataset: WatDivDataset, instantiations: int, seed: int) -> List[str]:
    queries: List[str] = []
    for template in BASIC_TEMPLATES:
        queries.extend(instantiate_many(template, dataset, instantiations, seed=seed))
    return queries


def _run(session: S2RDFSession, queries: Sequence[str]) -> float:
    start = time.perf_counter()
    for query_text in queries:
        session.query(query_text)
    return (time.perf_counter() - start) * 1000.0


def run_obs_overhead(
    scale_factor: float = 1.0,
    seed: int = 42,
    num_partitions: int = 4,
    instantiations: int = 1,
    repeats: int = 3,
    dataset: Optional[WatDivDataset] = None,
) -> ExperimentReport:
    """Quantify the cost of the tracing instrumentation, enabled and disabled."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    layout = ExtVPLayout(selectivity_threshold=1.0)
    layout.build(dataset.graph)
    queries = _workload(dataset, instantiations, seed)

    def session_for(tracing_enabled: bool) -> S2RDFSession:
        # Journaling is disabled here so the tracing guard measures tracing
        # alone; the journal path has its own deterministic guard below.
        return S2RDFSession(
            layout,
            config=SessionConfig.from_flat(
                num_partitions=num_partitions,
                tracing_enabled=tracing_enabled,
                journal_enabled=False,
            ),
        )

    # All four measurements are interleaved round by round and reduced with
    # min(): the guarded numbers are *ratios*, so numerator and denominator
    # must be sampled under the same machine conditions — measuring the micro
    # costs only after all the wall clocks lets a load spike inflate one side
    # of the ratio but not the other.
    disabled_ms = float("inf")
    enabled_ms = float("inf")
    noop_seconds = float("inf")
    record_seconds = float("inf")
    span_ops = 0
    for _ in range(repeats):
        with session_for(tracing_enabled=False) as session:
            disabled_ms = min(disabled_ms, _run(session, queries))
        with session_for(tracing_enabled=True) as session:
            enabled_ms = min(enabled_ms, _run(session, queries))
            summary = session.tracer.summary()
            span_ops = summary["spans"] + summary["events"]
            session.tracer.clear()
        noop_seconds = min(noop_seconds, measure_noop_span_cost())
        record_seconds = min(record_seconds, measure_journal_record_cost(queries[0]))

    # The deterministic guard: what the instrumentation sites cost when the
    # tracer is disabled, as a fraction of the workload they instrument.
    estimated_overhead_ms = span_ops * noop_seconds * 1000.0
    overhead_fraction = estimated_overhead_ms / disabled_ms if disabled_ms > 0 else 0.0

    # Journal guard, same shape: one record per query, micro-timed on a
    # representative workload query (persistent JSONL path included).
    journal_overhead_ms = len(queries) * record_seconds * 1000.0
    journal_fraction = journal_overhead_ms / disabled_ms if disabled_ms > 0 else 0.0

    report = ExperimentReport(
        name="Observability overhead — disabled tracing must be free",
        description=(
            f"WatDiv Basic workload ({len(queries)} queries, scale factor {dataset.scale_factor:g}), "
            f"num_partitions={num_partitions}, best of {repeats} runs; guard: span-site traffic x "
            f"no-op span cost < {OVERHEAD_BUDGET:.0%} of the tracing-disabled wall clock"
        ),
        columns=["metric", "value"],
    )
    report.add_row(metric="workload wall (tracing disabled)", value=f"{disabled_ms:.1f} ms")
    report.add_row(metric="workload wall (tracing enabled)", value=f"{enabled_ms:.1f} ms")
    report.add_row(metric="span operations per workload pass", value=span_ops)
    report.add_row(metric="no-op span round trip", value=f"{noop_seconds * 1e9:.0f} ns")
    report.add_row(
        metric="estimated disabled-tracing overhead", value=f"{estimated_overhead_ms:.3f} ms"
    )
    report.add_row(
        metric="overhead fraction (guarded < 2%)", value=f"{overhead_fraction:.5f}"
    )
    report.add_row(metric="journal record cost", value=f"{record_seconds * 1e6:.1f} us")
    report.add_row(
        metric="estimated journaling overhead", value=f"{journal_overhead_ms:.3f} ms"
    )
    report.add_row(
        metric=f"journal overhead fraction (guarded < {JOURNAL_BUDGET:.0%})",
        value=f"{journal_fraction:.5f}",
    )
    report.add_note(
        "the guard is deterministic (site count x measured no-op cost) because two wall-clock runs "
        "of a sub-second workload differ by more than 2% from scheduler noise alone; the raw wall "
        "clocks are informational."
    )
    report.stash = {
        "disabled_ms": disabled_ms,
        "enabled_ms": enabled_ms,
        "span_ops": span_ops,
        "noop_span_ns": noop_seconds * 1e9,
        "estimated_overhead_ms": estimated_overhead_ms,
        "overhead_fraction": overhead_fraction,
        "journal_record_us": record_seconds * 1e6,
        "journal_overhead_ms": journal_overhead_ms,
        "journal_overhead_fraction": journal_fraction,
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description="Observability overhead guard")
    parser.add_argument("--scale", type=float, default=1.0, help="WatDiv-like scale factor")
    parser.add_argument("--partitions", type=int, default=4, help="shuffle partition count")
    parser.add_argument(
        "--smoke", action="store_true", help="CI mode: asserts the overhead budgets"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write machine-readable benchmarks/output/BENCH_obs_overhead.json",
    )
    args = parser.parse_args(argv)
    # Smoke mode used to shrink the scale factor, but the full workload runs
    # in about a second anyway — and at tiny scales the queries degenerate
    # into sub-millisecond microqueries against which a fixed per-record
    # journal cost cannot meaningfully be expressed as a percentage.
    report = run_obs_overhead(scale_factor=args.scale, num_partitions=args.partitions)
    print(report.to_text())
    if args.json:
        print(f"wrote {write_bench_json(report, 'obs_overhead')}")
    fraction = report.stash["overhead_fraction"]
    assert fraction < OVERHEAD_BUDGET, (
        f"disabled-tracing overhead {fraction:.4f} exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )
    print(f"overhead guard passed: {fraction:.5f} < {OVERHEAD_BUDGET:.0%}")
    journal_fraction = report.stash["journal_overhead_fraction"]
    assert journal_fraction < JOURNAL_BUDGET, (
        f"journaling overhead {journal_fraction:.4f} exceeds the {JOURNAL_BUDGET:.0%} budget"
    )
    print(f"journal guard passed: {journal_fraction:.5f} < {JOURNAL_BUDGET:.0%}")


if __name__ == "__main__":
    main()
