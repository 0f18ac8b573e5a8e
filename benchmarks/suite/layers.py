"""The traced run: per-layer metrics measured from outside the program.

Layer = module under ``src/repro/``.  Every number here comes from spans the
harness records around its own calls into a layer's public functions, or from
counts the program reports on ``QueryResult.metrics`` and its store reports.
This run never produces end-to-end numbers and never enables ``repro.obs``
tracing.

Unlike :mod:`workloads`, this module reaches below the stable surface
(``session.executor``, ``catalog.scan``, ``pack_input`` ...).  Later simplicity
changes will delete some of those, so every probe goes through
:meth:`Layers.probe`: a missing internal makes that probe's metrics
*unavailable* (with the reason) instead of failing the run.

Every workload's traced run executes every probe on that workload's replay
list, so each per-layer metric is a measurement on every workload: the append
probe and the serve probe run one short round of the ``append_query`` /
``serve_closed`` round functions when the workload is a different one.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import repro
from repro import ExecutionConfig, ObservabilityConfig, SessionConfig

from inputs import QUERIES_PER_APPEND, Inputs
from spans import NULL_RECORDER, SpanRecorder
from workloads import (
    CLIENTS,
    NUM_PARTITIONS,
    Plan,
    Tally,
    append_round,
    base_config,
    calibrate,
    directory_bytes,
    direct_round,
    instance_medians,
    open_scheduler,
    open_session,
    parse_batches,
    percentile,
    pin_thread,
    served_round,
    spread,
    verify_post_compaction,
    worker_rss_mb,
)

#: Instances the serve probe replays on workloads other than ``serve_closed``.
SERVE_PROBE_INSTANCES = 64
#: What a missing internal raises; anything else is a bug and ends the run.
MISSING = (AttributeError, ImportError, KeyError, TypeError, statistics.StatisticsError)


class Layers:
    """Per-layer metric values; ``None`` marks a probe that could not run."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}
        #: Reference-kernel samples taken between the rounds of every probe;
        #: their median sets the speed the run's times are reported at.
        self.calibrations: List[float] = []

    def probe(self, names: Sequence[str], measure: Callable[[], Dict[str, float]]) -> bool:
        try:
            measured = measure()
        except MISSING as error:
            self.unavailable(names, error)
            return False
        for name in names:
            self.values[name] = float(measured[name])
        return True

    def unavailable(self, names: Sequence[str], error: Exception) -> None:
        for name in names:
            self.values[name] = None
            self.reasons[name] = f"{type(error).__name__}: {error}"


def _timed_rounds(
    layers: Layers, budget_s: float, min_rounds: int, *round_fns: Callable[[], None]
) -> None:
    """Alternate the given rounds until the budget is spent."""
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < budget_s:
        layers.calibrations.append(calibrate())
        for run in round_fns:
            run()
            gc.collect()
        done += 1


def trace(inputs: Inputs, plan: Plan, scratch: str, trace_path: str):
    """Run every layer probe on ``inputs``; returns (Layers, Tally)."""
    recorder = SpanRecorder()
    layers = Layers()
    tally = Tally()
    texts = inputs.texts()
    pin_thread()
    layers.calibrations.append(calibrate())
    store = os.path.join(scratch, "store-traced")

    with recorder.span("probe.build"):
        _staged_build(layers, recorder, inputs, store)
        _storage_probe(layers, store)
    with recorder.span("probe.scan"):
        _scan_probe(layers, recorder, store, texts)
    with recorder.span("probe.query_path"):
        direct_ms = _query_path_probe(layers, recorder, store, inputs, tally, 0.35 * plan.seconds)
    with recorder.span("probe.append"):
        budget = 0.30 * plan.seconds if inputs.workload == "append_query" else 0.0
        _append_probe(layers, recorder, inputs, store, scratch, tally, budget)
    with recorder.span("probe.serve"):
        _serve_probe(layers, recorder, inputs, store, direct_ms, tally, 0.15 * plan.seconds)

    layers.calibrations.append(calibrate())
    layers.values["driver.calib_ms"] = statistics.median(layers.calibrations)
    recorder.write_chrome_trace(trace_path)
    for span in recorder.spans:
        if span.name.startswith("probe."):
            print(f"  # {span.name:32s} {span.ms / 1000.0:12.4f} s")
    for name, self_ms in sorted(recorder.self_ms().items(), key=lambda item: -item[1]):
        if not name.startswith("probe."):
            print(f"  # self time {name:22s} {self_ms / 1000.0:12.4f} s")
    return layers, tally


# --------------------------------------------------------------------- #
# Build and storage (rdf, mappings, store)
# --------------------------------------------------------------------- #
def _staged_build(layers: Layers, recorder: SpanRecorder, inputs: Inputs, store: str) -> None:
    """``repro.create`` taken apart: parse -> ExtVP build -> save."""

    def staged() -> Dict[str, float]:
        with recorder.span("rdf.parse_ntriples") as parse:
            graph = repro.parse_ntriples(inputs.ntriples)
        with recorder.span("mappings.extvp_build") as build:
            session = repro.S2RDFSession.from_graph(graph, config=base_config())
        with recorder.span("store.save") as save:
            session.save_dataset(store)
        session.close()
        return {
            "rdf.parse_ntriples_s": parse.ms / 1000.0,
            "mappings.extvp_build_s": build.ms / 1000.0,
            "store.save_s": save.ms / 1000.0,
        }

    names = ["rdf.parse_ntriples_s", "mappings.extvp_build_s", "store.save_s"]
    if not layers.probe(names, staged):
        # The stages are gone; the other probes still need a store.
        shutil.rmtree(store, ignore_errors=True)
        repro.create(inputs.ntriples, path=store, config=base_config()).close()


def _storage_probe(layers: Layers, store: str) -> None:
    def walk() -> Dict[str, float]:
        files = 0
        dictionary = 0
        for root, _, names in os.walk(store):
            if os.path.basename(root) == "journal":
                continue
            files += len(names)
            dictionary += sum(
                os.path.getsize(os.path.join(root, name)) for name in names if "dictionary" in name
            )
        return {
            "store.segment_files": files,
            "store.bytes_total": directory_bytes(store),
            "store.dictionary_bytes": dictionary,
        }

    layers.probe(["store.segment_files", "store.bytes_total", "store.dictionary_bytes"], walk)


def _mapping_probe(layers: Layers, session) -> None:
    def summary() -> Dict[str, float]:
        counts = session.storage_summary()
        return {
            "mappings.extvp_tables": counts["table_counts"]["extvp"],
            "mappings.extvp_tuple_ratio": counts["extvp_tuples"] / counts["vp_tuples"],
        }

    layers.probe(["mappings.extvp_tables", "mappings.extvp_tuple_ratio"], summary)


def _scan_probe(layers: Layers, recorder: SpanRecorder, store: str, texts: Sequence[str]) -> None:
    """Cold open, then every table the workload selects scanned cold and warm."""
    opens = []
    session = None
    for _ in range(3):
        if session is not None:
            session.close()
        with recorder.span("store.open") as span:
            session = repro.connect(store)
        opens.append(span.ms)
    layers.values["store.open_ms"] = statistics.median(opens)

    def scans() -> Dict[str, float]:
        tables = sorted({name for text in texts for name in session.compile(text).selected_tables})
        catalog = session.layout.catalog
        totals = {"cold": 0.0, "warm": 0.0}
        tuples = 0
        for state in ("cold", "warm"):
            for name in tables:
                if not catalog.is_stored(name):
                    continue  # Selected but empty: statistics only, nothing to scan.
                with recorder.span(f"store.{state}_scan", table=name) as span:
                    scanned = catalog.scan(name)
                totals[state] += span.ms
                if state == "cold":
                    tuples += scanned.rows_scanned
        return {
            "store.cold_scan_ms": totals["cold"],
            "store.warm_scan_ms": totals["warm"],
            "store.cold_scan_us_per_tuple": totals["cold"] * 1000.0 / max(tuples, 1),
        }

    try:
        layers.probe(
            ["store.cold_scan_ms", "store.warm_scan_ms", "store.cold_scan_us_per_tuple"], scans
        )
    finally:
        session.close()


# --------------------------------------------------------------------- #
# The query path (sparql, core, engine, driver)
# --------------------------------------------------------------------- #
COUNT_METRICS = [
    "engine.input_tuples_per_result_row",
    "engine.join_comparisons_per_query",
    "engine.intermediate_tuples_per_query",
    "engine.shuffled_bytes_per_query",
    "engine.broadcast_bytes_per_query",
    "engine.aqe_replans_per_query",
    "engine.vectorized_row_share",
    "store.segments_scanned_per_query",
    "store.segments_pruned_share",
]


def _count_probe(layers: Layers, results: list) -> None:
    """Exact counts of one pass, from ``QueryResult.metrics``; must repeat run to run."""

    def counts() -> Dict[str, float]:
        queries = max(len(results), 1)
        total = lambda name: sum(getattr(result.metrics, name) for result in results)  # noqa: E731
        inputs_read = total("input_tuples")
        segments = total("store_segments_scanned") + total("store_segments_pruned")
        return {
            "engine.input_tuples_per_result_row": inputs_read / max(total("output_tuples"), 1),
            "engine.join_comparisons_per_query": total("join_comparisons") / queries,
            "engine.intermediate_tuples_per_query": total("intermediate_tuples") / queries,
            "engine.shuffled_bytes_per_query": total("shuffled_bytes") / queries,
            "engine.broadcast_bytes_per_query": total("broadcast_bytes") / queries,
            "engine.aqe_replans_per_query": total("aqe_replans") / queries,
            "engine.vectorized_row_share": total("vectorized_rows") / max(inputs_read, 1),
            "store.segments_scanned_per_query": total("store_segments_scanned") / queries,
            "store.segments_pruned_share": total("store_segments_pruned") / max(segments, 1),
        }

    layers.probe(COUNT_METRICS, counts)


def _pickle_probe(layers: Layers, results: list) -> None:
    def size() -> Dict[str, float]:
        from repro.serve.workers import pack_input

        sizes = [len(pickle.dumps(pack_input(result.relation))) for result in results]
        return {"serve.result_pickle_bytes_per_query": statistics.mean(sizes)}

    layers.probe(["serve.result_pickle_bytes_per_query"], size)


STAGE_METRICS = [
    "sparql.parse_ms",
    "core.compile_ms",
    "core.tables_per_query",
    "core.extvp_pattern_share",
    "engine.plan_ms",
    "engine.execute_ms",
    "engine.decode_render_ms",
    "driver.staged_vs_direct",
]
JOURNAL_METRICS = ["obs.journal_overhead_share", "obs.journal_bytes_per_query"]


def _query_path_probe(
    layers: Layers,
    recorder: SpanRecorder,
    store: str,
    inputs: Inputs,
    tally: Tally,
    budget_s: float,
) -> List[float]:
    """Four kinds of round over the list, alternating on warm sessions.

    *untraced* and *traced* call ``session.query`` (the second inside a span:
    their difference is the tracing overhead); *staged* replaces
    ``session.query`` by its three stages, each in a span of its own; *quiet*
    runs on a second session with the journal off.  Returns each instance's
    median untraced latency.
    """
    texts = inputs.texts()
    walls: Dict[str, List[float]] = {"untraced": [], "traced": [], "quiet": []}
    untraced_ms: List[List[float]] = []
    stages: Dict[str, List[List[float]]] = {"parse": [], "compile": [], "plan": [], "execute": []}
    tables: List[int] = []
    extvp: List[int] = []
    journal_dir = os.path.join(store, "journal")
    journal_before = directory_bytes(journal_dir, skip=())

    session = repro.connect(store)
    quiet = None
    try:
        try:
            quiet = repro.connect(
                store,
                config=SessionConfig(
                    execution=ExecutionConfig(num_partitions=NUM_PARTITIONS),
                    observability=ObservabilityConfig(journal_enabled=False),
                ),
            )
        except MISSING as error:
            layers.unavailable(JOURNAL_METRICS, error)

        def direct(kind: str, on, spans: SpanRecorder) -> None:
            wall, latencies, outcomes = direct_round(on, texts, spans)
            walls[kind].append(wall)
            if kind == "untraced":
                untraced_ms.append(latencies)
            tally.check_rows(outcomes, inputs.answers, kind)

        def staged() -> None:
            from repro.engine.metrics import ExecutionMetrics

            executor = session.executor
            row: Dict[str, List[float]] = {name: [] for name in stages}
            first = not tables
            for position, text in enumerate(texts):
                with recorder.span("staged.query", request=position):
                    with recorder.span("sparql.parse") as parse:
                        parsed = session.parse(text)
                    with recorder.span("core.compile") as compile_:
                        compiled = session.compile(parsed)
                    with recorder.span("engine.execute") as execute:
                        relation = executor.execute(compiled.plan, ExecutionMetrics())
                plan_ms = min(executor.last_plan_ms, execute.ms)
                row["parse"].append(parse.ms)
                row["compile"].append(compile_.ms)
                row["plan"].append(plan_ms)
                row["execute"].append(execute.ms - plan_ms)
                tally.check_rows([len(relation)], [inputs.answers[position]], "staged")
                if first:
                    selected = compiled.selected_tables
                    tables.append(len(selected))
                    extvp.append(sum(1 for name in selected if name.startswith("extvp")))
            for name in stages:
                stages[name].append(row[name])

        _mapping_probe(layers, session)
        direct_round(session, texts)
        # The correctness gate doubles as the second warm-up pass.
        results = tally.check_bags(session.query, texts, inputs.answers, "gate")
        _count_probe(layers, results)
        _pickle_probe(layers, results)
        del results
        rounds = [
            lambda: direct("untraced", session, NULL_RECORDER),
            lambda: direct("traced", session, recorder),
        ]
        try:
            staged()
            rounds.append(staged)
        except MISSING as error:
            layers.unavailable(STAGE_METRICS, error)
        if quiet is not None:
            direct_round(quiet, texts)
            rounds.append(lambda: direct("quiet", quiet, NULL_RECORDER))
        gc.collect()
        gc.freeze()
        _timed_rounds(layers, budget_s, 2, *rounds)
        gc.unfreeze()
    finally:
        session.close()
        if quiet is not None:
            quiet.close()

    direct_ms = instance_medians(untraced_ms)
    untraced_round = statistics.median(walls["untraced"])
    if stages["parse"]:
        stage_ms = {name: instance_medians(rows) for name, rows in stages.items()}
        staged_total = [sum(cells) for cells in zip(*stage_ms.values())]
        layers.values.update(
            {
                "sparql.parse_ms": statistics.median(stage_ms["parse"]),
                "core.compile_ms": statistics.median(stage_ms["compile"]),
                "core.tables_per_query": statistics.mean(tables),
                "core.extvp_pattern_share": sum(extvp) / max(sum(tables), 1),
                "engine.plan_ms": statistics.median(stage_ms["plan"]),
                "engine.execute_ms": statistics.median(stage_ms["execute"]),
                "engine.decode_render_ms": statistics.median(
                    [direct - staged_ for direct, staged_ in zip(direct_ms, staged_total)]
                ),
                "driver.staged_vs_direct": sum(staged_total) / sum(direct_ms),
            }
        )
    if walls["quiet"]:
        journaled = (2 + len(walls["untraced"]) + len(walls["traced"])) * len(texts)
        journal_bytes = directory_bytes(journal_dir, skip=()) - journal_before
        layers.values.update(
            {
                "obs.journal_overhead_share": 1.0
                - statistics.median(walls["quiet"]) / untraced_round,
                "obs.journal_bytes_per_query": journal_bytes / journaled,
            }
        )
    layers.values.update(
        {
            "driver.round_spread": spread(walls["untraced"]),
            "driver.raw_p99_ms": percentile([ms for row in untraced_ms for ms in row], 0.99),
            "driver.trace_overhead_share": statistics.median(walls["traced"]) / untraced_round
            - 1.0,
        }
    )
    return direct_ms


# --------------------------------------------------------------------- #
# Writes (store, mappings, core)
# --------------------------------------------------------------------- #
APPEND_METRICS = [
    "store.append_ms_p50",
    "store.append_ms_max",
    "store.append_bytes_per_triple",
    "store.extvp_pairs_per_append",
    "store.delta_segments_before_compact",
    "store.compact_ms",
    "store.compact_bytes_written",
    "store.bytes_per_triple_before_compact",
    "core.first_query_after_append_ms",
]


def _append_probe(
    layers: Layers,
    recorder: SpanRecorder,
    inputs: Inputs,
    store: str,
    scratch: str,
    tally: Tally,
    budget_s: float,
) -> None:
    """Traced ``append_round``s on copies of the store (one unless budgeted)."""
    work_dir = os.path.join(scratch, "append-probe")
    batches = parse_batches(inputs)
    rounds = []
    _timed_rounds(
        layers,
        budget_s,
        1,
        lambda: rounds.append(append_round(store, work_dir, inputs, batches, tally, recorder)),
    )
    if budget_s:
        verify_post_compaction(work_dir, inputs, tally)

    def measure() -> Dict[str, float]:
        append_ms = [ms for round_ in rounds for ms in round_.append_ms]
        reports = [report for round_ in rounds for report in round_.append_reports]
        appended = sum(report.triples_appended for report in reports)
        first = [
            round_.latencies[batch * QUERIES_PER_APPEND]
            for round_ in rounds
            for batch in range(len(batches))
        ]
        last = rounds[-1]
        triples = inputs.triples + sum(inputs.append_triples)
        return {
            "store.append_ms_p50": statistics.median(append_ms),
            "store.append_ms_max": max(append_ms),
            "store.append_bytes_per_triple": sum(r.bytes_written for r in reports) / appended,
            "store.extvp_pairs_per_append": statistics.mean(r.extvp_pairs_updated for r in reports),
            "store.delta_segments_before_compact": sum(
                r.delta_segments for r in last.append_reports
            ),
            "store.compact_ms": statistics.median(round_.compact_ms for round_ in rounds),
            "store.compact_bytes_written": last.compact_report.bytes_written,
            "store.bytes_per_triple_before_compact": last.bytes_before_compact / triples,
            "core.first_query_after_append_ms": statistics.median(first),
        }

    layers.probe(APPEND_METRICS, measure)


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #
SERVE_METRICS = [
    "serve.queue_ms_p50",
    "serve.overhead_ms_p50",
    "serve.scaling",
    "serve.worker_rss_mb",
]


def _serve_probe(
    layers: Layers,
    recorder: SpanRecorder,
    inputs: Inputs,
    store: str,
    direct_ms: Sequence[float],
    tally: Tally,
    budget_s: float,
) -> None:
    """Served rounds at ``CLIENTS`` clients and at one, on process workers."""
    texts = inputs.texts()
    if inputs.workload != "serve_closed":
        texts = texts[:SERVE_PROBE_INSTANCES]
    answers = inputs.answers[: len(texts)]
    walls: Dict[int, List[float]] = {CLIENTS: [], 1: []}
    served_ms: List[List[float]] = []

    session = open_session(store, process_workers=True)
    scheduler = open_scheduler(session)
    try:
        served_round(scheduler, texts, CLIENTS)
        served_round(scheduler, texts, CLIENTS)
        gc.collect()

        def loaded() -> None:
            wall, latencies, outcomes = served_round(scheduler, texts, CLIENTS, recorder)
            walls[CLIENTS].append(wall)
            served_ms.append(latencies)
            tally.check_rows(outcomes, answers, "served")

        def single() -> None:
            wall, _, outcomes = served_round(scheduler, texts, 1)
            walls[1].append(wall)
            tally.check_rows(outcomes, answers, "served-1")

        with recorder.watching_gc():
            _timed_rounds(layers, budget_s, 2, loaded, single)
        rss = worker_rss_mb()
    finally:
        scheduler.close()
        session.close()

    collector = [span for span in recorder.spans if span.name == "python.gc"]
    requests = [span for span in recorder.spans if span.name == "serve.request"]
    for span in sorted(requests, key=lambda span: -span.ms)[:3]:
        queue = span.args.get("queue_ms") or 0.0
        worker = span.args.get("worker_ms") or 0.0
        paused = sum(
            max(0.0, min(span.end, pause.end) - max(span.start, pause.start)) * 1000.0
            for pause in collector
        )
        print(
            f"  # slowest served request {span.request}: {span.ms:.1f} ms = queue {queue:.1f} + "
            f"worker {worker:.1f} + dispatch/pickle/parent {span.ms - queue - worker:.1f} "
            f"(python.gc in the parent meanwhile: {paused:.1f} ms)"
        )

    def measure() -> Dict[str, float]:
        queue_ms = [
            span.args["queue_ms"] for span in requests if span.args.get("queue_ms") is not None
        ]
        overhead = [
            served - direct for served, direct in zip(instance_medians(served_ms), direct_ms)
        ]
        return {
            "serve.queue_ms_p50": statistics.median(queue_ms),
            "serve.overhead_ms_p50": statistics.median(overhead),
            "serve.scaling": statistics.median(walls[1]) / statistics.median(walls[CLIENTS]),
            "serve.worker_rss_mb": max(rss),
        }

    layers.probe(SERVE_METRICS, measure)
