"""The four workloads: round functions and the end-to-end measurement.

The end-to-end path touches only the stable surface: ``repro.create``,
``repro.connect``, ``session.query / append_triples / compact / serve /
close`` and ``QueryResult.relation``, with grouped ``SessionConfig`` spellings.
Everything that reaches below that lives in :mod:`layers`.

Noise hygiene (measured on a 2-vCPU shared box, see README): one fixed replay
list per (workload, seed), two warm-up passes, ``gc.collect()`` +
``gc.freeze()`` after warm-up, ``gc.collect()`` between rounds outside the
timed window, ``time.perf_counter`` only, medians across rounds, percentiles
across query instances of each instance's round-median.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import repro
from repro import ExecutionConfig, ServingConfig, SessionConfig

from inputs import COLD_SESSIONS, Answer, Inputs, answer_of
from spans import NULL_RECORDER, SpanRecorder

NUM_PARTITIONS = 2
#: Client threads and worker processes of ``serve_closed``: the builder's box
#: has two cores, and the workload must not change shape on a larger one.
CLIENTS = min(2, os.cpu_count() or 1)
RESULT_TIMEOUT_S = 60.0
#: ``calibrate()`` on the builder's box in its usual state; timings are
#: reported as if the box always ran at this speed.
REFERENCE_CALIB_MS = 20.0


@dataclass
class Plan:
    """How long and how often one run measures."""

    seconds: float
    setups: int = 3
    cold_sessions: int = COLD_SESSIONS
    min_rounds: int = 3


@dataclass
class Tally:
    """Operations attempted / failed; a failed operation is never retried."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def check_rows(self, outcomes: Sequence[object], expected: Sequence[Answer], label: str) -> None:
        """Timed rounds verify cheaply: the row count of every outcome."""
        for position, (outcome, answer) in enumerate(zip(outcomes, expected)):
            if outcome == answer[0]:
                self.attempted += 1
            else:
                self.record(False, f"{label}[{position}]: got {outcome!r}, expected {answer[0]} rows")

    def check_bags(
        self, query: Callable[[str], object], texts: Sequence[str], expected: Sequence[Answer], label: str
    ) -> list:
        """The correctness gate: every instance's bag (row count + digest of the
        sorted rows) against the oracle's.  Returns the results that arrived."""
        results = []
        for position, (text, answer) in enumerate(zip(texts, expected)):
            try:
                result = query(text)
            except Exception as error:  # A failed operation must not end the run.
                self.record(False, f"{label}[{position}]: {type(error).__name__}: {error}")
                continue
            got = answer_of(result.relation.columns, result.relation.rows)
            self.record(got == answer, f"{label}[{position}]: got {got}, expected {answer}")
            results.append(result)
        return results


#: CPUs the benchmark may use; ``None`` where the platform cannot say.
ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def pin_thread(pinned: bool = True) -> None:
    """Pin the calling thread (and threads it creates later) to one CPU.

    Every query hands partition tasks to pool threads (~8 voluntary context
    switches per query).  On the 2-vCPU builder's box the cost of waking a
    thread on the *other* vCPU swung between runs - the same list ran at 500
    and at 340 queries/s minutes apart while single-thread code did not move -
    and under the GIL a second CPU buys these threads nothing.  Worker
    *processes* are forked unpinned (see :func:`open_session`).
    """
    if ALL_CPUS is not None:
        os.sched_setaffinity(0, {max(ALL_CPUS)} if pinned else ALL_CPUS)


def base_config() -> SessionConfig:
    return SessionConfig(execution=ExecutionConfig(num_partitions=NUM_PARTITIONS))


def open_session(path: str, process_workers: bool = False):
    """``repro.connect`` with its defaults, or on process workers (``serve_closed``)."""
    if not process_workers:
        return repro.connect(path)
    pin_thread(False)  # The workers forked by connect() inherit this: every CPU.
    try:
        return repro.connect(
            path,
            config=SessionConfig(
                execution=ExecutionConfig(
                    num_partitions=NUM_PARTITIONS,
                    execution_mode="process",
                    worker_processes=CLIENTS,
                )
            ),
        )
    finally:
        pin_thread()


def open_scheduler(session):
    return session.serve(ServingConfig(max_concurrent_queries=CLIENTS, share_results=False))


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def spread(values: Sequence[float]) -> float:
    """(p75 - p25) / median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def instance_medians(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Median latency over the rounds, per position of the round's sequence."""
    return [statistics.median(column) for column in zip(*rounds)]


_KERNEL_LEFT = [(i, f"<http://example.org/s{i * 7 % 5000}>", i % 97) for i in range(6000)]
_KERNEL_RIGHT = [(f"<http://example.org/s{i * 3 % 5000}>", f"lit {i}") for i in range(6000)]


def calibrate() -> float:
    """Milliseconds of a fixed reference kernel owned by the benchmark.

    Hash join, sort and grouped sum over tuples of strings: the interpreter
    work the engine does, on data that never changes.  The shared box drifts
    between speeds over minutes (the same replayed round took 0.26 s and 0.45 s
    a few minutes apart, and this kernel moved with it), so every timed section
    is bracketed by two calibrations and reported at the reference speed.
    """
    collecting = gc.isenabled()
    gc.disable()  # The kernel's cost must not depend on how many objects the program holds.
    try:
        for repeat in range(4):
            if repeat == 1:  # The first pass only refills the CPU caches.
                start = time.perf_counter()
            index: Dict[str, list] = {}
            for key, value in _KERNEL_RIGHT:
                index.setdefault(key, []).append(value)
            joined = [
                (key, value, weight)
                for _, key, weight in _KERNEL_LEFT
                for value in index.get(key, ())
            ]
            joined.sort()
            sums: Dict[str, int] = {}
            for key, _, weight in joined:
                sums[key] = sums.get(key, 0) + weight
        return (time.perf_counter() - start) * 1000.0
    finally:
        if collecting:
            gc.enable()


def speed_factor(*calibrations_ms: float) -> float:
    """Multiplier taking a wall time measured among these calibrations to the
    time it would have taken at the reference machine speed."""
    return REFERENCE_CALIB_MS / statistics.median(calibrations_ms)


def directory_bytes(path: str, skip: Tuple[str, ...] = ("journal",)) -> int:
    total = 0
    for root, dirs, files in os.walk(path):
        if root == path:
            dirs[:] = [d for d in dirs if d not in skip]
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def worker_rss_mb() -> List[float]:
    """``VmHWM`` of every live child process (the serve workers), in MB."""
    out = []
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        out.append(int(line.split()[1]) / 1024.0)
        except OSError:
            pass  # The worker exited between the listing and the read.
    return out


# --------------------------------------------------------------------- #
# Rounds.  Each returns the timed wall and one latency per query position;
# a failed operation yields an outcome that matches no expected row count.
# --------------------------------------------------------------------- #
def _timed_query(run: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    try:
        outcome: object = len(run().relation)
    except Exception as error:  # A failed operation must not end the run.
        outcome = f"{type(error).__name__}: {error}"
    return (time.perf_counter() - start) * 1000.0, outcome


def direct_round(session, texts: Sequence[str], recorder: SpanRecorder = NULL_RECORDER):
    latencies, outcomes = [], []
    start = time.perf_counter()
    for position, text in enumerate(texts):
        with recorder.span("session.query", request=position):
            ms, outcome = _timed_query(lambda: session.query(text))
        latencies.append(ms)
        outcomes.append(outcome)
    return time.perf_counter() - start, latencies, outcomes


def served_round(
    scheduler, texts: Sequence[str], clients: int, recorder: SpanRecorder = NULL_RECORDER
):
    """Closed loop: each client submits, waits for the reply, takes its next
    instance (index modulo client).  Callers that wait for a reply are what
    ``QueryHandle.result()`` models; an open-loop schedule on two cores shared
    with the workers would time the generator."""
    latencies: List[float] = [0.0] * len(texts)
    outcomes: List[object] = [None] * len(texts)

    def client(offset: int) -> None:
        for position in range(offset, len(texts), clients):
            with recorder.span("serve.request", request=position) as span:
                start = time.perf_counter()
                try:
                    handle = scheduler.submit(texts[position])
                    result = handle.result(timeout=RESULT_TIMEOUT_S)
                    outcomes[position] = len(result.relation)
                except Exception as error:  # A failed operation must not end the run.
                    outcomes[position] = f"{type(error).__name__}: {error}"
                latencies[position] = (time.perf_counter() - start) * 1000.0
                if span is not None and isinstance(outcomes[position], int):
                    # Where a slow request waited: admission queue, worker, or the
                    # rest (dispatch, pickle, parent-side journal).
                    span.args["queue_ms"] = getattr(handle, "queue_ms", None)
                    span.args["worker_ms"] = getattr(result, "wall_clock_ms", None)

    threads = [threading.Thread(target=client, args=(offset,)) for offset in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, outcomes


@dataclass
class AppendRound:
    wall_s: float
    latencies: List[float]
    append_ms: List[float]
    append_reports: list
    compact_ms: float
    compact_report: object
    bytes_before_compact: int
    #: Multiplier to the reference machine speed (calibrated around the timed part).
    speed: float


def append_round(
    base_dir: str,
    work_dir: str,
    inputs: Inputs,
    batches: Sequence[list],
    tally: Tally,
    recorder: SpanRecorder = NULL_RECORDER,
) -> AppendRound:
    """One write-beside-read round on a fresh copy of the store.

    Untimed: copy, connect, one warm pass.  Timed: each append batch followed
    by its queries, ``compact()``, then the whole list once.  The copy is left
    on disk (closed) for the caller to inspect.
    """
    texts = inputs.texts()
    shutil.rmtree(work_dir, ignore_errors=True)
    shutil.copytree(base_dir, work_dir)
    session = repro.connect(work_dir)
    try:
        direct_round(session, texts)
        gc.collect()
        latencies: List[float] = []
        outcomes: List[object] = []
        append_ms, reports = [], []
        calib_before = calibrate()
        start = time.perf_counter()
        for batch, triples in enumerate(batches):
            with recorder.span("session.append_triples", request=f"append-{batch}"):
                began = time.perf_counter()
                try:
                    reports.append(session.append_triples(triples))
                except Exception as error:
                    reports.append(error)
                append_ms.append((time.perf_counter() - began) * 1000.0)
            for position in inputs.interleaved_positions(batch):
                with recorder.span("session.query", request=f"after-{batch}-{position}"):
                    ms, outcome = _timed_query(lambda: session.query(texts[position]))
                latencies.append(ms)
                outcomes.append(outcome)
        bytes_before = directory_bytes(work_dir) if recorder.enabled else 0
        with recorder.span("session.compact", request="compact"):
            began = time.perf_counter()
            try:
                compact_report: object = session.compact()
            except Exception as error:
                compact_report = error
            compact_ms = (time.perf_counter() - began) * 1000.0
        _, final_latencies, final_outcomes = direct_round(session, texts, recorder)
        wall = time.perf_counter() - start
        speed = speed_factor(calib_before, calibrate())
        for batch, report in enumerate(reports):
            appended = getattr(report, "triples_appended", report)
            tally.record(
                appended == inputs.append_triples[batch],
                f"append[{batch}]: {appended!r}, expected {inputs.append_triples[batch]} triples",
            )
        tally.record(not isinstance(compact_report, Exception), f"compact: {compact_report!r}")
        after = [answer for group in inputs.answers_after_append for answer in group]
        tally.check_rows(outcomes, after, "after-append")
        tally.check_rows(final_outcomes, inputs.answers_final, "post-compaction")
    finally:
        session.close()
    return AppendRound(
        wall_s=wall,
        latencies=latencies + final_latencies,
        append_ms=append_ms,
        append_reports=reports,
        compact_ms=compact_ms,
        compact_report=compact_report,
        bytes_before_compact=bytes_before,
        speed=speed,
    )


def parse_batches(inputs: Inputs) -> List[list]:
    """Append batches as triples; parsing them is input preparation, untimed."""
    return [list(repro.parse_ntriples(text)) for text in inputs.append_batches]


def verify_post_compaction(path: str, inputs: Inputs, tally: Tally) -> None:
    """Full bag check of the post-compaction state against the cumulative graph."""
    with repro.connect(path) as session:
        tally.check_bags(session.query, inputs.texts(), inputs.answers_final, "final")


# --------------------------------------------------------------------- #
# End-to-end measurement
# --------------------------------------------------------------------- #
def cold_first_query_ms(path: str, inputs: Inputs, sessions: int, tally: Tally) -> Tuple[float, float]:
    """``repro.connect`` on a fresh session to the first result: median
    (at reference speed, raw).

    The OS cache is warm (the store was just written and read), the program's
    caches are empty.
    """
    raw, marks = [], [calibrate()]
    for position in inputs.cold_positions[:sessions]:
        start = time.perf_counter()
        session = repro.connect(path)
        try:
            _, outcome = _timed_query(lambda: session.query(inputs.queries[position][1]))
            raw.append((time.perf_counter() - start) * 1000.0)
        finally:
            session.close()
        marks.append(calibrate())
        tally.check_rows([outcome], [inputs.answers[position]], f"cold[{position}]")
    return statistics.median(raw) * speed_factor(*marks), statistics.median(raw)


def measure(inputs: Inputs, plan: Plan, scratch: str) -> Tuple[Dict[str, float], Dict[str, float], Tally]:
    """Run one workload end to end; returns (end-to-end metrics, driver notes, tally).

    Timings in the metrics are at the reference machine speed (see
    :func:`calibrate`); the notes carry the raw ones.
    """
    workload = inputs.workload
    texts = inputs.texts()
    tally = Tally()
    pin_thread()

    # Set-up: build + reopen the store several times (median), then warm the
    # session that will be measured.
    build_open_s: List[float] = []
    marks = [calibrate()]
    session = None
    for attempt in range(plan.setups):
        if session is not None:
            session.close()
        path = os.path.join(scratch, f"store-{attempt}")
        start = time.perf_counter()
        repro.create(inputs.ntriples, path=path, config=base_config()).close()
        session = open_session(path, process_workers=workload == "serve_closed")
        build_open_s.append(time.perf_counter() - start)
        marks.append(calibrate())
    build_open_scaled = statistics.median(build_open_s) * speed_factor(*marks)
    store_path = path
    scheduler = open_scheduler(session) if workload == "serve_closed" else None

    def run_round():
        if scheduler is not None:
            return served_round(scheduler, texts, CLIENTS)
        return direct_round(session, texts)

    try:
        start = time.perf_counter()
        run_round()
        run_round()
        warm_s = time.perf_counter() - start
        marks.append(calibrate())
        warm_scaled = warm_s * speed_factor(marks[-2], marks[-1])

        # Correctness gate, untimed: every instance's bag against the oracle.
        if scheduler is not None:
            tally.check_bags(
                lambda text: scheduler.submit(text).result(timeout=RESULT_TIMEOUT_S),
                texts,
                inputs.answers,
                "gate",
            )
        else:
            tally.check_bags(session.query, texts, inputs.answers, "gate")

        walls: List[float] = []
        speeds: List[float] = []
        latency_rounds: List[List[float]] = []
        loop_start = time.perf_counter()

        def more() -> bool:
            elapsed = time.perf_counter() - loop_start
            return len(walls) < plan.min_rounds or elapsed < plan.seconds

        if workload == "append_query":
            session.close()
            batches = parse_batches(inputs)
            work_dir = os.path.join(scratch, "append-round")
            while more():
                gc.collect()
                outcome = append_round(store_path, work_dir, inputs, batches, tally)
                walls.append(outcome.wall_s)
                speeds.append(outcome.speed)
                latency_rounds.append(outcome.latencies)
            verify_post_compaction(work_dir, inputs, tally)
            measured_path = work_dir
            triples = inputs.triples + sum(inputs.append_triples)
        else:
            gc.collect()
            gc.freeze()
            before = calibrate()
            while more():
                wall, latencies, outcomes = run_round()
                after = calibrate()
                gc.collect()
                walls.append(wall)
                speeds.append(speed_factor(before, after))
                latency_rounds.append(latencies)
                tally.check_rows(outcomes, inputs.answers, "round")
                before = after
            gc.unfreeze()
            measured_path = store_path
            triples = inputs.triples

        cold_ms, cold_raw_ms = cold_first_query_ms(store_path, inputs, plan.cold_sessions, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_mb += sum(worker_rss_mb())
    finally:
        if scheduler is not None:
            scheduler.close()
        session.close()

    query_count = len(latency_rounds[0])
    scaled_walls = [wall * speed for wall, speed in zip(walls, speeds)]
    medians = instance_medians(
        [[ms * speed for ms in row] for row, speed in zip(latency_rounds, speeds)]
    )
    metrics = {
        "setup_s": build_open_scaled + warm_scaled,
        "cold_first_query_ms": cold_ms,
        "queries_per_s": query_count / statistics.median(scaled_walls),
        "query_p50_ms": statistics.median(medians),
        "query_p90_ms": percentile(medians, 0.90),
        "peak_rss_mb": rss_mb,
        "store_bytes_per_triple": directory_bytes(measured_path) / triples,
    }
    raw_medians = instance_medians(latency_rounds)
    notes = {
        "driver.calib_ms": REFERENCE_CALIB_MS / statistics.median(speeds),
        "driver.round_spread": spread(walls),
        "driver.raw_p99_ms": percentile([ms for row in latency_rounds for ms in row], 0.99),
        "raw.setup_s": statistics.median(build_open_s) + warm_s,
        "raw.cold_first_query_ms": cold_raw_ms,
        "raw.queries_per_s": query_count / statistics.median(walls),
        "raw.query_p50_ms": statistics.median(raw_medians),
        "raw.query_p90_ms": percentile(raw_medians, 0.90),
        "rounds": float(len(walls)),
        "query_positions": float(query_count),
        "instances_beyond_p90": float(sum(1 for ms in medians if ms > metrics["query_p90_ms"])),
        "timed_s": sum(walls),
    }
    return metrics, notes, tally
