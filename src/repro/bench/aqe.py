"""Adaptive-query-execution benchmark: stale statistics on a skewed workload.

The scenario is the one AQE exists for: the catalog's statistics are wrong
(here, deliberately staled by a large factor after the layout is built), so
the static planner shuffles joins whose build sides are actually tiny, and
the data is skewed (one hub user is followed by everybody), so the shuffled
hub partition dominates the join's critical path.

The benchmark runs one skew-heavy WatDiv-style workload in five modes over a
single shared ExtVP layout:

* ``static`` — stale statistics, ``adaptive_enabled=False``: every join
  executes exactly as (mis-)planned.
* ``adaptive`` — the same stale statistics with AQE on: shuffles whose
  observed build side fits the broadcast threshold are demoted on the fly.
* ``adaptive_warm`` — the same session again: the first run fed observed
  cardinalities back into the catalog, so the static plan is already right
  and no replans are needed.
* ``static_shuffle_only`` / ``adaptive_shuffle_only`` — ``broadcast_threshold=0``
  isolates the skew-splitting axis: every join must shuffle, and AQE's only
  lever is subdividing the hub partition into median-sized tasks.

``speedup`` compares each row's summed join critical path against its static
counterpart (the first static row for the first three modes, the shuffle-only
static row for the last two).  ``result_tuples`` is reported so bag-equality
across modes is checkable at a glance.

Run directly (used by CI in smoke mode)::

    PYTHONPATH=src python -m repro.bench.aqe --smoke
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.bench.reporting import ExperimentReport, write_bench_json
from repro.bench.scaling import forced_exchange
from repro.core.session import S2RDFSession, SessionConfig
from repro.mappings.extvp import ExtVPLayout
from repro.rdf.graph import Graph
from repro.rdf.triple import Triple
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.schema import FOLLOWS, LIKES, EntityClass, entity_iri

#: How much the statistics lie by: every materialised table's row count is
#: multiplied by this factor, so every join side estimates far above the
#: broadcast threshold and the static planner shuffles everything.  The
#: factor is deliberately huge — even a 30-row ExtVP table must estimate
#: past Spark's 10 MB ``autoBroadcastJoinThreshold`` (~220 k rows at two
#: 24-byte columns) for the mis-plan to materialise at laptop scales.
DEFAULT_STALE_FACTOR = 1_000_000


def _skewed_graph(dataset: WatDivDataset) -> Graph:
    """Copy the WatDiv graph and make ``User0`` a hub everyone follows.

    The extra edges skew the object column of the ``follows`` table: joins on
    the followed user hash the hub's rows into one partition, which is the
    straggler the skew splitter exists for.  The hub also likes a handful of
    products so follows->likes paths produce results through it.
    """
    graph = Graph(dataset.graph, name=dataset.graph.name + "-skewed")
    hub = entity_iri(EntityClass.USER, 0)
    users = dataset.entity_counts.get(EntityClass.USER, 0)
    products = dataset.entity_counts.get(EntityClass.PRODUCT, 0)
    for index in range(1, users):
        graph.add(Triple(entity_iri(EntityClass.USER, index), FOLLOWS, hub))
    for index in range(min(10, products)):
        graph.add(Triple(hub, LIKES, entity_iri(EntityClass.PRODUCT, index)))
    return graph


def _stale_statistics(catalog, factor: int) -> None:
    """Multiply every materialised table's statistics by ``factor``.

    Scaling all row counts by one constant preserves their relative order, so
    table selection is unaffected — only the absolute size estimates (and
    with them the broadcast decisions) go wrong, which is exactly the failure
    mode of statistics collected on yesterday's much smaller dataset.
    Statistics-only entries (empty tables) keep their zero row counts so the
    compiler's static empty-result short-circuit stays correct.
    """
    for name in list(catalog.statistics_names()):
        statistics = catalog.statistics(name)
        if name in catalog and statistics.row_count > 0:
            catalog.register_statistics_only(name, statistics.row_count * factor, statistics.selectivity)


def _workload() -> List[str]:
    follows = FOLLOWS.n3()
    likes = LIKES.n3()
    return [
        # Path through the skewed join variable ?y (the hub).
        f"SELECT ?x ?z WHERE {{ ?x {follows} ?y . ?y {likes} ?z }}",
        # Two-hop follows path, skewed on both join variables.
        f"SELECT ?x ?z WHERE {{ ?x {follows} ?y . ?y {follows} ?z }}",
        # Star on ?x: unskewed control query.
        f"SELECT ?x ?y ?z WHERE {{ ?x {follows} ?y . ?x {likes} ?z }}",
    ]


def _run_workload(session: S2RDFSession, queries: Sequence[str]) -> Dict[str, float]:
    wall_ms = 0.0
    critical_ms = 0.0
    shuffle_joins = 0
    broadcast_joins = 0
    replans = 0
    skew_splits = 0
    result_tuples = 0
    # At laptop scale every join here is under the small-join bound and would
    # run inline; replanning and skew splitting only exist on the exchange path.
    with forced_exchange():
        for query_text in queries:
            start = time.perf_counter()
            result = session.query(query_text)
            wall_ms += (time.perf_counter() - start) * 1000.0
            critical_ms += result.metrics.critical_path_ms
            shuffle_joins += result.metrics.shuffle_joins
            broadcast_joins += result.metrics.broadcast_joins
            replans += result.metrics.aqe_replans
            skew_splits += result.metrics.aqe_skew_splits
            result_tuples += len(result)
    return {
        "wall_ms": wall_ms,
        "critical_path_ms": critical_ms,
        "shuffle_joins": shuffle_joins,
        "broadcast_joins": broadcast_joins,
        "replans": replans,
        "skew_splits": skew_splits,
        "result_tuples": result_tuples,
    }


def run_aqe(
    scale_factor: float = 2.0,
    seed: int = 42,
    num_partitions: int = 8,
    skew_factor: float = 2.0,
    stale_factor: int = DEFAULT_STALE_FACTOR,
    dataset: Optional[WatDivDataset] = None,
    selectivity_threshold: float = 1.0,
) -> ExperimentReport:
    """Measure adaptive vs. static execution under stale statistics and skew."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    graph = _skewed_graph(dataset)

    # One layout shared by every mode; only the execution axis varies.  The
    # static modes run first because the adaptive modes feed observed
    # cardinalities back into the shared catalog.
    layout = ExtVPLayout(selectivity_threshold=selectivity_threshold)
    layout.build(graph)
    _stale_statistics(layout.catalog, stale_factor)
    queries = _workload()

    def session_for(
        adaptive: bool,
        broadcast_threshold: Optional[int] = None,
        tracing_enabled: bool = False,
    ) -> S2RDFSession:
        config = SessionConfig.from_flat(
            selectivity_threshold=selectivity_threshold,
            num_partitions=num_partitions,
            adaptive_enabled=adaptive,
            skew_factor=skew_factor,
            tracing_enabled=tracing_enabled,
        )
        if broadcast_threshold is not None:
            config.broadcast_threshold = broadcast_threshold
        return S2RDFSession(layout, config=config)

    report = ExperimentReport(
        name="Adaptive query execution — stale statistics, skewed workload",
        description=(
            f"{len(queries)} skew-heavy queries, WatDiv-like scale factor {dataset.scale_factor:g} "
            f"plus a hub followed by all users; statistics staled x{stale_factor}; "
            f"num_partitions={num_partitions}, skew_factor={skew_factor:g}"
        ),
        columns=[
            "mode",
            "wall_ms",
            "critical_path_ms",
            "speedup",
            "shuffle_joins",
            "broadcast_joins",
            "replans",
            "skew_splits",
            "result_tuples",
        ],
    )

    def add_row(mode: str, measured: Dict[str, float], baseline_ms: float) -> None:
        critical = measured["critical_path_ms"]
        speedup = baseline_ms / critical if critical > 0 else float("inf")
        report.add_row(
            mode=mode,
            wall_ms=round(measured["wall_ms"], 1),
            critical_path_ms=round(critical, 1),
            # Text, like repro.bench.sql_backend: a ratio of two sub-10 ms
            # timings summed into the gated counters made the regression gate
            # flap (4.7 vs 9.5 between two identical smoke runs).
            speedup=f"{speedup:.2f}x",
            shuffle_joins=int(measured["shuffle_joins"]),
            broadcast_joins=int(measured["broadcast_joins"]),
            replans=int(measured["replans"]),
            skew_splits=int(measured["skew_splits"]),
            result_tuples=int(measured["result_tuples"]),
        )

    # --- default threshold: demotion axis --------------------------------- #
    with session_for(adaptive=False) as static_session:
        static = _run_workload(static_session, queries)
    with session_for(adaptive=True) as adaptive_session:
        adaptive = _run_workload(adaptive_session, queries)
        # Same session again: plans now start from observed cardinalities.
        warm = _run_workload(adaptive_session, queries)
    add_row("static", static, static["critical_path_ms"])
    add_row("adaptive", adaptive, static["critical_path_ms"])
    add_row("adaptive_warm", warm, static["critical_path_ms"])

    # --- threshold 0: skew-splitting axis (every join must shuffle) ------- #
    # The adaptive runs above cached observed cardinalities in the shared
    # catalog, but static sessions plan from the stale statistics alone by
    # construction (adaptive_enabled=False ignores the observed cache).
    with session_for(adaptive=False, broadcast_threshold=0) as static_session:
        static_shuffle = _run_workload(static_session, queries)
    with session_for(adaptive=True, broadcast_threshold=0) as adaptive_session:
        adaptive_shuffle = _run_workload(adaptive_session, queries)
    add_row("static_shuffle_only", static_shuffle, static_shuffle["critical_path_ms"])
    add_row("adaptive_shuffle_only", adaptive_shuffle, static_shuffle["critical_path_ms"])

    report.add_note(
        "critical_path_ms sums, per join, the slowest partition task.  'adaptive' demotes the "
        "mis-planned shuffles to broadcasts from observed sizes; 'adaptive_warm' shows the catalog's "
        "observed-cardinality cache removing the need to replan; the *_shuffle_only rows isolate "
        "skew splitting with broadcasts disabled."
    )
    report.add_note(
        "result_tuples must be identical in every mode: adaptivity changes schedules, never answers."
    )

    # One extra *traced* pass, outside the measured rows, so the machine-
    # readable output carries a span-level picture of the adaptive run.  A
    # fresh layout copy is not needed: tracing never changes plans, and this
    # pass runs after every measurement.
    with session_for(adaptive=True, tracing_enabled=True) as traced_session:
        _run_workload(traced_session, queries)
        report.stash["trace"] = traced_session.tracer.summary()
        report.stash["metrics"] = traced_session.metrics.snapshot()["counters"]
    return report


def main(argv: Optional[Sequence[str]] = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description="Adaptive query execution benchmark")
    parser.add_argument("--scale", type=float, default=2.0, help="WatDiv-like scale factor")
    parser.add_argument("--partitions", type=int, default=8, help="shuffle partition count")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale for CI: exercises every mode, asserts the invariants",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write machine-readable benchmarks/output/BENCH_aqe.json",
    )
    args = parser.parse_args(argv)
    scale = 0.3 if args.smoke else args.scale
    partitions = 4 if args.smoke else args.partitions
    report = run_aqe(scale_factor=scale, num_partitions=partitions)
    print(report.to_text())
    if args.json:
        print(f"wrote {write_bench_json(report, 'aqe')}")
    if args.smoke:
        tuples = {row["result_tuples"] for row in report.rows}
        assert len(tuples) == 1, f"modes disagree on results: {tuples}"
        assert report.row_for(mode="adaptive")["replans"] >= 1, "adaptive run never replanned"
        assert report.row_for(mode="adaptive_warm")["replans"] == 0, "warm run should not replan"
        print("smoke checks passed: bag-equal modes, replans observed, warm run stable")


if __name__ == "__main__":
    main()
