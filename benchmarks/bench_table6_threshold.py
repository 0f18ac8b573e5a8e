"""Benchmark for Table 6 / Fig. 16: the ExtVP selectivity-factor threshold."""

import pytest

from repro.bench import run_table6_threshold
from repro.core.session import S2RDFSession


@pytest.mark.benchmark(group="table6-threshold")
def test_table6_report(benchmark, bench_dataset, report_sink):
    """Regenerate the threshold sweep and check the paper's trade-off."""
    report = benchmark.pedantic(
        run_table6_threshold,
        kwargs={"dataset": bench_dataset, "thresholds": (0.0, 0.1, 0.25, 0.5, 1.0)},
        rounds=1,
        iterations=1,
    )
    report_sink("table6_threshold", report)
    tuples = report.column("tuples")
    assert tuples == sorted(tuples)
    vp = report.row_for(threshold=0.0)["runtime_ms"]
    mid = report.row_for(threshold=0.25)["runtime_ms"]
    full = report.row_for(threshold=1.0)["runtime_ms"]
    assert full <= vp
    if vp > full:
        assert (vp - mid) / (vp - full) > 0.5


@pytest.mark.benchmark(group="table6-threshold")
@pytest.mark.parametrize("threshold", [0.1, 0.25, 1.0])
def test_threshold_build_wallclock(benchmark, bench_dataset, threshold):
    """Build cost of the ExtVP layout at different thresholds (built and laid out)."""
    def build():
        with S2RDFSession.from_graph(bench_dataset.graph, selectivity_threshold=threshold) as session:
            return session.layout

    layout = benchmark.pedantic(build, rounds=1, iterations=1)
    assert all(info.selectivity < threshold or not info.materialized for info in layout.statistics.tables.values())
