"""Benchmark for Table 2: layout build (load) times and store sizes."""

import pytest

from repro.bench import run_table2_load
from repro.core.session import S2RDFSession
from repro.mappings.vertical import VerticalPartitioningLayout


@pytest.mark.benchmark(group="table2-load")
def test_table2_report(benchmark, bench_scale, bench_seed, report_sink):
    """Regenerate the full Table 2 report (all systems, one scale factor)."""
    report = benchmark.pedantic(
        run_table2_load,
        kwargs={"scale_factors": (bench_scale,), "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    report_sink("table2_load", report)
    extvp = report.row_for(system="S2RDF ExtVP")
    vp = report.row_for(system="S2RDF VP")
    assert extvp["tuples"] > vp["tuples"]
    assert extvp["simulated_load_s"] > vp["simulated_load_s"]


@pytest.mark.benchmark(group="table2-load")
def test_vp_build_wallclock(benchmark, bench_dataset):
    """Wall-clock cost of building the plain VP layout."""
    def build():
        layout = VerticalPartitioningLayout()
        layout.build(bench_dataset.graph)
        return layout

    layout = benchmark(build)
    assert layout.total_tuples() == len(bench_dataset.graph)


@pytest.mark.benchmark(group="table2-load")
def test_extvp_build_wallclock(benchmark, bench_dataset):
    """Wall-clock cost of building and laying out the full ExtVP layout (the paper's slow load)."""
    def build():
        with S2RDFSession.from_graph(bench_dataset.graph) as session:
            return session.layout

    layout = benchmark.pedantic(build, rounds=1, iterations=1)
    assert layout.statistics.total_materialized_tuples() > 0
