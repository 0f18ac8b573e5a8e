"""Benchmark for Table 5 / Fig. 15: Incremental Linear Testing."""

import pytest

from repro.bench import run_table5_incremental
from repro.core.session import S2RDFSession
from repro.watdiv.incremental_queries import incremental_template
from repro.watdiv.template import instantiate_template


@pytest.mark.benchmark(group="table5-incremental")
def test_table5_report(benchmark, bench_dataset, report_sink):
    """Regenerate the IL comparison (diameters 5-8 to keep the run short)."""
    report = benchmark.pedantic(
        run_table5_incremental,
        kwargs={"dataset": bench_dataset, "instantiations": 1, "max_diameter": 8},
        rounds=1,
        iterations=1,
    )
    report_sink("table5_incremental", report)
    for query_type in ("AM-IL-1", "AM-IL-2", "AM-IL-3"):
        row = report.row_for(query=query_type)
        assert row["S2RDF ExtVP"] < row["SHARD"]
        assert row["S2RDF ExtVP"] < row["PigSPARQL"]


@pytest.fixture(scope="module")
def extvp_session(bench_dataset):
    return S2RDFSession.from_graph(bench_dataset.graph)


@pytest.mark.benchmark(group="table5-incremental")
@pytest.mark.parametrize("diameter", [5, 6, 7, 8, 9, 10])
def test_unbound_linear_wallclock(benchmark, bench_dataset, extvp_session, diameter):
    """Wall-clock growth of the unbound IL-3 chain with increasing diameter."""
    query = instantiate_template(incremental_template(f"IL-3-{diameter}"), bench_dataset)
    result = benchmark(extvp_session.query, query)
    assert result.metrics.joins == diameter - 1 or result.statically_empty
