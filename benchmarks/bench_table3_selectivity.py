"""Benchmark for Table 3 / Fig. 13: Selectivity Testing (ExtVP vs VP)."""

import pytest

from repro.bench import run_table3_selectivity
from repro.core.session import S2RDFSession
from repro.watdiv.selectivity_queries import selectivity_template
from repro.watdiv.template import instantiate_template


@pytest.mark.benchmark(group="table3-selectivity")
def test_table3_report(benchmark, bench_dataset, report_sink):
    """Regenerate the full ST comparison and check the paper's shape."""
    report = benchmark.pedantic(run_table3_selectivity, kwargs={"dataset": bench_dataset}, rounds=1, iterations=1)
    report_sink("table3_selectivity", report)
    assert report.row_for(query="ST-1-3")["speedup"] > report.row_for(query="ST-1-1")["speedup"]
    assert report.row_for(query="ST-8-2")["extvp_input_tuples"] == 0


@pytest.fixture(scope="module")
def sessions(bench_dataset):
    extvp = S2RDFSession.from_graph(bench_dataset.graph, use_extvp=True)
    vp = S2RDFSession.from_graph(bench_dataset.graph, use_extvp=False)
    return extvp, vp


@pytest.mark.benchmark(group="table3-selectivity")
@pytest.mark.parametrize("query_name", ["ST-1-3", "ST-3-3", "ST-6-1", "ST-8-2"])
def test_extvp_query_wallclock(benchmark, bench_dataset, sessions, query_name):
    """Wall-clock execution of representative ST queries on ExtVP."""
    extvp, _ = sessions
    query = instantiate_template(selectivity_template(query_name), bench_dataset)
    result = benchmark(extvp.query, query)
    # ST-8-x queries are answered from statistics alone (zero stages).
    assert result.statically_empty or result.metrics.stages >= 1


@pytest.mark.benchmark(group="table3-selectivity")
@pytest.mark.parametrize("query_name", ["ST-1-3", "ST-3-3"])
def test_vp_query_wallclock(benchmark, bench_dataset, sessions, query_name):
    """The same queries on plain VP (reads more input tuples)."""
    _, vp = sessions
    query = instantiate_template(selectivity_template(query_name), bench_dataset)
    result = benchmark(vp.query, query)
    assert result.metrics.input_tuples > 0
