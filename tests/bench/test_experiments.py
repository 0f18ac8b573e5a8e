"""Integration tests for the experiment harness: every paper table/figure can
be regenerated at a tiny scale and shows the expected qualitative shape."""

import pathlib

import pytest

from repro.bench import (
    run_join_order_ablation,
    run_oo_correlation_ablation,
    run_table2_load,
    run_table3_selectivity,
    run_table4_basic,
    run_table5_incremental,
    run_table6_threshold,
)
from repro.bench.reporting import ExperimentReport, arithmetic_mean, format_runtime, geometric_mean
from repro.bench.scaling import paper_work_scale
from repro.watdiv.generator import generate_dataset

#: Where the benchmark wrappers write the reports they regenerate.
OUTPUT_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"


def table_cells(text):
    """The rows of a report rendered by ``ExperimentReport.to_text``, as
    ``{column: cell}`` dicts of the cells' text."""
    lines = text.splitlines()
    header = next(index for index, line in enumerate(lines) if " | " in line)
    columns = [cell.strip() for cell in lines[header].split(" | ")]
    return [
        dict(zip(columns, (cell.strip() for cell in line.split(" | "))))
        for line in lines[header + 2 :]
        if " | " in line
    ]


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(scale_factor=1.0, seed=11)


class TestReporting:
    def test_arithmetic_mean_ignores_failures(self):
        assert arithmetic_mean([1.0, 3.0, float("inf")]) == 2.0
        assert arithmetic_mean([float("inf")]) == float("inf")

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_format_runtime(self):
        assert format_runtime(float("inf")) == "F"
        assert format_runtime(1234.6) == "1235"
        assert format_runtime(12.34) == "12.3"

    def test_report_rendering_and_lookup(self):
        report = ExperimentReport("name", "desc", ["a", "b"])
        report.add_row(a=1, b="x")
        report.add_note("hello")
        text = report.to_text()
        assert "name" in text and "hello" in text
        assert report.row_for(a=1)["b"] == "x"
        assert report.row_for(a=2) is None

    def test_paper_work_scale(self, dataset):
        scale = paper_work_scale(dataset.graph)
        assert scale > 1000


class TestTable2:
    def test_rows_and_extvp_overhead(self, dataset):
        report = run_table2_load(scale_factors=(1.0,), seed=11)
        systems = report.column("system")
        assert "S2RDF ExtVP" in systems and "S2RDF VP" in systems and "SHARD" in systems
        extvp = report.row_for(system="S2RDF ExtVP")
        vp = report.row_for(system="S2RDF VP")
        assert extvp["tuples"] > vp["tuples"]
        assert extvp["simulated_load_s"] > vp["simulated_load_s"]
        assert extvp["tables"] > vp["tables"]

    def test_committed_table_regenerates(self):
        """``benchmarks/output/table2_load.txt`` is what ``run_table2_load``
        gives at its scale factor (2) and seed (42): every cell but the wall
        clock, the ExtVP row's tuples and tables included."""
        committed = (OUTPUT_DIR / "table2_load.txt").read_text(encoding="utf-8")
        report = run_table2_load(scale_factors=(2.0,), seed=42)
        expected, regenerated = table_cells(committed), table_cells(report.to_text())
        assert [row["system"] for row in regenerated] == [row["system"] for row in expected]
        for row in expected + regenerated:
            del row["wallclock_s"]
        assert regenerated == expected
        extvp = next(row for row in regenerated if row["system"] == "S2RDF ExtVP")
        assert (extvp["tuples"], extvp["tables"]) == ("58651", "1015")


class TestTable3:
    @pytest.fixture(scope="class")
    def report(self, dataset):
        return run_table3_selectivity(dataset=dataset)

    def test_all_st_queries_present(self, report):
        assert len([r for r in report.rows if r["query"].startswith("ST-")]) == 20

    def test_speedup_grows_as_selectivity_drops(self, report):
        low_sf = report.row_for(query="ST-1-3")["speedup"]
        high_sf = report.row_for(query="ST-1-1")["speedup"]
        assert low_sf > high_sf
        assert low_sf > 3.0

    def test_empty_result_queries_short_circuit(self, report):
        for name in ("ST-8-1", "ST-8-2"):
            row = report.row_for(query=name)
            assert row["results"] == 0
            assert row["extvp_input_tuples"] == 0
            assert row["speedup"] > 5.0

    def test_extvp_never_reads_more_than_vp(self, report):
        for row in report.rows:
            assert row["extvp_input_tuples"] <= row["vp_input_tuples"]


class TestTable4:
    @pytest.fixture(scope="class")
    def report(self, dataset):
        return run_table4_basic(dataset=dataset, instantiations=1)

    def test_per_query_and_aggregate_rows(self, report):
        queries = report.column("query")
        assert "L1" in queries and "C3" in queries
        assert "AM-T" in queries and "AM-S" in queries

    def test_s2rdf_extvp_wins_overall(self, report):
        total = report.row_for(query="AM-T")
        assert total["S2RDF ExtVP"] <= total["S2RDF VP"]
        assert total["S2RDF ExtVP"] < total["Sempala"]
        assert total["S2RDF ExtVP"] < total["PigSPARQL"]
        assert total["S2RDF ExtVP"] < total["SHARD"]

    def test_mapreduce_orders_of_magnitude_slower(self, report):
        total = report.row_for(query="AM-T")
        assert total["SHARD"] > 50 * total["S2RDF ExtVP"]
        assert total["PigSPARQL"] > 10 * total["S2RDF ExtVP"]


class TestTable5:
    @pytest.fixture(scope="class")
    def report(self, dataset):
        return run_table5_incremental(
            dataset=dataset, instantiations=1, query_types=("IL-1", "IL-2"), max_diameter=7
        )

    def test_rows_present(self, report):
        assert report.row_for(query="IL-1-5") is not None
        assert report.row_for(query="AM-IL-1") is not None

    def test_s2rdf_beats_mapreduce_on_linear_paths(self, report):
        for query_type in ("AM-IL-1", "AM-IL-2"):
            row = report.row_for(query=query_type)
            assert row["S2RDF ExtVP"] < row["PigSPARQL"]
            assert row["S2RDF ExtVP"] < row["SHARD"]

    def test_mapreduce_grows_with_diameter(self, report):
        short = report.row_for(query="IL-1-5")["SHARD"]
        long = report.row_for(query="IL-1-7")["SHARD"]
        assert long > short


class TestTable6:
    @pytest.fixture(scope="class")
    def report(self, dataset):
        return run_table6_threshold(dataset=dataset, thresholds=(0.0, 0.25, 1.0))

    def test_storage_grows_with_threshold(self, report):
        tuples = report.column("tuples")
        assert tuples == sorted(tuples)

    def test_threshold_025_captures_most_benefit(self, report):
        vp = report.row_for(threshold=0.0)
        mid = report.row_for(threshold=0.25)
        full = report.row_for(threshold=1.0)
        assert full["runtime_ms"] <= vp["runtime_ms"]
        total_gain = vp["runtime_ms"] - full["runtime_ms"]
        captured = vp["runtime_ms"] - mid["runtime_ms"]
        if total_gain > 0:
            assert captured / total_gain > 0.5
        assert mid["tuples"] < full["tuples"]


class TestAblations:
    def test_join_order_never_worse(self, dataset):
        report = run_join_order_ablation(dataset=dataset, template_names=("C2", "C3", "F3", "IL-1-5"))
        for row in report.rows:
            assert row["optimized_intermediate"] <= row["unoptimized_intermediate"]

    def test_oo_tables_rarely_helpful(self, dataset):
        report = run_oo_correlation_ablation(dataset=dataset)
        oo = report.row_for(kind="OO")
        os_row = report.row_for(kind="OS")
        assert oo is not None and os_row is not None
        # OO correlations reduce less than OS correlations on average.
        assert oo["mean_selectivity"] >= os_row["mean_selectivity"] - 0.05
