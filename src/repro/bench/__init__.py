"""Experiment harness: one module per table / figure of the paper's evaluation.

Each experiment returns an :class:`~repro.bench.reporting.ExperimentReport`
whose rows mirror the paper's table rows (or figure series) and can be printed
with ``report.to_text()``.  The ``benchmarks/`` directory wraps these
experiments with pytest-benchmark entry points; ``EXPERIMENTS.md`` records the
measured outcomes next to the paper's numbers.
"""

from repro.bench.reporting import ExperimentReport, arithmetic_mean, format_runtime, geometric_mean
from repro.bench.regression import RegressionReport, compare_directories, compare_reports
from repro.bench.aqe import run_aqe
from repro.bench.incremental_store import run_incremental_store
from repro.bench.partition_scaling import run_partition_scaling
from repro.bench.persistence import run_persistence
from repro.bench.serving import run_serving
from repro.bench.sql_backend import run_sql_backend
from repro.bench.table2_load import run_table2_load
from repro.bench.table3_selectivity import run_table3_selectivity
from repro.bench.table4_basic import run_table4_basic
from repro.bench.table5_incremental import run_table5_incremental
from repro.bench.table6_threshold import run_table6_threshold
from repro.bench.ablations import run_join_order_ablation, run_oo_correlation_ablation

__all__ = [
    "ExperimentReport",
    "RegressionReport",
    "compare_directories",
    "compare_reports",
    "arithmetic_mean",
    "geometric_mean",
    "format_runtime",
    "run_aqe",
    "run_incremental_store",
    "run_partition_scaling",
    "run_persistence",
    "run_serving",
    "run_sql_backend",
    "run_table2_load",
    "run_table3_selectivity",
    "run_table4_basic",
    "run_table5_incremental",
    "run_table6_threshold",
    "run_join_order_ablation",
    "run_oo_correlation_ablation",
]
