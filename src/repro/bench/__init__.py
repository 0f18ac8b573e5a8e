"""Experiment harness: the paper's evaluation, one module per table.

Tables 2-6 of Sec. 7 (load time and size, selectivity testing, Basic,
Incremental Linear, SF threshold) plus two ablations.  Each experiment
returns an :class:`~repro.bench.reporting.ExperimentReport` whose rows mirror
the paper's table rows and can be printed with ``report.to_text()``.  The
``benchmarks/bench_*.py`` wrappers run them under pytest-benchmark and write
the rendered tables to ``benchmarks/output/``.  Performance of the system
itself is measured by ``benchmarks/suite/``, not here.
"""

from repro.bench.reporting import ExperimentReport, arithmetic_mean, format_runtime, geometric_mean
from repro.bench.table2_load import run_table2_load
from repro.bench.table3_selectivity import run_table3_selectivity
from repro.bench.table4_basic import run_table4_basic
from repro.bench.table5_incremental import run_table5_incremental
from repro.bench.table6_threshold import run_table6_threshold
from repro.bench.ablations import run_join_order_ablation, run_oo_correlation_ablation

__all__ = [
    "ExperimentReport",
    "arithmetic_mean",
    "geometric_mean",
    "format_runtime",
    "run_table2_load",
    "run_table3_selectivity",
    "run_table4_basic",
    "run_table5_incremental",
    "run_table6_threshold",
    "run_join_order_ablation",
    "run_oo_correlation_ablation",
]
