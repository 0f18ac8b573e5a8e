"""Ablation experiments for the design choices DESIGN.md calls out.

* Join-order optimisation (Algorithm 4 vs Algorithm 3): compare intermediate
  result sizes and simulated runtimes with and without the size-based ordering
  (the paper motivates this with query Q1 / Fig. 12).
* OO correlations: the paper chooses not to materialise OO ExtVP tables
  because they rarely reduce anything; the ablation materialises them and
  measures how many would be stored and how much they would shrink VP.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.s2rdf_engine import simulated_runtime_ms
from repro.bench.reporting import ExperimentReport
from repro.core.session import S2RDFSession
from repro.mappings.extvp import CorrelationKind, correlation_keys
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.template import instantiate_template


def run_join_order_ablation(
    scale_factor: float = 2.0,
    seed: int = 42,
    dataset: Optional[WatDivDataset] = None,
    template_names: Optional[Sequence[str]] = None,
) -> ExperimentReport:
    """Algorithm 4 (size-ordered joins) versus Algorithm 3 (textual order)."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    optimized = S2RDFSession.from_graph(dataset.graph, optimize_join_order=True)
    unoptimized = S2RDFSession.from_graph(dataset.graph, optimize_join_order=False)

    report = ExperimentReport(
        name="Ablation — join order optimisation (Algorithm 4 vs Algorithm 3)",
        description=f"Intermediate tuples and simulated runtime with and without size-based join ordering, SF {dataset.scale_factor:g}",
        columns=[
            "query",
            "optimized_ms",
            "unoptimized_ms",
            "optimized_intermediate",
            "unoptimized_intermediate",
            "intermediate_ratio",
            "results",
        ],
    )
    templates = BASIC_TEMPLATES + [t for t in INCREMENTAL_TEMPLATES if t.name.endswith("-5")]
    for template in templates:
        if template_names is not None and template.name not in template_names:
            continue
        query_text = instantiate_template(template, dataset)
        optimized_result = optimized.query(query_text)
        unoptimized_result = unoptimized.query(query_text)
        if len(optimized_result) != len(unoptimized_result):
            raise AssertionError(f"{template.name}: join order changed the result size")
        ratio = (
            optimized_result.metrics.intermediate_tuples / unoptimized_result.metrics.intermediate_tuples
            if unoptimized_result.metrics.intermediate_tuples
            else 1.0
        )
        report.add_row(
            query=template.name,
            optimized_ms=round(simulated_runtime_ms(optimized_result.metrics), 2),
            unoptimized_ms=round(simulated_runtime_ms(unoptimized_result.metrics), 2),
            optimized_intermediate=optimized_result.metrics.intermediate_tuples,
            unoptimized_intermediate=unoptimized_result.metrics.intermediate_tuples,
            intermediate_ratio=round(ratio, 3),
            results=len(optimized_result),
        )
    report.add_note("Expected shape: the optimised order never produces more intermediate tuples than the textual order.")
    return report


def run_oo_correlation_ablation(
    scale_factor: float = 2.0,
    seed: int = 42,
    dataset: Optional[WatDivDataset] = None,
) -> ExperimentReport:
    """Quantify what materialising OO correlation tables would buy (Sec. 5.2)."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    with S2RDFSession.from_graph(dataset.graph, include_oo=True) as session:
        statistics = session.layout.statistics
        keys = correlation_keys(session.layout.predicates(), include_oo=True)

    report = ExperimentReport(
        name="Ablation — OO correlation tables",
        description=(
            f"Size and selectivity statistics of the OO ExtVP tables the paper chooses not to build, SF {dataset.scale_factor:g}"
        ),
        columns=["kind", "tables_total", "tables_materialized", "tables_empty", "tuples", "mean_selectivity"],
    )
    for kind in (CorrelationKind.SS, CorrelationKind.OS, CorrelationKind.SO, CorrelationKind.OO):
        # The statistics hold the correlations with rows; the others are empty.
        non_empty = [info for info in statistics.tables.values() if info.kind == kind]
        materialized = [info for info in non_empty if info.materialized]
        total = sum(1 for key in keys if key[0] == kind)
        mean_selectivity = (
            sum(info.selectivity for info in non_empty) / len(non_empty) if non_empty else 0.0
        )
        report.add_row(
            kind=kind.value.upper(),
            tables_total=total,
            tables_materialized=len(materialized),
            tables_empty=total - len(non_empty),
            tuples=sum(info.row_count for info in materialized),
            mean_selectivity=round(mean_selectivity, 3),
        )
    report.add_note(
        "Expected shape: OO tables have selectivities close to 1 (or are self-join duplicates), confirming the "
        "paper's decision to skip them."
    )
    return report
