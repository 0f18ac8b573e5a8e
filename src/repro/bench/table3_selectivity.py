"""Table 3 / Figure 13: Selectivity Testing — ExtVP versus VP in S2RDF.

For every ST query the experiment reports the simulated runtime on ExtVP and
on plain VP, the speedup, and the input-tuple reduction, grouped the way
Fig. 13 groups the queries (varying OS / SO / SS selectivity, high-selectivity
queries, OS-vs-SO choice and empty-result queries).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.s2rdf_engine import simulated_runtime_ms
from repro.bench.reporting import ExperimentReport
from repro.bench.scaling import PAPER_SF10000_TRIPLES, paper_work_scale
from repro.core.session import S2RDFSession
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES
from repro.watdiv.template import instantiate_template


def run_table3_selectivity(
    scale_factor: float = 4.0,
    seed: int = 42,
    dataset: Optional[WatDivDataset] = None,
    query_names: Optional[Sequence[str]] = None,
    paper_triples: int = PAPER_SF10000_TRIPLES,
) -> ExperimentReport:
    """Regenerate Table 3 / Fig. 13 (ExtVP vs VP on the ST workload)."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    work_scale = paper_work_scale(dataset.graph, paper_triples)
    extvp_session = S2RDFSession.from_graph(dataset.graph, selectivity_threshold=1.0, use_extvp=True)
    vp_session = S2RDFSession.from_graph(dataset.graph, use_extvp=False)

    report = ExperimentReport(
        name="Table 3 / Fig. 13 — WatDiv Selectivity Testing (ExtVP vs VP)",
        description=f"Simulated runtimes of the ST queries on ExtVP and VP, scale factor {dataset.scale_factor:g}",
        columns=[
            "query",
            "category",
            "extvp_ms",
            "vp_ms",
            "speedup",
            "extvp_input_tuples",
            "vp_input_tuples",
            "input_reduction",
            "results",
        ],
    )

    for template in SELECTIVITY_TEMPLATES:
        if query_names is not None and template.name not in query_names:
            continue
        query_text = instantiate_template(template, dataset)
        extvp_result = extvp_session.query(query_text)
        vp_result = vp_session.query(query_text)
        if len(extvp_result) != len(vp_result):
            raise AssertionError(
                f"{template.name}: ExtVP and VP disagree ({len(extvp_result)} vs {len(vp_result)} rows)"
            )
        extvp_ms = simulated_runtime_ms(extvp_result.metrics, work_scale)
        vp_ms = simulated_runtime_ms(vp_result.metrics, work_scale)
        speedup = vp_ms / extvp_ms if extvp_ms > 0 else float("inf")
        reduction = (
            extvp_result.metrics.input_tuples / vp_result.metrics.input_tuples
            if vp_result.metrics.input_tuples
            else 0.0
        )
        report.add_row(
            query=template.name,
            category=template.category,
            extvp_ms=round(extvp_ms, 2),
            vp_ms=round(vp_ms, 2),
            speedup=round(speedup, 2),
            extvp_input_tuples=extvp_result.metrics.input_tuples,
            vp_input_tuples=vp_result.metrics.input_tuples,
            input_reduction=round(reduction, 3),
            results=len(extvp_result),
        )
    report.add_note(
        "Expected shape: the lower the ExtVP selectivity factor of the probed correlation, the larger the "
        "ExtVP speedup (ST-1-3 and ST-3-3 benefit most); ST-8-x run in ~0 work thanks to statistics."
    )
    return report
