"""Table 2: load times, tuple counts and storage sizes per system and scale.

The paper reports, for every WatDiv scale factor, the number of tuples and the
HDFS footprint of the original data, VP, ExtVP and the competitor systems,
plus load times.  This experiment regenerates the same rows at laptop scale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines import (
    H2RDFPlusEngine,
    PigSparqlEngine,
    S2RDFExtVPEngine,
    S2RDFVPEngine,
    SempalaEngine,
    ShardEngine,
)
from repro.baselines.hdfs import HdfsSimulator
from repro.bench.reporting import ExperimentReport
from repro.engine.relation import Relation
from repro.watdiv.generator import generate_dataset


def run_table2_load(
    scale_factors: Sequence[float] = (1.0, 2.0, 4.0),
    seed: int = 42,
    engines: Optional[List] = None,
    selectivity_threshold: float = 1.0,
) -> ExperimentReport:
    """Regenerate Table 2 at the given scale factors."""
    report = ExperimentReport(
        name="Table 2 — load times and store sizes",
        description=(
            "Tuples, simulated HDFS size and load time per layout/system and scale factor "
            "(paper: WatDiv SF10..SF10000; here: scaled-down WatDiv-like data)"
        ),
        columns=[
            "scale_factor",
            "triples",
            "system",
            "tuples",
            "tables",
            "hdfs_bytes",
            "simulated_load_s",
            "wallclock_s",
        ],
    )
    for scale_factor in scale_factors:
        dataset = generate_dataset(scale_factor=scale_factor, seed=seed)
        graph = dataset.graph

        # The "original" row: the dataset in N-Triples text form.
        hdfs = HdfsSimulator()
        triples_relation = Relation(("s", "p", "o"), ((t.subject, t.predicate, t.object) for t in graph))
        original = hdfs.write_text("original/dataset.nt", triples_relation)
        report.add_row(
            scale_factor=scale_factor,
            triples=len(graph),
            system="original (N-Triples)",
            tuples=len(graph),
            tables=1,
            hdfs_bytes=original.size_bytes,
            simulated_load_s=0.0,
            wallclock_s=0.0,
        )

        engine_instances = engines if engines is not None else [
            S2RDFVPEngine(),
            S2RDFExtVPEngine(selectivity_threshold=selectivity_threshold),
            H2RDFPlusEngine(),
            SempalaEngine(),
            PigSparqlEngine(),
            ShardEngine(),
        ]
        for engine in engine_instances:
            load = engine.load(graph)
            report.add_row(
                scale_factor=scale_factor,
                triples=len(graph),
                system=load.engine,
                tuples=load.tuples_stored,
                tables=load.table_count,
                hdfs_bytes=load.hdfs_bytes,
                simulated_load_s=round(load.simulated_load_seconds, 3),
                wallclock_s=round(load.wallclock_seconds, 3),
            )
    report.add_note(
        "Expected shape: ExtVP stores an order of magnitude more tuples than VP and its "
        "load time dominates every other system, mirroring the paper's Table 2."
    )
    return report
