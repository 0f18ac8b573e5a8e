"""Work-scale extrapolation.

The paper's headline experiments run on WatDiv SF10000 (≈1.09 billion
triples); this reproduction generates datasets that fit on a laptop.  All
execution *counters* (tuples scanned, shuffled, compared) are measured on the
small dataset and then multiplied by ``paper_triples / |G|`` before the cost
models convert them to simulated runtimes.  Constant costs (driver latency,
MapReduce job startup) are not scaled, exactly as they would not shrink on a
real cluster.  This keeps the measured work honest while restoring the
runtime *shape* of the paper's tables.
"""

from __future__ import annotations

from repro.rdf.graph import Graph

#: Triple count of the paper's largest dataset (WatDiv SF10000, Table 2).
PAPER_SF10000_TRIPLES = 1_091_500_000
#: Triple counts of the smaller paper datasets, for completeness.
PAPER_SF1000_TRIPLES = 109_200_000
PAPER_SF100_TRIPLES = 10_910_000
PAPER_SF10_TRIPLES = 1_080_000


def paper_work_scale(graph: Graph, paper_triples: int = PAPER_SF10000_TRIPLES) -> float:
    """Multiplier that maps this graph's counters to the paper's data scale."""
    if len(graph) == 0:
        return 1.0
    return paper_triples / len(graph)
