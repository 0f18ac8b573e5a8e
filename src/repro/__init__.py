"""Reproduction of *S2RDF: RDF Querying with SPARQL on Spark* (VLDB 2016).

The package is organised as follows:

* :mod:`repro.rdf` — RDF data model (terms, triples, graphs, N-Triples I/O).
* :mod:`repro.sparql` — SPARQL parser, algebra and shape analysis.
* :mod:`repro.engine` — the relational substrate standing in for Spark SQL.
* :mod:`repro.mappings` — relational RDF layouts: triples table, VP,
  property table and the paper's ExtVP.
* :mod:`repro.core` — the S2RDF query processor (table selection, SPARQL to
  SQL compilation, join-order optimisation, session API).
* :mod:`repro.baselines` — re-implementations of the systems the paper
  compares against (SHARD, PigSPARQL, Sempala, H2RDF+, Virtuoso).
* :mod:`repro.watdiv` — a WatDiv-like data generator and the paper's query
  workloads (Basic Testing, Selectivity Testing, Incremental Linear Testing).
* :mod:`repro.bench` — the experiment harness that regenerates Tables 2-6 of
  the paper's evaluation section (the system's own performance is measured
  by ``benchmarks/suite/``).
"""

from repro.rdf import Graph, IRI, Literal, Triple, parse_ntriples
from repro.sparql import parse_query
from repro.core import (
    ExecutionConfig,
    ObservabilityConfig,
    QueryResult,
    S2RDFSession,
    ServingConfig,
    SessionConfig,
    StoreConfig,
)
from repro.api import connect, create

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "IRI",
    "Literal",
    "Triple",
    "parse_ntriples",
    "parse_query",
    "QueryResult",
    "S2RDFSession",
    "SessionConfig",
    "ExecutionConfig",
    "StoreConfig",
    "ObservabilityConfig",
    "ServingConfig",
    "connect",
    "create",
    "__version__",
]
