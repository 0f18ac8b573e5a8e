"""Competitor systems re-implemented over the same substrate (Sec. 7 setup).

Every engine implements the :class:`~repro.baselines.base.SparqlEngine`
interface (``load`` a graph, ``query`` a SPARQL string) and returns both the
actual solution bindings and a simulated runtime derived from the work it had
to do under its own architecture's cost model:

* :class:`~repro.baselines.s2rdf_engine.S2RDFExtVPEngine` /
  :class:`~repro.baselines.s2rdf_engine.S2RDFVPEngine` — the paper's system
  over ExtVP and plain VP.
* :class:`~repro.baselines.mapreduce.ShardEngine` — SHARD's clause-iteration
  MapReduce execution (one job per triple pattern, full-data scans).
* :class:`~repro.baselines.mapreduce.PigSparqlEngine` — PigSPARQL's VP storage
  with multi-join MapReduce jobs.
* :class:`~repro.baselines.sempala.SempalaEngine` — Sempala's unified property
  table on an Impala-like MPP engine.
* :class:`~repro.baselines.hbase.H2RDFPlusEngine` — H2RDF+'s six HBase indexes
  with adaptive centralized / MapReduce execution.
* :class:`~repro.baselines.virtuoso.VirtuosoEngine` — a centralized six-index
  store (Virtuoso-like), with cold and warm cache variants.

The simulated cluster they run on lives here too: the cost models
(:mod:`~repro.baselines.cluster`) and the Parquet size model with its HDFS
namespace (:mod:`~repro.baselines.hdfs`).  S2RDF is priced the same way: the
session only counts a query's work, and
:func:`~repro.baselines.s2rdf_engine.simulated_runtime_ms` /
:func:`~repro.baselines.s2rdf_engine.hdfs_bytes` price it for the paper's
tables.
"""

from repro.baselines.base import EngineResult, LoadReport, SparqlEngine, UnsupportedQueryError
from repro.baselines.s2rdf_engine import S2RDFExtVPEngine, S2RDFVPEngine
from repro.baselines.mapreduce import PigSparqlEngine, ShardEngine
from repro.baselines.sempala import SempalaEngine
from repro.baselines.hbase import H2RDFPlusEngine
from repro.baselines.virtuoso import VirtuosoEngine

ALL_ENGINE_CLASSES = [
    S2RDFExtVPEngine,
    S2RDFVPEngine,
    H2RDFPlusEngine,
    SempalaEngine,
    PigSparqlEngine,
    ShardEngine,
    VirtuosoEngine,
]

__all__ = [
    "EngineResult",
    "LoadReport",
    "SparqlEngine",
    "UnsupportedQueryError",
    "S2RDFExtVPEngine",
    "S2RDFVPEngine",
    "PigSparqlEngine",
    "ShardEngine",
    "SempalaEngine",
    "H2RDFPlusEngine",
    "VirtuosoEngine",
    "ALL_ENGINE_CLASSES",
]
