"""Relational engine substrate (the Spark SQL stand-in).

The paper executes SPARQL queries by compiling them to Spark SQL over tables
stored in HDFS/Parquet.  This package provides the equivalent substrate for a
single machine:

* :class:`~repro.engine.relation.Relation` — a column-named bag of tuples of
  terms: a decoded result, and the row operators (project/rename, selection,
  natural join, left outer join, union, distinct, order by, limit,
  aggregation) that run above an operator without an id kernel.
* :class:`~repro.engine.vectorized.ColumnBatch` — dictionary-id columns with
  a selection vector: what every scan yields and what the kernels run on.
* :class:`~repro.engine.metrics.ExecutionMetrics` — counters (tuples scanned,
  tuples shuffled, join comparisons, stages) collected during execution.
* :mod:`~repro.engine.ops` — a logical plan layer with a SQL pretty-printer,
  so the S2RDF compiler genuinely produces "SQL" as in the paper;
  :class:`~repro.engine.plan.PlanExecutor`, the one engine, executes it in
  process, scanning stored tables only.
* :class:`~repro.engine.catalog.Catalog` — the table store with statistics:
  a layout's build registers relations of terms, and a session serves every
  table from the columnar store (:mod:`repro.store`) instead.
* :mod:`~repro.engine.storage` — the store's column page codec: run-length
  encoded id pages and their zone maps.
* :mod:`~repro.engine.estimates` — per-operator row estimates from the
  catalog's statistics, which the journal's q-error and ``explain_analyze``
  read; every join runs in process as one probe loop
  (:meth:`~repro.engine.vectorized.ColumnBatch.natural_join`).
"""

from repro.engine.relation import Relation
from repro.engine.metrics import ExecutionMetrics
from repro.engine.catalog import Catalog, TableStatistics
from repro.engine.ops import (
    DistinctNode,
    EmptyNode,
    FilterNode,
    LeftOuterJoinNode,
    LimitNode,
    NaturalJoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    SubqueryNode,
    TableScanNode,
    UnionNode,
)
from repro.engine.plan import PlanExecutor
from repro.engine.estimates import RowEstimates

__all__ = [
    "Relation",
    "ExecutionMetrics",
    "Catalog",
    "TableStatistics",
    "DistinctNode",
    "EmptyNode",
    "FilterNode",
    "LeftOuterJoinNode",
    "LimitNode",
    "NaturalJoinNode",
    "OrderByNode",
    "PlanExecutor",
    "PlanNode",
    "ProjectNode",
    "SubqueryNode",
    "TableScanNode",
    "UnionNode",
    "RowEstimates",
]
