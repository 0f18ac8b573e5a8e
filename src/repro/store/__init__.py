"""Persistent columnar dataset store.

S2RDF keeps its VP/ExtVP tables as Parquet files on HDFS so that a query
cluster can come up against an existing dataset without re-ingesting the RDF
source.  This package is the reproduction's equivalent: a real on-disk format
(dataset-wide term dictionary, one append-only file of run-length-encoded
column segments per VP table, per-segment zone maps, hash-bucketed
partitions, and every ExtVP table as bitmaps over its VP table's rows) plus
the writer that builds and grows a dataset from triples, the reader that
opens it, and the read-only view the query compiler reads it through.

* :mod:`repro.store.format` — directory layout, segment codec, manifest.
* :mod:`repro.store.writer` — one write path: :class:`DatasetWriter` (a
  build, which is an append to an empty store), :class:`DatasetAppender`
  (incremental delta segments) and :class:`DatasetCompactor` (delta
  merge-back).
* :mod:`repro.store.reader` — :func:`open_dataset`, lazy stored tables with
  projection/predicate pushdown and bucket pruning, base+delta merged
  scans, ExtVP tables as views of their VP table
  (:class:`StoredSelection`); :class:`StoredDataset` is the opened state a
  session keeps resident and its appender/compactor work on in place;
  :func:`register_dataset` registers a freshly opened one,
  :func:`register_changes` re-registers what one mutation touched,
  :func:`refresh_dataset` re-reads everything.
* :mod:`repro.store.view` — :class:`StoreView`, the catalog plus the live
  manifest: VP table names and sizes and the ExtVP statistics, as the
  compiler asks for them.

Sessions use it through :meth:`repro.core.session.S2RDFSession.save_dataset`,
:meth:`~repro.core.session.S2RDFSession.open_dataset`,
:meth:`~repro.core.session.S2RDFSession.append_triples` and
:meth:`~repro.core.session.S2RDFSession.compact`.
"""

from repro.store.format import (
    DatasetFormatError,
    FORMAT_VERSION,
    Manifest,
    StoredTermDictionary,
    read_manifest,
)
from repro.store.reader import (
    DatasetLoadReport,
    StoredDataset,
    StoredSelection,
    StoredTable,
    open_dataset,
    refresh_dataset,
    register_changes,
    register_dataset,
)
from repro.store.view import StoreView
from repro.store.writer import (
    CompactionReport,
    DatasetAppender,
    DatasetAppendReport,
    DatasetCompactor,
    DatasetWriteReport,
    DatasetWriter,
)

__all__ = [
    "CompactionReport",
    "DatasetAppender",
    "DatasetAppendReport",
    "DatasetCompactor",
    "DatasetFormatError",
    "DatasetLoadReport",
    "DatasetWriteReport",
    "DatasetWriter",
    "FORMAT_VERSION",
    "Manifest",
    "StoredDataset",
    "StoredSelection",
    "StoredTable",
    "StoredTermDictionary",
    "StoreView",
    "open_dataset",
    "read_manifest",
    "refresh_dataset",
    "register_changes",
    "register_dataset",
]
