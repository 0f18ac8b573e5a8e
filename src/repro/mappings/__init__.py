"""Relational mappings for RDF (Sec. 4 and Sec. 5 of the paper).

* :mod:`repro.mappings.naming` — the names of the triples table, the VP
  tables (one two-column table per predicate, Sec. 4.2) and the ExtVP
  tables.
* :mod:`repro.mappings.extvp` — the paper's contribution: the semi-join
  reductions of the VP tables for SS/OS/SO correlations with an optional
  selectivity-factor threshold (Sec. 5), maintained in dictionary-id space
  by :func:`~repro.mappings.extvp.compute_incremental_extvp`.

The dataset store (:mod:`repro.store`) builds every table; the compiler
reads them through :class:`repro.store.view.StoreView`.  The unified
property table (Sec. 4.3) is the Sempala baseline's own
(:mod:`repro.baselines.sempala`).
"""

from repro.mappings.naming import (
    predicate_key,
    triples_table_name,
    vp_table_name,
)
from repro.mappings.extvp import CorrelationKind, ExtVPStatistics, ExtVPTableInfo

__all__ = [
    "predicate_key",
    "triples_table_name",
    "vp_table_name",
    "CorrelationKind",
    "ExtVPStatistics",
    "ExtVPTableInfo",
]
