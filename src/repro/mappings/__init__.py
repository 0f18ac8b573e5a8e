"""Relational mappings for RDF (Sec. 4 and Sec. 5 of the paper).

Four layouts are implemented:

* :class:`~repro.mappings.triples_table.TriplesTableLayout` — one giant
  three-column table (Sec. 4.1).
* :class:`~repro.mappings.vertical.VerticalPartitioningLayout` — one
  two-column table per predicate (Sec. 4.2, Abadi et al.).
* :class:`~repro.mappings.property_table.PropertyTableLayout` — a unified
  property table with row duplication for multi-valued predicates
  (Sec. 4.3, the Sempala layout).
* :class:`~repro.mappings.extvp.ExtVPLayout` — the paper's contribution:
  semi-join reductions of the VP tables for SS/OS/SO correlations with an
  optional selectivity-factor threshold (Sec. 5).
"""

from repro.mappings.naming import (
    predicate_key,
    triples_table_name,
    vp_table_name,
)
from repro.mappings.triples_table import TriplesTableLayout
from repro.mappings.vertical import VerticalPartitioningLayout
from repro.mappings.property_table import PropertyTableLayout
from repro.mappings.extvp import CorrelationKind, ExtVPLayout, ExtVPStatistics, ExtVPTableInfo

__all__ = [
    "predicate_key",
    "triples_table_name",
    "vp_table_name",
    "TriplesTableLayout",
    "VerticalPartitioningLayout",
    "PropertyTableLayout",
    "CorrelationKind",
    "ExtVPLayout",
    "ExtVPStatistics",
    "ExtVPTableInfo",
]
