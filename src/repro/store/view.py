"""What the query compiler reads of a store: a read-only view of its manifest.

The paper's compiler needs the VP tables and the statistics of the ExtVP
correlations, the empty ones included (Sec. 5 and 6.1, Algorithm 1).  The
manifest holds exactly that, and the catalog holds the tables, so nothing is
built or copied here: a :class:`StoreView` answers from the live
:class:`~repro.store.format.Manifest` the session's dataset keeps resident,
which appends and compactions update in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.catalog import Catalog
from repro.mappings.extvp import (
    CorrelationKind,
    ExtVPStatistics,
    ExtVPTableInfo,
    is_correlation_key,
)
from repro.mappings.naming import correlation_table_name
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import IRI
from repro.store.format import Manifest


class StoreView:
    """The catalog of a store plus its manifest, as the compiler asks for them.

    :func:`~repro.store.reader.register_dataset` and
    :func:`~repro.store.reader.register_changes` point :attr:`manifest` at
    the dataset they register.
    """

    def __init__(self, catalog: Catalog, manifest: Manifest) -> None:
        self.catalog = catalog
        self.manifest = manifest

    @property
    def statistics(self) -> ExtVPStatistics:
        """The statistics of the ExtVP correlations with rows."""
        return self.manifest.extvp

    @property
    def selectivity_threshold(self) -> float:
        return self.manifest.selectivity_threshold

    @property
    def include_oo(self) -> bool:
        return self.manifest.include_oo

    @property
    def namespaces(self) -> NamespaceManager:
        return NamespaceManager(self.manifest.namespaces)

    def predicates(self) -> List[IRI]:
        """The predicates with a VP table, in IRI order."""
        return sorted(self.manifest.vp_tables, key=lambda p: p.value)

    def vp_table_name(self, predicate: IRI) -> Optional[str]:
        """VP table name for ``predicate`` (``None`` when the predicate is absent)."""
        info = self.manifest.vp_tables.get(predicate)
        return info["table"] if info is not None else None

    def vp_size(self, predicate: IRI) -> int:
        info = self.manifest.vp_tables.get(predicate)
        return info["size"] if info is not None else 0

    def extvp_info(self, kind: CorrelationKind, first: IRI, second: IRI) -> Optional[ExtVPTableInfo]:
        """The statistics of ``ExtVP_kind[first|second]``; ``None`` if not maintained.

        A maintained correlation of two predicates with VP tables that has no
        entry is empty: it is answered with zero rows, not materialised.
        """
        info = self.statistics.lookup(kind, first, second)
        if info is not None:
            return info
        first_table, second_table = self.vp_table_name(first), self.vp_table_name(second)
        if (
            first_table is None
            or second_table is None
            or not is_correlation_key(kind, first, second, self.include_oo)
        ):
            return None
        name = correlation_table_name(kind.value, first_table, second_table)
        return ExtVPTableInfo(name, kind, first, second, 0, self.vp_size(first), False)

    def table_counts(self) -> Dict[str, int]:
        """Counts used by Table 2: VP tables, materialised ExtVP tables, total."""
        vp_count = len(self.manifest.vp_tables)
        extvp_count = len(self.statistics.materialized())
        return {"vp": vp_count, "extvp": extvp_count, "total": vp_count + extvp_count}

    def size_summary(self) -> Dict[str, int]:
        """Tuple counts used by Table 2 / Table 6."""
        vp_tuples = sum(info["size"] for info in self.manifest.vp_tables.values())
        extvp_tuples = self.statistics.total_materialized_tuples()
        return {
            "vp_tuples": vp_tuples,
            "extvp_tuples": extvp_tuples,
            "total_tuples": vp_tuples + extvp_tuples,
        }
