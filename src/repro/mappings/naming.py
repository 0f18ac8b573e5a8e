"""Table naming conventions.

All layouts register their tables in a shared catalog, so names must be
deterministic, collision-free and readable in generated SQL.  Predicates are
compacted to their prefixed name (``wsdbm:follows``) and sanitised to a SQL
identifier (``wsdbm_follows``).
"""

from __future__ import annotations

import re
from typing import Dict

from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import IRI

_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]")

_DEFAULT_MANAGER = NamespaceManager()

TRIPLES_TABLE = "triples"
PROPERTY_TABLE = "property_table"


def predicate_key(predicate: IRI, namespaces: NamespaceManager = _DEFAULT_MANAGER) -> str:
    """A SQL-safe, human-readable key for a predicate IRI."""
    compact = namespaces.compact(predicate)
    if compact.startswith("<") and compact.endswith(">"):
        compact = predicate.local_name() or predicate.value
    return _SANITIZE_RE.sub("_", compact).strip("_") or "p"


def triples_table_name() -> str:
    return TRIPLES_TABLE


def vp_table_name(predicate: IRI, namespaces: NamespaceManager = _DEFAULT_MANAGER) -> str:
    """Name of the VP table for ``predicate`` (``vp_wsdbm_follows``)."""
    return f"vp_{predicate_key(predicate, namespaces)}"


def correlation_table_name(kind: str, first_vp_table: str, second_vp_table: str) -> str:
    """Name of ``ExtVP_kind[first|second]``, from the two VP table names.

    ``kind`` is the :class:`~repro.mappings.extvp.CorrelationKind` value.  VP
    table names carry the predicates' collision-free keys, frozen when the
    predicate first reached the dataset; the manifest stores correlations by
    predicate index and re-derives their names with this function.
    """
    return f"extvp_{kind}_{first_vp_table[3:]}__{second_vp_table[3:]}"


def property_table_column(predicate: IRI, namespaces: NamespaceManager = _DEFAULT_MANAGER) -> str:
    """Column name of a predicate inside the unified property table."""
    return predicate_key(predicate, namespaces)


def unique_predicate_key(
    predicate: IRI,
    taken: set,
    namespaces: NamespaceManager = _DEFAULT_MANAGER,
) -> str:
    """A key for ``predicate`` avoiding every key in ``taken``.

    Used by incremental appends: keys of predicates already persisted are
    frozen (they are baked into on-disk table names), so a newly appearing
    predicate must pick a key that collides with none of them — unlike
    :func:`build_unique_keys`, which may reassign suffixes when the whole
    predicate set is renamed at once.
    """
    base = predicate_key(predicate, namespaces)
    if base not in taken:
        return base
    suffix = 1
    while f"{base}_{suffix}" in taken:
        suffix += 1
    return f"{base}_{suffix}"


def build_unique_keys(predicates, namespaces: NamespaceManager = _DEFAULT_MANAGER) -> Dict[IRI, str]:
    """Map predicates to unique keys, disambiguating collisions with suffixes."""
    keys: Dict[IRI, str] = {}
    used: Dict[str, int] = {}
    for predicate in sorted(predicates, key=lambda p: p.value):
        key = predicate_key(predicate, namespaces)
        if key in used:
            used[key] += 1
            key = f"{key}_{used[key]}"
        else:
            used[key] = 0
        keys[predicate] = key
    return keys
