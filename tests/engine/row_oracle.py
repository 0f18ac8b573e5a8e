"""Row oracle: the plan executor over a build catalog's relations of terms.

The engine (:mod:`repro.engine.plan`) scans stored tables only — a dataset
directory, or the image an in-memory session holds — as dictionary-id
batches.  This module keeps the other representation for the tests:
:class:`RowOracle` is a :class:`~repro.engine.plan.PlanExecutor` whose scans
read the :class:`~repro.engine.relation.Relation`\\ s of a build catalog
(VP tables of terms, and ExtVP tables computed by their definition in
``extvp_reference.py``), so every operator above them runs on rows and
nothing touches the store, its dictionary or its bitmaps.  The differential
harness keeps it as its reference.

Build its catalog without a session (a session lays a built layout out as
its store image and drops the relations)::

    layout = reference_layout(graph)
    RowOracle(layout.catalog).execute(plan)
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.engine.catalog import ScanResult
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import SubqueryNode, TableScanNode
from repro.engine.plan import Binding, PlanExecutor
from repro.engine.relation import Relation


class RowOracle(PlanExecutor):
    """Executes plans on rows of terms, scanning a build catalog's relations."""

    def _scan(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        conditions: Optional[Mapping[str, Any]] = None,
    ) -> ScanResult:
        """The whole relation, filtered by equality; every row counts as read."""
        if not self.catalog.is_loaded(name):
            raise ValueError(f"{name!r} is no relation of a build catalog: the oracle reads no store")
        relation = self.catalog.table(name)
        rows_scanned = len(relation)
        if conditions:
            relation = relation.select_eq(conditions)
        return ScanResult(relation=relation, rows_scanned=rows_scanned)

    def visit_table_scan(
        self, plan: TableScanNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Relation:
        scan = self._scan(plan.table_name, columns=plan.columns)
        self._record_scan(plan.table_name, scan, metrics)
        relation = scan.relation
        return relation.project(plan.columns) if plan.columns != relation.columns else relation

    def visit_subquery(
        self, plan: SubqueryNode, metrics: ExecutionMetrics, binding: Optional[Binding]
    ) -> Relation:
        columns = [column for column, _ in plan.projections]
        conditions = self._conditions(plan, binding)
        scan = self._scan(plan.table_name, columns=columns, conditions=conditions)
        self._record_scan(plan.table_name, scan, metrics)
        return scan.relation.project(columns).rename(dict(plan.projections))
