"""Query results.

A :class:`QueryResult` bundles the solution bindings with the generated SQL
text (rendered on first read), the execution metrics and the wall-clock time
spent in the engine; the paper's simulated cluster prices those metrics in
:mod:`repro.baselines`, not here.  A result is always built in the process
that asked for it, by :meth:`~repro.core.session.S2RDFSession._finish` from
the query's :class:`~repro.core.session.QueryRecord`: a query served by a
process worker comes back as that record, its root in ids, and the parent
builds its result as it builds a direct query's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.rdf.terms import Term

SolutionBinding = Dict[str, Term]


@dataclass
class QueryResult:
    """The outcome of executing one SPARQL query."""

    relation: Relation
    metrics: ExecutionMetrics
    #: Total wall-clock time of the query() call, in milliseconds.
    wall_clock_ms: float
    statically_empty: bool = False
    #: Wall-clock milliseconds per query phase (``parse``, ``compile``,
    #: ``plan``, ``execute``).  Populated even when tracing is disabled — the
    #: session times the phases directly; the tracer only adds span detail.
    #: ``plan`` is the time taken to obtain Spark's join annotation: taking
    #: the one the template cache keeps with the plan (computed by the compile
    #: that missed, so inside ``compile``), or the costing pass for a plan
    #: without one (a ``Query`` object, ``explain_analyze``).
    phase_ms: Dict[str, float] = field(default_factory=dict)
    selected_tables: List[str] = field(default_factory=list)
    #: The join Spark would run for each join of the plan, in bottom-up order
    #: (e.g. ``"BroadcastHashJoin(build=right, ...)"``): a costing annotation
    #: from static statistics; every join ran in process.
    join_strategies: List[str] = field(default_factory=list)
    #: Manifest append epoch of the dataset snapshot this query read, or
    #: ``None`` for sessions without a persisted dataset.  Under concurrent
    #: appends this identifies exactly which store state produced the rows.
    epoch: Optional[int] = None
    #: Renders :attr:`sql`: the text of the plan that ran, with this query's
    #: constants in it (for a text, its template plan's SQL skeleton filled
    #: with them).  The text is almost never read, so it is rendered on first
    #: access, not per query; a served result arrives with its text set.
    sql_renderer: Optional[Callable[[], str]] = field(default=None, repr=False, compare=False)

    @cached_property
    def sql(self) -> str:
        """The SQL text of the compiled plan, rendered once on first read."""
        return self.sql_renderer() if self.sql_renderer is not None else ""

    def __getstate__(self) -> Dict[str, Any]:
        # A pickled result carries the text, not the renderer (it holds the
        # plan tree).
        state = dict(self.__dict__)
        state["sql"] = self.sql
        state["sql_renderer"] = None
        return state

    @property
    def variables(self) -> Sequence[str]:
        return self.relation.columns

    @property
    def bindings(self) -> List[SolutionBinding]:
        """Solution mappings as dictionaries (unbound variables omitted)."""
        return [
            {column: value for column, value in zip(self.relation.columns, row) if value is not None}
            for row in self.relation.rows
        ]

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self) -> Iterator[SolutionBinding]:
        return iter(self.bindings)

    def to_dicts(self) -> List[Dict[str, str]]:
        """Solution mappings as plain-string dictionaries.

        Unlike :attr:`bindings` (which keeps :class:`~repro.rdf.terms.Term`
        objects), every value is rendered to its lexical form — the shape to
        hand to JSON encoders, CSV writers or test fixtures.
        """
        return [
            {
                variable: str(getattr(term, "value", term))
                for variable, term in binding.items()
            }
            for binding in self.bindings
        ]

    def values(self, variable: str) -> List[Any]:
        """All values bound to ``variable`` across the result."""
        return self.relation.column_values(variable)

    def as_table(self, limit: Optional[int] = 20) -> str:
        """Human-readable tabular rendering (used by the examples)."""
        columns = list(self.relation.columns)
        rows = self.relation.rows[:limit] if limit is not None else self.relation.rows

        def render(value: Any) -> str:
            if value is None:
                return ""
            if hasattr(value, "n3"):
                return value.n3()
            return str(value)

        rendered = [[render(v) for v in row] for row in rows]
        widths = [
            max([len(c)] + [len(r[i]) for r in rendered]) if rendered else len(c)
            for i, c in enumerate(columns)
        ]
        header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
        separator = "-+-".join("-" * w for w in widths)
        body = "\n".join(" | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rendered)
        suffix = ""
        if limit is not None and len(self.relation) > limit:
            suffix = f"\n... ({len(self.relation) - limit} more rows)"
        return "\n".join(filter(None, [header, separator, body])) + suffix
