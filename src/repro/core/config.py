"""Session configuration, grouped by concern.

The session's knobs grew one flat field at a time across the first nine PRs;
with the concurrent serving layer the flat list stopped scaling.  The
configuration is now four nested dataclasses composed on
:class:`SessionConfig`:

* :class:`ExecutionConfig` — how a single query executes (join ordering,
  process workers) and how many hash buckets a written store has;
* :class:`StoreConfig` — what the data layout materialises and how the
  persistent store compacts;
* :class:`ObservabilityConfig` — tracing and the workload journal;
* :class:`ServingConfig` — the concurrent scheduler's admission policy.

A knob has one spelling on the config object — its group,
``config.execution.num_partitions`` — and ``SessionConfig(num_partitions=8)``
is a ``TypeError``.  The flat *keyword* surfaces of :func:`repro.connect`,
:func:`repro.create`, ``from_graph`` and ``open_dataset`` map onto the groups
through :meth:`SessionConfig.from_flat`; :data:`FLAT_FIELD_HOMES` records that
mapping so a test can audit that every knob has exactly one home.

Validation happens at *construction*: each group dataclass checks its own
invariants in ``__post_init__``, so an invalid configuration fails wherever
it is built — session, scheduler, benchmark or example — rather than deep
inside ``S2RDFSession.__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

#: Where :meth:`~repro.core.session.S2RDFSession.serve` runs queries:
#: ``"thread"`` on scheduler threads in this process, ``"process"`` on the
#: persistent worker pool, one whole query per task (requires a stored
#: dataset; ephemeral sessions serve on threads).  A direct ``query()`` runs
#: in the calling process either way.
VALID_EXECUTION_MODES = ("thread", "process")

#: What :meth:`~repro.serve.scheduler.QueryScheduler.submit` does when the
#: admission queue is full: ``"queue"`` blocks the submitter until a slot
#: frees, ``"reject"`` raises :class:`~repro.serve.scheduler.AdmissionError`.
VALID_ADMISSION_POLICIES = ("queue", "reject")


@dataclass
class ExecutionConfig:
    """How one query executes on the relational runtime."""

    #: Hash buckets per table that ``save_dataset`` / ``repro.create`` write
    #: (the store's unit of bucket pruning and of append).  Every join runs
    #: in process whatever it is.
    num_partitions: int = 1
    #: Apply Algorithm 4's join-order optimisation.
    optimize_join_order: bool = True
    #: ``"thread"`` (default) or ``"process"``: where ``serve()`` runs
    #: queries.  Process mode sidesteps the GIL by shipping whole queries to
    #: the persistent worker pool of the session's stored dataset; sessions
    #: without a dataset serve on threads.
    execution_mode: str = "thread"
    #: Processes in that worker pool (``None`` = a small default derived from
    #: the machine's CPU count).
    worker_processes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.execution_mode not in VALID_EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"expected one of {VALID_EXECUTION_MODES}"
            )
        if self.worker_processes is not None and self.worker_processes < 1:
            raise ValueError("worker_processes must be >= 1 (or None for the default)")


@dataclass
class StoreConfig:
    """What the layout materialises and how the persistent store compacts."""

    #: SF threshold for ExtVP materialisation (1.0 = all non-trivial tables).
    selectivity_threshold: float = 1.0
    #: Use ExtVP tables during table selection; ``False`` degrades to plain VP.
    use_extvp: bool = True
    #: Materialise OO correlation tables (ablation only).
    include_oo: bool = False
    #: :meth:`~repro.core.session.S2RDFSession.compact` merges a table's
    #: delta segments once it has accumulated at least this many of them.
    compaction_threshold: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity_threshold <= 1.0:
            raise ValueError("selectivity_threshold must be within [0, 1]")
        if self.compaction_threshold < 1:
            raise ValueError("compaction_threshold must be >= 1")


@dataclass
class ObservabilityConfig:
    """Tracing and the workload journal."""

    #: Record query-lifecycle spans (parse → compile → plan → execute) on the
    #: session's tracer; disabled keeps the query path allocation-free.
    tracing_enabled: bool = False
    #: Append one structured record per executed query to the session's
    #: journal (:mod:`repro.obs.journal`).
    journal_enabled: bool = True

    def __post_init__(self) -> None:
        pass  # Boolean-only group today; the hook keeps validate() uniform.


@dataclass
class ServingConfig:
    """Admission control of the concurrent query scheduler."""

    #: Queries executing at once; further admitted queries wait in the queue.
    max_concurrent_queries: int = 4
    #: Admitted-but-not-running queries the scheduler holds before
    #: backpressure applies (the *admission queue*).
    admission_queue_limit: int = 64
    #: ``"queue"`` blocks a submitter when the admission queue is full;
    #: ``"reject"`` raises :class:`~repro.serve.scheduler.AdmissionError`.
    admission_policy: str = "queue"
    #: Coalesce identical concurrent queries: a submission textually equal to
    #: one already in flight on the same dataset epoch shares its result
    #: instead of executing again.
    share_results: bool = True

    def __post_init__(self) -> None:
        if self.max_concurrent_queries < 1:
            raise ValueError("max_concurrent_queries must be >= 1")
        if self.admission_queue_limit < 1:
            raise ValueError("admission_queue_limit must be >= 1")
        if self.admission_policy not in VALID_ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission_policy {self.admission_policy!r}; "
                f"expected one of {VALID_ADMISSION_POLICIES}"
            )


#: Every flat knob name → the config group (attribute of SessionConfig) that
#: is its single home.  The audit test in ``tests/core/test_config.py`` checks
#: this map against the group dataclasses field by field.
FLAT_FIELD_HOMES: Dict[str, str] = {}
for _group_name, _group_cls in (
    ("execution", ExecutionConfig),
    ("store", StoreConfig),
    ("observability", ObservabilityConfig),
    ("serving", ServingConfig),
):
    for _field in fields(_group_cls):
        if _field.name in FLAT_FIELD_HOMES:  # pragma: no cover - construction guard
            raise RuntimeError(
                f"flat knob {_field.name!r} would map to two homes: "
                f"{FLAT_FIELD_HOMES[_field.name]} and {_group_name}"
            )
        FLAT_FIELD_HOMES[_field.name] = _group_name

class SessionConfig:
    """Tunable knobs of a session, grouped by concern.

    Preferred construction nests the groups::

        SessionConfig(
            execution=ExecutionConfig(num_partitions=8, optimize_join_order=False),
            serving=ServingConfig(max_concurrent_queries=16),
        )

    There is no flat spelling: ``SessionConfig(num_partitions=8)`` raises a
    :class:`TypeError` naming the group the knob lives in.
    """

    __slots__ = ("execution", "store", "observability", "serving")

    def __init__(
        self,
        execution: Optional[ExecutionConfig] = None,
        store: Optional[StoreConfig] = None,
        observability: Optional[ObservabilityConfig] = None,
        serving: Optional[ServingConfig] = None,
        **flat: object,
    ) -> None:
        self.execution = execution if execution is not None else ExecutionConfig()
        self.store = store if store is not None else StoreConfig()
        self.observability = (
            observability if observability is not None else ObservabilityConfig()
        )
        self.serving = serving if serving is not None else ServingConfig()
        if flat:
            name = next(iter(flat))
            message = f"SessionConfig got an unexpected keyword {name!r}"
            home = FLAT_FIELD_HOMES.get(name)
            if home is not None:
                group = type(getattr(self, home)).__name__
                message += f"; a knob lives in its group: {home}={group}({name}=...)"
            raise TypeError(message)

    @classmethod
    def from_flat(cls, **flat: object) -> "SessionConfig":
        """Build a config from flat knob names.

        This is the mapper behind :meth:`S2RDFSession.from_graph`,
        :meth:`S2RDFSession.open_dataset`, :func:`repro.connect` and
        :func:`repro.create`, whose keyword surfaces are flat on purpose.
        """
        config = cls()
        unknown = [name for name in flat if name not in FLAT_FIELD_HOMES]
        if unknown:
            raise TypeError(f"unknown session knob(s): {sorted(unknown)}")
        for name, value in flat.items():
            setattr(getattr(config, FLAT_FIELD_HOMES[name]), name, value)
        config.validate()
        return config

    def validate(self) -> None:
        """Re-run every group's construction-time validation."""
        self.execution.__post_init__()
        self.store.__post_init__()
        self.observability.__post_init__()
        self.serving.__post_init__()

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionConfig):
            return NotImplemented
        return (
            self.execution == other.execution
            and self.store == other.store
            and self.observability == other.observability
            and self.serving == other.serving
        )

    def __repr__(self) -> str:
        return (
            f"SessionConfig(execution={self.execution!r}, store={self.store!r}, "
            f"observability={self.observability!r}, serving={self.serving!r})"
        )


del _group_name, _group_cls, _field
