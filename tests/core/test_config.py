"""SessionConfig split: grouped construction, the flat keyword mapper and
construction-time validation."""

import pytest

from repro.core.config import (
    FLAT_FIELD_HOMES,
    VALID_ADMISSION_POLICIES,
    VALID_EXECUTION_MODES,
    ExecutionConfig,
    ObservabilityConfig,
    ServingConfig,
    SessionConfig,
    StoreConfig,
)

GROUPS = {
    "execution": ExecutionConfig,
    "store": StoreConfig,
    "observability": ObservabilityConfig,
    "serving": ServingConfig,
}


# --------------------------------------------------------------------------- #
# Audit: every flat knob name has exactly one nested home
# --------------------------------------------------------------------------- #
def test_flat_field_homes_covers_all_group_fields_and_nothing_else():
    from dataclasses import fields

    expected = {
        field.name: group_name
        for group_name, group_cls in GROUPS.items()
        for field in fields(group_cls)
    }
    assert FLAT_FIELD_HOMES == expected


# --------------------------------------------------------------------------- #
# Grouped and flat construction
# --------------------------------------------------------------------------- #
def test_grouped_construction_is_silent_and_applies():
    config = SessionConfig(
        execution=ExecutionConfig(num_partitions=8, optimize_join_order=False),
        serving=ServingConfig(max_concurrent_queries=16),
    )
    assert config.execution.num_partitions == 8
    assert config.serving.max_concurrent_queries == 16
    # Untouched groups get defaults.
    assert config.store == StoreConfig()
    assert config.observability == ObservabilityConfig()


def test_flat_constructor_kwargs_are_refused_naming_the_group():
    with pytest.raises(TypeError, match=r"execution=ExecutionConfig\(num_partitions="):
        SessionConfig(num_partitions=8)
    assert not hasattr(SessionConfig(), "num_partitions")


def test_from_flat_is_silent_and_rejects_unknown_knobs():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = SessionConfig.from_flat(num_partitions=4, journal_enabled=False)
    assert config.execution.num_partitions == 4
    assert config.observability.journal_enabled is False
    with pytest.raises(TypeError, match="unknown session knob"):
        SessionConfig.from_flat(numm_partitions=4)


def test_unknown_flat_constructor_kwarg_is_a_type_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        SessionConfig(not_a_knob=1)


def test_equality_and_repr():
    assert SessionConfig() == SessionConfig()
    assert SessionConfig.from_flat(num_partitions=2) != SessionConfig()
    assert "ExecutionConfig" in repr(SessionConfig())


# --------------------------------------------------------------------------- #
# Construction-time validation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "group_cls, kwargs, message",
    [
        (ExecutionConfig, {"num_partitions": 0}, "num_partitions"),
        (ExecutionConfig, {"execution_mode": "gpu"}, "unknown execution_mode"),
        (ExecutionConfig, {"worker_processes": 0}, "worker_processes"),
        (StoreConfig, {"selectivity_threshold": 1.5}, "selectivity_threshold"),
        (StoreConfig, {"compaction_threshold": 0}, "compaction_threshold"),
        (ServingConfig, {"max_concurrent_queries": 0}, "max_concurrent_queries"),
        (ServingConfig, {"admission_queue_limit": 0}, "admission_queue_limit"),
        (ServingConfig, {"admission_policy": "drop"}, "unknown admission_policy"),
    ],
)
def test_groups_validate_at_construction(group_cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        group_cls(**kwargs)


def test_flat_spellings_validate_too():
    with pytest.raises(ValueError, match="unknown execution_mode"):
        SessionConfig.from_flat(execution_mode="gpu")
    # Writes to a group re-validate on demand via validate().
    config = SessionConfig()
    config.execution.num_partitions = -1
    with pytest.raises(ValueError, match="num_partitions"):
        config.validate()


def test_valid_value_tuples_are_the_documented_ones():
    assert VALID_EXECUTION_MODES == ("thread", "process")
    assert VALID_ADMISSION_POLICIES == ("queue", "reject")


def test_session_factories_validate_at_construction(example_graph):
    from repro.core.session import S2RDFSession

    with pytest.raises(ValueError, match="unknown execution_mode"):
        S2RDFSession.from_graph(example_graph, execution_mode="gpu")
    with pytest.raises(ValueError, match="num_partitions"):
        S2RDFSession.from_graph(example_graph, num_partitions=0)


def test_the_representation_is_not_a_knob_anywhere(example_graph, tmp_path):
    """``vectorized_enabled`` is gone from every surface that took it: each
    refuses it by name instead of silently accepting a dead option."""
    import repro
    from repro.core.session import S2RDFSession
    from repro.engine.plan import PlanExecutor

    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    with S2RDFSession.from_graph(example_graph) as session:
        catalog = session.layout.catalog
    for refuse in (
        lambda: ExecutionConfig(vectorized_enabled=True),
        lambda: SessionConfig(vectorized_enabled=True),
        lambda: SessionConfig.from_flat(vectorized_enabled=False),
        lambda: S2RDFSession.from_graph(example_graph, vectorized_enabled=True),
        lambda: S2RDFSession.open_dataset(path, vectorized_enabled=True),
        lambda: repro.connect(path, vectorized_enabled=True),
        lambda: repro.create(example_graph, vectorized_enabled=True),
    ):
        with pytest.raises(TypeError, match="vectorized_enabled"):
            refuse()
    with pytest.raises(TypeError, match="vectorized"):
        PlanExecutor(catalog, vectorized=True)
    assert "vectorized_enabled" not in FLAT_FIELD_HOMES
    assert not hasattr(SessionConfig(), "vectorized_enabled")


#: The knobs that steered the partitioned runtime's exchange, each with a
#: value it used to accept.
RETIRED_RUNTIME_KNOBS = [
    ("adaptive_enabled", True),
    ("skew_factor", 4.0),
    ("broadcast_memory_limit", 1 << 28),
    ("broadcast_threshold", 0),
]


def _refusing_surfaces():
    """Every surface that takes configuration keywords, as ``(name, call)``
    where ``call(graph, path, **knobs)`` passes the keywords to it."""
    import repro
    from repro.core.session import S2RDFSession

    return [
        ("ExecutionConfig", lambda graph, path, **knobs: ExecutionConfig(**knobs)),
        ("SessionConfig", lambda graph, path, **knobs: SessionConfig(**knobs)),
        ("from_flat", lambda graph, path, **knobs: SessionConfig.from_flat(**knobs)),
        ("from_graph", lambda graph, path, **knobs: S2RDFSession.from_graph(graph, **knobs)),
        ("open_dataset", lambda graph, path, **knobs: S2RDFSession.open_dataset(path, **knobs)),
        ("connect", lambda graph, path, **knobs: repro.connect(path, **knobs)),
        ("create", lambda graph, path, **knobs: repro.create(graph, **knobs)),
    ]


@pytest.mark.parametrize(
    "surface", [pytest.param(call, id=name) for name, call in _refusing_surfaces()]
)
@pytest.mark.parametrize("knob, value", RETIRED_RUNTIME_KNOBS)
def test_the_partitioned_runtime_knobs_are_refused_everywhere(
    example_graph, tmp_path, knob, value, surface
):
    """Every join runs in process and Spark's threshold is a constant: the
    knobs that steered the exchange are refused by name, not ignored."""
    import repro

    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    with pytest.raises(TypeError, match=knob):
        surface(example_graph, path, **{knob: value})


@pytest.mark.parametrize(
    "surface", [pytest.param(call, id=name) for name, call in _refusing_surfaces()]
)
@pytest.mark.parametrize("knob, value", [("work_scale", 2.0), ("cost_model", None)])
def test_the_simulated_cluster_is_not_a_knob_anywhere(
    example_graph, tmp_path, knob, value, surface
):
    """A session does not price its queries (the paper tables do, in
    ``repro.baselines``): its scale and cost model are refused by name, as
    any unknown knob is."""
    import repro

    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    with pytest.raises(TypeError, match=knob):
        surface(example_graph, path, **{knob: value})
    assert knob not in FLAT_FIELD_HOMES


def test_the_partitioned_runtime_knobs_have_no_flat_home():
    for knob, _ in RETIRED_RUNTIME_KNOBS:
        assert knob not in FLAT_FIELD_HOMES
        assert not hasattr(ExecutionConfig(), knob)


@pytest.mark.parametrize(
    "surface", [pytest.param(call, id=name) for name, call in _refusing_surfaces()]
)
def test_the_engine_is_not_a_knob_anywhere(example_graph, tmp_path, surface):
    """Plans run on one engine (the SQL lowering is a test oracle under
    ``tests/engine``): ``engine=`` is refused by name, whatever its value,
    instead of silently accepting a dead option."""
    import repro

    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    for value in ("native", "sqlite"):
        with pytest.raises(TypeError, match="engine"):
            surface(example_graph, path, engine=value)


def test_execution_config_has_four_fields():
    from dataclasses import fields

    assert [field.name for field in fields(ExecutionConfig)] == [
        "num_partitions",
        "optimize_join_order",
        "execution_mode",
        "worker_processes",
    ]
    assert "engine" not in FLAT_FIELD_HOMES


def test_connect_never_writes_to_the_config_it_is_given(example_graph, tmp_path):
    """``num_partitions=`` next to ``config=`` applies to that session only;
    the caller's config may be reused for another one."""
    import repro

    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    config = SessionConfig(execution=ExecutionConfig(num_partitions=2))
    with repro.connect(path, config=config, num_partitions=4) as session:
        assert session.config.execution.num_partitions == 4
    assert config.execution.num_partitions == 2
    assert config == SessionConfig(execution=ExecutionConfig(num_partitions=2))
    with repro.connect(path, config=config) as session:
        assert session.config.execution.num_partitions == 2


def test_open_dataset_copies_a_config_only_when_it_must(example_graph, tmp_path):
    """Without ``num_partitions=`` the session runs on the caller's config as
    given; with it, on a copy that differs in that field alone."""
    import repro
    from repro.core.session import S2RDFSession

    path = str(tmp_path / "dataset")
    repro.create(example_graph, path=path).close()
    config = SessionConfig(
        execution=ExecutionConfig(num_partitions=2),
        store=StoreConfig(use_extvp=False),
        observability=ObservabilityConfig(journal_enabled=False),
    )
    with S2RDFSession.open_dataset(path, config=config) as session:
        assert session.config is config
    with S2RDFSession.open_dataset(path, num_partitions=8, config=config) as session:
        assert session.config is not config
        assert session.config.execution.num_partitions == 8
        assert session.config.store == config.store
        assert session.config.observability == config.observability
        assert session.config.serving == config.serving
    assert config.execution.num_partitions == 2
