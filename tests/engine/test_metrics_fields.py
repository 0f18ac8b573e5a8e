"""Fields audit for ExecutionMetrics.

``merge``/``copy``/``scaled``/``as_dict`` are derived from
``dataclasses.fields()``; the only lockstep obligation left when adding a
counter is classifying it into a scaling category.  These tests synthesize a
distinct value for *every* field so a new field that slips past any of the
derived methods — or arrives unclassified — fails loudly."""

import dataclasses

import pytest

from repro.engine.metrics import ExecutionMetrics


def synthesized() -> ExecutionMetrics:
    """An instance where every field holds a distinct, recognizable value."""
    metrics = ExecutionMetrics()
    for index, name in enumerate(ExecutionMetrics.field_names(), start=1):
        current = getattr(metrics, name)
        if isinstance(current, dict):
            setattr(metrics, name, {"t1": index * 10, "t2": index * 10 + 1})
        elif isinstance(current, float):
            setattr(metrics, name, index * 10 + 0.5)
        else:
            setattr(metrics, name, index * 10)
    return metrics


def test_every_field_is_classified():
    """Each field belongs to exactly one scaling category (or is structural),
    and the category sets never reference a field that no longer exists."""
    names = set(ExecutionMetrics.field_names())
    assert ExecutionMetrics.DATA_PROPORTIONAL <= names
    assert ExecutionMetrics.UNSCALED_TIMINGS <= names
    assert not (ExecutionMetrics.DATA_PROPORTIONAL & ExecutionMetrics.UNSCALED_TIMINGS)
    # The ClassVar category sets must not have leaked in as dataclass fields.
    assert "DATA_PROPORTIONAL" not in names
    assert "UNSCALED_TIMINGS" not in names


def test_timing_fields_are_floats_and_classified():
    """Any float-typed counter is a wall-clock measurement and must be in
    UNSCALED_TIMINGS — scaling observed time by a data factor is wrong."""
    for field in dataclasses.fields(ExecutionMetrics):
        if field.type in ("float", float):
            assert field.name in ExecutionMetrics.UNSCALED_TIMINGS, field.name


def test_merge_covers_every_field():
    merged = synthesized()
    merged.merge(synthesized())
    for name in ExecutionMetrics.field_names():
        expected = getattr(synthesized(), name)
        value = getattr(merged, name)
        if isinstance(expected, dict):
            assert value == {k: v * 2 for k, v in expected.items()}, name
        else:
            assert value == expected * 2, name


def test_copy_covers_every_field_and_is_deep_for_dicts():
    original = synthesized()
    clone = original.copy()
    for name in ExecutionMetrics.field_names():
        assert getattr(clone, name) == getattr(original, name), name
    clone.scanned_tables["t1"] += 100
    clone.input_tuples += 1
    assert original.scanned_tables != clone.scanned_tables
    assert original.input_tuples != clone.input_tuples


def test_scaled_applies_the_declared_categories():
    original = synthesized()
    scaled = original.scaled(3.0)
    for name in ExecutionMetrics.field_names():
        before = getattr(original, name)
        after = getattr(scaled, name)
        if name in ExecutionMetrics.DATA_PROPORTIONAL:
            if isinstance(before, dict):
                assert after == {k: int(v * 3.0) for k, v in before.items()}, name
            else:
                assert after == int(before * 3.0), name
        else:
            # Structural counters and observed timings pass through unscaled.
            assert after == before, name
    # scaled() must not mutate the source.
    for name in ExecutionMetrics.field_names():
        assert getattr(original, name) == getattr(synthesized(), name), name


def test_as_dict_covers_every_field():
    metrics = synthesized()
    out = metrics.as_dict()
    assert set(out) == set(ExecutionMetrics.field_names())
    for name, value in out.items():
        original = getattr(metrics, name)
        if isinstance(original, float):
            assert value == round(original, 3), name
        else:
            assert value == original, name
    # The exported dict is detached from the live instance.
    out["scanned_tables"]["t1"] = -1
    assert metrics.scanned_tables["t1"] != -1


def test_recorders_feed_the_expected_fields():
    metrics = ExecutionMetrics()
    metrics.record_scan("VP_follows", 10)
    metrics.record_join(4, 6, 24, 5)
    metrics.record_critical_path(1.5)
    metrics.record_segment_scan(scanned=3, pruned=5)
    metrics.record_vectorized(7)
    assert metrics.input_tuples == 10
    assert metrics.scanned_tables == {"VP_follows": 10}
    assert metrics.shuffled_tuples == 10
    assert metrics.join_comparisons == 24
    assert metrics.intermediate_tuples == 5
    assert metrics.critical_path_ms == 1.5
    assert metrics.store_segments_scanned == 3 and metrics.store_segments_pruned == 5
    assert metrics.vectorized_batches == 1 and metrics.vectorized_rows == 7
    # Nothing records exchange volume or replans any more.
    assert metrics.shuffled_bytes == metrics.broadcast_bytes == metrics.aqe_replans == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
