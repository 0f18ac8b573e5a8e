"""MetricsRegistry unit tests: counters, bounded histograms, JSON snapshots
and Prometheus text exposition, and the one update a query makes."""

import json
import threading

import pytest

from repro.obs.registry import DEFAULT_BUCKET_BOUNDS, Counter, Histogram, MetricsRegistry


# --------------------------------------------------------------------------- #
# Counter
# --------------------------------------------------------------------------- #
def test_counter_increments_and_rejects_negative():
    counter = Counter("queries_total", help="queries served")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError, match="only go up"):
        counter.inc(-1)
    assert counter.value == 5


# --------------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------------- #
def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(5.0, 1.0))


def test_histogram_buckets_are_cumulative():
    histogram = Histogram("latency_ms", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 0.7, 5.0, 50.0, 5000.0):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 5
    assert snapshot["sum"] == pytest.approx(5056.2)
    assert snapshot["min"] == 0.5
    assert snapshot["max"] == 5000.0
    assert snapshot["mean"] == pytest.approx(5056.2 / 5)
    # Cumulative: each bucket includes everything at or below its bound.
    assert snapshot["buckets"] == {"1": 2, "10": 3, "100": 4, "+Inf": 5}


def test_histogram_boundary_values_land_in_their_bucket():
    histogram = Histogram("h", bounds=(1.0, 10.0))
    histogram.observe(1.0)  # le="1" bucket includes the bound itself
    histogram.observe(10.0)
    assert histogram.snapshot()["buckets"] == {"1": 1, "10": 2, "+Inf": 2}


def test_empty_histogram_snapshot():
    snapshot = Histogram("h", bounds=(1.0,)).snapshot()
    assert snapshot == {
        "count": 0,
        "sum": 0.0,
        "min": None,
        "max": None,
        "mean": 0.0,
        "buckets": {"1": 0, "+Inf": 0},
    }


def test_default_bounds_are_ascending():
    assert list(DEFAULT_BUCKET_BOUNDS) == sorted(DEFAULT_BUCKET_BOUNDS)
    assert len(DEFAULT_BUCKET_BOUNDS) > 10


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_registry_lazily_creates_and_reuses_instruments():
    registry = MetricsRegistry()
    registry.inc("s2rdf_queries_total")
    registry.inc("s2rdf_queries_total", 2)
    assert registry.counter_value("s2rdf_queries_total") == 3
    assert registry.counter_value("never_touched") == 0
    registry.observe("s2rdf_query_wall_ms", 12.5)
    registry.observe("s2rdf_query_wall_ms", 80.0)
    assert registry.counter("s2rdf_queries_total") is registry.counter("s2rdf_queries_total")
    assert registry.histogram("s2rdf_query_wall_ms") is registry.histogram("s2rdf_query_wall_ms")


def test_registry_rejects_cross_type_name_collisions():
    registry = MetricsRegistry()
    registry.inc("metric_a")
    registry.observe("metric_b", 1.0)
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.histogram("metric_a")
    with pytest.raises(ValueError, match="already registered as a histogram"):
        registry.counter("metric_b")


def test_updates_through_the_registry_keep_the_name_checks():
    registry = MetricsRegistry()
    registry.inc("metric_a")
    registry.observe("metric_b", 1.0)
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.observe("metric_a", 1.0)
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.update(observations=[("metric_a", 1.0)])
    with pytest.raises(ValueError, match="already registered as a histogram"):
        registry.inc("metric_b")
    with pytest.raises(ValueError, match="already registered as a histogram"):
        registry.update(counts=[("metric_b", 1)])


def test_one_update_is_its_incs_and_observations():
    one_by_one, together = MetricsRegistry(), MetricsRegistry()
    values = [0.3, 4.0, 4.0, 70.0]
    one_by_one.inc("queries", help="queries run")
    one_by_one.inc("rows", 0)
    for value in values:
        one_by_one.observe("join_ms", value, help="joins")
    together.update(
        counts=[("queries", 1), ("rows", 0)],
        observations=[("join_ms", value) for value in values],
        help={"queries": "queries run", "join_ms": "joins"},
    )
    together.update()
    assert together.snapshot() == one_by_one.snapshot()
    assert together.render_prometheus() == one_by_one.render_prometheus()


def test_snapshot_and_to_json():
    registry = MetricsRegistry()
    registry.inc("b_counter", 7)
    registry.inc("a_counter")
    registry.observe("wall_ms", 3.0, bounds=(1.0, 10.0))
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a_counter": 1, "b_counter": 7}
    assert snapshot["histograms"]["wall_ms"]["count"] == 1
    assert snapshot["histograms"]["wall_ms"]["buckets"] == {"1": 0, "10": 1, "+Inf": 1}
    # to_json round-trips as strict JSON.
    assert json.loads(registry.to_json()) == snapshot


def test_render_prometheus_format():
    registry = MetricsRegistry()
    registry.inc("s2rdf_queries_total", 3, help="queries served")
    registry.observe("s2rdf_query_wall_ms", 0.4, bounds=(1.0, 10.0), help="query wall clock")
    registry.observe("s2rdf_query_wall_ms", 7.0, bounds=(1.0, 10.0))
    registry.observe("s2rdf_query_wall_ms", 99.0, bounds=(1.0, 10.0))
    text = registry.render_prometheus()
    lines = text.splitlines()
    assert "# HELP s2rdf_queries_total queries served" in lines
    assert "# TYPE s2rdf_queries_total counter" in lines
    assert "s2rdf_queries_total 3" in lines
    assert "# TYPE s2rdf_query_wall_ms histogram" in lines
    assert 's2rdf_query_wall_ms_bucket{le="1"} 1' in lines
    assert 's2rdf_query_wall_ms_bucket{le="10"} 2' in lines
    assert 's2rdf_query_wall_ms_bucket{le="+Inf"} 3' in lines
    assert "s2rdf_query_wall_ms_sum 106.4" in lines
    assert "s2rdf_query_wall_ms_count 3" in lines
    assert text.endswith("\n")


def test_registry_is_thread_safe():
    registry = MetricsRegistry()

    def worker():
        for _ in range(500):
            registry.inc("hits")
            registry.observe("values", 1.0, bounds=(10.0,))
            registry.update(counts=[("hits", 1)], observations=[("batches", 1.0), ("batches", 2.0)])

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter_value("hits") == 4000
    assert registry.histogram("values").count == 2000
    assert registry.histogram("batches").count == 4000


class CountingLock:
    """A lock that counts how often it was taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self) -> "CountingLock":
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


def test_a_query_takes_the_registry_lock_once(example_graph, query_q1):
    from repro.core.session import S2RDFSession
    from repro.sparql import parse_query

    follows = "SELECT ?y WHERE {{ <{}> <follows> ?y }}"
    # Misses and hits, with joins and without, and a Query object.
    queries = [query_q1, query_q1, follows.format("A"), follows.format("B"), parse_query(query_q1)]
    with S2RDFSession.from_graph(example_graph, num_partitions=2) as session:
        lock = session.metrics._lock = CountingLock()
        joins = 0
        for number, query in enumerate(queries, 1):
            joins += session.query(query).metrics.joins
            assert lock.acquisitions == number
        with session.serve() as scheduler:
            scheduler.submit(follows.format("C")).result(timeout=60)  # prewarms once
            taken = lock.acquisitions
            scheduler.submit(follows.format("D")).result(timeout=60)
            # Admission, the query's books, the dispatch's books.
            assert lock.acquisitions - taken == 3
        snapshot = session.metrics.snapshot()
        text = session.metrics.render_prometheus()
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    assert counters["s2rdf_queries_total"] == len(queries) + 2
    assert counters["s2rdf_template_cache_hits_total"] == 4
    assert counters["s2rdf_template_cache_misses_total"] == 2
    assert histograms["s2rdf_query_wall_ms"]["count"] == len(queries) + 2
    assert histograms["s2rdf_join_critical_path_ms"]["count"] == joins > 0
    assert histograms["s2rdf_scheduler_queue_ms"]["count"] == 2
    assert counters["s2rdf_scheduler_completed_total"] == 2
    assert "# HELP s2rdf_queries_total Queries executed by this session" in text
    assert (
        "# HELP s2rdf_segment_prune_ratio Fraction of store segments skipped by pruning, per query"
        in text
    )
    assert (
        "# HELP s2rdf_scheduler_queue_ms Milliseconds queries waited in the admission queue"
        in text
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
