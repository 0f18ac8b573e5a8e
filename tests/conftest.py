"""Shared fixtures: the paper's running-example graph G1, query Q1, and a
small WatDiv-like dataset reused across integration tests.

Setting ``FAIL_ON_SKIP=1`` turns every skipped test into a failure — CI uses
it on the differential correctness harness, whose silent skipping would void
the bag-equality guarantee the incremental store relies on."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.watdiv.generator import generate_dataset
from repro.watdiv.template import instantiate_template


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.skipped and os.environ.get("FAIL_ON_SKIP"):
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid}: test was skipped but FAIL_ON_SKIP is set "
            f"(skip reason: {call.excinfo.value if call.excinfo else 'unknown'})"
        )


def iri(name: str) -> IRI:
    return IRI(name)


@pytest.fixture(scope="session")
def example_graph() -> Graph:
    """The paper's running-example graph G1 (Fig. 1)."""
    triples = [
        Triple(iri("A"), iri("follows"), iri("B")),
        Triple(iri("B"), iri("follows"), iri("C")),
        Triple(iri("B"), iri("follows"), iri("D")),
        Triple(iri("C"), iri("follows"), iri("D")),
        Triple(iri("A"), iri("likes"), iri("I1")),
        Triple(iri("A"), iri("likes"), iri("I2")),
        Triple(iri("C"), iri("likes"), iri("I2")),
    ]
    return Graph(triples, name="G1")


#: The paper's running-example query Q1 (Fig. 2), in simplified notation.
QUERY_Q1 = """
SELECT * WHERE {
  ?x <likes> ?w .
  ?x <follows> ?y .
  ?y <follows> ?z .
  ?z <likes> ?w .
}
"""


@pytest.fixture(scope="session")
def query_q1() -> str:
    return QUERY_Q1


@pytest.fixture(scope="session")
def small_dataset():
    """A small WatDiv-like dataset shared by the integration tests."""
    return generate_dataset(scale_factor=1.0, seed=7)


@pytest.fixture(scope="session")
def small_graph(small_dataset):
    return small_dataset.graph


@pytest.fixture(scope="session")
def instantiations(small_dataset):
    """``draw(template, count=3)``: that many instantiations of a WatDiv
    template over the small dataset — with pairwise different constants when
    the template has placeholders, the one text repeated when it has none."""

    def draw(template, count=3):
        texts = []
        for seed in range(200):
            text = instantiate_template(template, small_dataset, np.random.default_rng(seed))
            if text not in texts or not template.is_parameterized():
                texts.append(text)
            if len(texts) == count:
                return texts
        raise AssertionError(f"{template.name}: fewer than {count} distinct instantiations")

    return draw


#: The template cache's registry counters, in the order ``cache_counters`` reports them.
CACHE_COUNTERS = (
    "s2rdf_template_cache_hits_total",
    "s2rdf_template_cache_misses_total",
    "s2rdf_plan_cache_hits_total",
    "s2rdf_plan_cache_misses_total",
)


@pytest.fixture(scope="session")
def cache_counters():
    """``count(session)``: (parse hits, parse misses, plan hits, plan misses) so
    far; ``count(session, since)``: how far each moved since an earlier reading."""

    def count(session, since=(0, 0, 0, 0)):
        snapshot = session.metrics.snapshot()["counters"]
        return tuple(int(snapshot.get(name, 0)) - was for name, was in zip(CACHE_COUNTERS, since))

    return count
