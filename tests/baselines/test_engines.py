"""Tests for the competitor baseline engines.

The key invariant is cross-engine agreement: every engine must return the same
solution bag for the same BGP query (only the simulated runtimes differ).
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import (
    ALL_ENGINE_CLASSES,
    H2RDFPlusEngine,
    PigSparqlEngine,
    S2RDFExtVPEngine,
    S2RDFVPEngine,
    SempalaEngine,
    ShardEngine,
    UnsupportedQueryError,
    VirtuosoEngine,
)
from repro.baselines.binding_iteration import (
    clause_iteration_execute,
    index_nested_loop_execute,
    order_by_selectivity,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.sparql.parser import parse_query
from repro.watdiv.basic_queries import basic_template
from repro.watdiv.selectivity_queries import selectivity_template
from repro.watdiv.template import instantiate_template


def result_key(result):
    return sorted(
        tuple(sorted((k, v.n3()) for k, v in binding.items())) for binding in result.bindings
    )


@pytest.fixture(scope="module")
def loaded_engines(small_graph):
    engines = [cls() for cls in ALL_ENGINE_CLASSES]
    for engine in engines:
        engine.load(small_graph)
    return engines


QUERY_NAMES = ["L3", "S3", "S6", "F5", "C3"]


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("template_name", QUERY_NAMES)
    def test_basic_queries_agree(self, loaded_engines, small_dataset, template_name):
        template = basic_template(template_name)
        query = instantiate_template(template, small_dataset, np.random.default_rng(11))
        reference = None
        for engine in loaded_engines:
            result = engine.query(query)
            assert not result.failed, f"{engine.name} failed on {template_name}"
            key = result_key(result)
            if reference is None:
                reference = key
            else:
                assert key == reference, f"{engine.name} disagrees on {template_name}"

    @pytest.mark.parametrize("template_name", ["ST-1-3", "ST-4-1", "ST-6-2", "ST-8-1"])
    def test_selectivity_queries_agree(self, loaded_engines, small_dataset, template_name):
        template = selectivity_template(template_name)
        query = instantiate_template(template, small_dataset)
        sizes = set()
        for engine in loaded_engines:
            result = engine.query(query)
            assert not result.failed
            sizes.add(len(result))
        assert len(sizes) == 1


class TestEngineBehaviours:
    def test_query_before_load_raises(self):
        for cls in ALL_ENGINE_CLASSES:
            with pytest.raises(RuntimeError):
                cls().query("SELECT * WHERE { ?s ?p ?o }")

    def test_load_reports(self, small_graph):
        for cls in (S2RDFExtVPEngine, S2RDFVPEngine, SempalaEngine, ShardEngine, PigSparqlEngine):
            report = cls().load(small_graph)
            assert report.triples == len(small_graph)
            assert report.tuples_stored > 0
            assert report.hdfs_bytes > 0
            assert report.simulated_load_seconds > 0

    def test_extvp_load_slower_and_bigger_than_vp(self, small_graph):
        extvp = S2RDFExtVPEngine().load(small_graph)
        vp = S2RDFVPEngine().load(small_graph)
        assert extvp.simulated_load_seconds > vp.simulated_load_seconds
        assert extvp.tuples_stored > vp.tuples_stored

    def test_mapreduce_engines_pay_job_latency(self, loaded_engines, small_dataset):
        query = instantiate_template(basic_template("L3"), small_dataset, np.random.default_rng(1))
        by_name = {engine.name: engine.query(query) for engine in loaded_engines}
        assert by_name["SHARD"].simulated_runtime_ms > 10_000
        assert by_name["PigSPARQL"].simulated_runtime_ms > 10_000
        assert by_name["S2RDF ExtVP"].simulated_runtime_ms < by_name["PigSPARQL"].simulated_runtime_ms

    def test_s2rdf_extvp_not_slower_than_vp(self, loaded_engines, small_dataset):
        query = instantiate_template(selectivity_template("ST-1-3"), small_dataset)
        by_name = {engine.name: engine.query(query) for engine in loaded_engines}
        assert (
            by_name["S2RDF ExtVP"].simulated_runtime_ms
            <= by_name["S2RDF VP"].simulated_runtime_ms + 1e-6
        )

    def test_h2rdf_reports_execution_mode(self, loaded_engines, small_dataset):
        query = instantiate_template(basic_template("S6"), small_dataset, np.random.default_rng(2))
        engine = next(e for e in loaded_engines if e.name == "H2RDF+")
        result = engine.query(query)
        assert result.execution_mode.startswith("hbase/")

    def test_h2rdf_hdfs_bytes_do_not_depend_on_the_graphs_set_order(self, small_graph):
        """Each permutation index is written sorted, as an HBase table is: the
        same triples inserted in two orders, and loaded in two processes
        (where a ``Literal``'s hash, and with it the graph's set order, moves
        even under one ``PYTHONHASHSEED``), give one ``hdfs_bytes``."""
        triples = sorted(small_graph, key=lambda t: (t.subject.n3(), t.predicate.n3(), t.object.n3()))
        forward = H2RDFPlusEngine().load(Graph(triples)).hdfs_bytes
        backward = H2RDFPlusEngine().load(Graph(reversed(triples))).hdfs_bytes
        assert forward == backward

        script = (
            "from repro.baselines import H2RDFPlusEngine\n"
            "from repro.watdiv.generator import generate_dataset\n"
            "graph = generate_dataset(scale_factor=1.0, seed=7).graph\n"
            "print(H2RDFPlusEngine().load(graph).hdfs_bytes)\n"
        )
        source = str(pathlib.Path(repro.__file__).resolve().parents[1])
        environment = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=source)
        readings = [
            int(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=environment,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
            for _ in range(2)
        ]
        assert readings == [forward, forward]

    def test_virtuoso_warm_cache_faster(self, small_graph, small_dataset):
        query = instantiate_template(basic_template("C3"), small_dataset)
        cold = VirtuosoEngine(warm_cache=False, work_scale=1000.0)
        warm = VirtuosoEngine(warm_cache=True, work_scale=1000.0)
        cold.load(small_graph)
        warm.load(small_graph)
        assert warm.query(query).simulated_runtime_ms < cold.query(query).simulated_runtime_ms

    def test_unsupported_filter_raises(self, small_graph):
        engine = ShardEngine()
        engine.load(small_graph)
        with pytest.raises(UnsupportedQueryError):
            engine.query("SELECT * WHERE { ?x ?p ?o . FILTER(?o > 3) }")

    def test_failure_on_result_explosion(self, small_graph):
        engine = ShardEngine(max_bindings=10)
        engine.load(small_graph)
        result = engine.query(
            "PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/> "
            "SELECT * WHERE { ?a wsdbm:friendOf ?b . ?b wsdbm:friendOf ?c }"
        )
        assert result.failed
        assert result.simulated_runtime_ms == float("inf")


class TestBindingIteration:
    def test_order_by_selectivity_prefers_bound_patterns(self, example_graph, query_q1):
        query = parse_query(query_q1)
        patterns = list(query.pattern.patterns)
        ordered = order_by_selectivity(example_graph, patterns)
        assert len(ordered) == len(patterns)
        assert set(map(id, ordered)) == set(map(id, patterns))

    def test_index_nested_loop_matches_clause_iteration(self, example_graph, query_q1):
        patterns = list(parse_query(query_q1).pattern.patterns)
        inl = index_nested_loop_execute(example_graph, patterns)
        clause = clause_iteration_execute(example_graph, patterns)
        normalize = lambda bs: sorted(tuple(sorted((k, v.n3()) for k, v in b.items())) for b in bs)
        assert normalize(inl) == normalize(clause)
        assert len(inl) == 1


_node = st.integers(min_value=0, max_value=6).map(lambda i: IRI(f"n{i}"))
_pred = st.sampled_from([IRI("p"), IRI("q")])


class TestEquivalenceProperty:
    @given(triples=st.lists(st.tuples(_node, _pred, _node), min_size=1, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_s2rdf_matches_index_nested_loop(self, triples):
        """S2RDF over ExtVP returns the same bag as direct graph evaluation."""
        graph = Graph(Triple(s, p, o) for s, p, o in triples)
        query = "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }"
        from repro.core.session import S2RDFSession

        session = S2RDFSession.from_graph(graph)
        s2rdf_result = session.query(query)
        patterns = list(parse_query(query).pattern.patterns)
        reference = index_nested_loop_execute(graph, patterns)
        normalize = lambda bs: sorted(tuple(sorted((k, v.n3()) for k, v in b.items())) for b in bs)
        assert normalize(s2rdf_result.bindings) == normalize(reference)
