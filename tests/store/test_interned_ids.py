"""Decoded id columns are lists of interned ids.

Every RLE run a dataset decodes goes through the one id -> int table of its
term dictionary (one per :class:`~repro.store.reader.StoredDataset`), so a
cell of any table or bucket is a pointer to the one int object of its id:
copying a column (a join's gather) never boxes an int, and a decoded cell
costs 8 bytes, as a packed ``int64`` would.  These tests pin that, the int32
limit of the page format, and the caches that hold decoded columns under
concurrent readers.
"""

import operator
import random
import shutil
import sys
import threading
import tracemalloc

import pytest

import repro
from repro.engine.storage import MAX_ID, NULL_ID, encode_id_column
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store.format import DatasetFormatError, decode_segment, encode_segment
from repro.store.reader import StoredSelection, StoredTable
from repro.store.writer import _DictionaryAppender
from repro.watdiv.basic_queries import BASIC_TEMPLATES


def bag(rows):
    return sorted(map(repr, rows))


def all_interned(column, interned):
    """Whether every cell of ``column`` is the intern table's object for its id."""
    return all(map(operator.is_, column, map(interned.__getitem__, column)))


@pytest.fixture(scope="module")
def built(small_dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("interned") / "store")
    repro.create(small_dataset.graph, path=path, num_partitions=2).close()
    return path


@pytest.fixture()
def store(built, tmp_path):
    path = str(tmp_path / "store")
    shutil.copytree(built, path)
    return path


def test_equal_ids_of_different_segments_are_one_object():
    interned = {}
    # Ids above CPython's small-int cache, so sharing is not an accident.
    first = decode_segment(
        encode_segment([("s", encode_id_column([5000, 5000, 7000]))]), None, interned
    )
    second = decode_segment(
        encode_segment([("o", encode_id_column([7000, 5000]))]), None, interned
    )
    assert first["s"][0] is first["s"][1] is second["o"][1]
    assert first["s"][2] is second["o"][0]


def test_decoding_a_segment_costs_a_pointer_per_cell():
    rng = random.Random(3)
    values = rng.sample(range(1000, 10**6), 6000)
    column = [value for value in values for _ in range(rng.randint(1, 4))]
    other = column[::-1]
    data = encode_segment([("s", encode_id_column(column)), ("o", encode_id_column(other))])
    cells = 2 * len(column)
    assert cells >= 10_000
    interned = {}
    decode_segment(data, None, interned)  # the intern table is not what is measured
    interned_ids = len(interned)
    tracemalloc.start()
    try:
        decoded = decode_segment(data, None, interned)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded == {"s": column, "o": other} and len(interned) == interned_ids
    assert retained <= peak <= 9 * cells, (retained / cells, peak / cells)


def test_equal_ids_of_every_table_and_bucket_are_one_object(store):
    with repro.connect(store) as session:
        catalog = session.layout.catalog
        interned = session._dataset.dictionary.interned
        owner = {}  # id -> the first table a cell with it was seen in
        shared = 0
        for name in catalog.table_names():
            for column in catalog.scan_batch(name).batch.ids:
                assert type(column) is list and all_interned(column, interned), name
                for value in set(column):
                    shared += owner.setdefault(value, name) != name
        assert shared > 0  # ids that several tables (and buckets) decoded
        # The selections' position vectors share the same int objects.
        selections = [t for t in session._dataset.tables.values() if isinstance(t, StoredSelection)]
        positions = [vector for table in selections for _, vector in table._positions.values()]
        assert positions and all(all_interned(vector, interned) for vector in positions)


def test_ids_beyond_int32_are_refused_with_the_limit(tmp_path, monkeypatch):
    graph = Graph([Triple(IRI("a"), IRI("p"), IRI("b"))])
    encode = _DictionaryAppender.encode
    monkeypatch.setattr(
        _DictionaryAppender, "encode", lambda self, term: encode(self, term) + MAX_ID
    )
    with pytest.raises(DatasetFormatError, match="exceeds the int32 id limit of 2147483647"):
        repro.create(graph, path=str(tmp_path / "store")).close()


def test_the_largest_int32_id_round_trips():
    data = encode_segment([("s", encode_id_column([MAX_ID, MAX_ID, NULL_ID]))])
    assert decode_segment(data) == {"s": [MAX_ID, MAX_ID, NULL_ID]}


@pytest.mark.parametrize("selections_first", [False, True])
def test_threads_racing_cold_caches_answer_like_one_thread(
    store, small_graph, instantiations, selections_first
):
    """Eight readers, a short switch interval, a freshly connected store: they
    race to fill the decoded-segment, bucket, whole-column and scan caches of
    the VP tables, the position vectors of the selections and the intern
    table, and every answer must be bag-equal to a lone reader's.  Which
    cache is filled while segments are still being decoded (the widest race)
    depends on whether the selections or their VP tables are scanned first."""
    texts = [text for template in BASIC_TEMPLATES for text in instantiations(template, 2)]
    # A delta segment behind most buckets: bucket columns are then merged.
    batch = [
        Triple(triple.subject, triple.predicate, IRI(f"http://example.org/new{index}"))
        for index, triple in enumerate(list(small_graph)[::7])
    ]
    with repro.connect(store) as writer:
        writer.append_triples(batch)
    with repro.connect(store) as reference:
        catalog = reference.layout.catalog
        tables = sorted(
            catalog.table_names(), key=lambda name: name.startswith("extvp_") != selections_first
        )
        expected = {text: bag(reference.query(text).relation.rows) for text in texts}
        scans = {}
        for name in tables:
            rows = catalog.scan(name).relation.rows
            bound = {"s": rows[0][0]} if rows else {}
            bound_rows = catalog.scan(name, conditions=bound).relation.rows
            scans[name] = (bag(rows), bound, bag(bound_rows))
    failures = []
    with repro.connect(store) as session:
        catalog = session.layout.catalog
        start = threading.Barrier(8)

        def reader(offset: int) -> None:
            try:
                start.wait()
                for name in tables:  # all on the same cold table at once
                    rows, bound, bound_rows = scans[name]
                    assert bag(catalog.scan_batch(name).batch.to_relation().rows) == rows, name
                    scan = catalog.scan_batch(name, conditions=bound).batch.to_relation()
                    assert bag(scan.rows) == bound_rows, name
                for step in range(len(texts)):
                    text = texts[(offset * 7 + step) % len(texts)]
                    assert bag(session.query(text).relation.rows) == expected[text], text
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        interned = session._dataset.dictionary.interned
        for table in session._dataset.tables.values():
            if isinstance(table, StoredTable):
                for _, columns in table._arrays.values():
                    assert all(all_interned(column, interned) for column in columns.values())


def test_threads_racing_the_cold_reverse_index_get_the_serial_ids(store, instantiations):
    """Eight threads on a freshly connected store make their first
    ``StoredTermDictionary.lookup`` calls at once, under a short switch
    interval: half of them directly, half through queries whose constants the
    scans look up.  Every id must be the one a lone reader gets, every answer
    a lone reader's, and no thread may find a partly built index."""
    texts = [text for template in BASIC_TEMPLATES for text in instantiations(template, 2)]
    with repro.connect(store) as reference:
        dictionary = reference._dataset.dictionary
        expected = {text: bag(reference.query(text).relation.rows) for text in texts}
        assert dictionary._reverse is not None  # the queries' constants were looked up
        terms = [dictionary.decode(term_id) for term_id in range(len(dictionary))]
        ids = {term: dictionary.lookup(term) for term in terms}
    assert [ids[term] for term in terms] == list(range(len(terms)))
    failures = []
    with repro.connect(store) as session:
        dictionary = session._dataset.dictionary
        assert dictionary._reverse is None  # cold
        start = threading.Barrier(8)

        def look_up(offset: int) -> None:
            for step in range(len(terms)):
                term = terms[(offset * 101 + step) % len(terms)]
                assert dictionary.lookup(term) == ids[term], term
                assert len(dictionary._reverse) == len(terms)

        def run_queries(offset: int) -> None:
            for step in range(len(texts)):
                text = texts[(offset * 7 + step) % len(texts)]
                assert bag(session.query(text).relation.rows) == expected[text], text
                reverse = dictionary._reverse  # None until some constant was looked up
                assert reverse is None or len(reverse) == len(terms)

        def reader(offset: int) -> None:
            try:
                start.wait()
                first, then = (look_up, run_queries) if offset % 2 else (run_queries, look_up)
                first(offset)
                then(offset)
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
