"""A crash at every write of ``append_triples`` and of ``compact``.

The store's claim: the atomic manifest swap is the only commit point, so
whatever file operation a process dies in, a fresh ``repro.connect`` finds
exactly the pre- or exactly the post-state, and running the operation again
lands in the post-state — what the dead attempt left behind (bytes past the
committed end of table files and of the dictionary, a manifest temp file,
unreferenced table files) is never read and gets overwritten or swept.

The sweep needs no knowledge of *what* the store writes: a fault injector
counts the store's file operations — every ``write``/``truncate`` on a file
it opened for writing, ``os.replace``, ``os.remove`` — and the test dies at
the k-th for every k.  A dying ``write`` gets half of its bytes out first.
Under format v4 an append's write to a table file carries the file's new
delta segments *and* every bitmap that changed, so the sweep also dies between
a bitmap write and the manifest swap, and a compaction's between the sweep of
one superseded file and the next.
"""

import os
import shutil

import pytest

import repro
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.store import format as store_format
from repro.store.format import DatasetFormatError, manifest_path, read_manifest
from repro.tools.inspect import inspect_dataset


class InjectedCrash(Exception):
    """The process 'died' inside a file operation of the store."""


class _CountedFile:
    """A file opened for writing whose writes and truncates are store operations."""

    def __init__(self, handle, injector):
        self._handle = handle
        self._injector = injector

    def write(self, data):
        if self._injector.tick():
            self._handle.write(data[: len(data) // 2])  # a torn write
            self._handle.flush()
            raise InjectedCrash("write")
        return self._handle.write(data)

    def truncate(self, *args):
        if self._injector.tick():
            raise InjectedCrash("truncate")
        return self._handle.truncate(*args)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)


class FaultInjector:
    """Counts the store's file operations; raises at the ``crash_at``-th."""

    def __init__(self, monkeypatch):
        self.operations = 0
        self.crash_at = None
        real_open = open

        def counted_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return _CountedFile(handle, self) if set(mode) & set("wa+") else handle

        # ``open`` is looked up in the module before builtins: this reaches
        # exactly the store's own files, reads pass through untouched.
        monkeypatch.setattr(store_format, "open", counted_open, raising=False)
        for name in ("replace", "remove"):
            monkeypatch.setattr(os, name, self._counted(name, getattr(os, name)))

    def _counted(self, name, real):
        def operation(*args, **kwargs):
            if self.tick():
                raise InjectedCrash(f"os.{name}")
            return real(*args, **kwargs)

        return operation

    def tick(self) -> bool:
        """Count one operation; True when it is the one to die in."""
        self.operations += 1
        if self.operations == self.crash_at:
            self.crash_at = None  # dead processes perform no further operations
            return True
        return False

    def arm(self, crash_at=None):
        self.operations = 0
        self.crash_at = crash_at


@pytest.fixture()
def faults(monkeypatch):
    return FaultInjector(monkeypatch)


def base_triples():
    return [Triple(IRI(f"s{i}"), IRI("p"), IRI(f"o{i % 5}")) for i in range(40)] + [
        Triple(IRI(f"s{i}"), IRI("q"), IRI(f"s{i + 1}")) for i in range(20)
    ]


def update_triples():
    """New rows for old predicates, old rows revived into ExtVP tables, new
    terms, and a new predicate (so the append also creates table files)."""
    return (
        [Triple(IRI(f"s{i}"), IRI("p"), IRI("oNEW")) for i in range(40, 50)]
        + [Triple(IRI(f"s{i}"), IRI("q"), IRI(f"s{i + 1}")) for i in range(20, 45)]
        + [Triple(IRI("x1"), IRI("r"), IRI("s3")), Triple(IRI("x2"), IRI("r"), IRI("x1"))]
    )


PROBES = [
    "SELECT * WHERE { ?x <q> ?y . ?y <p> ?o }",
    "SELECT * WHERE { ?x <q> ?y . ?y <q> ?z }",
    "SELECT ?o WHERE { <s42> <p> ?o }",
    "SELECT * WHERE { ?a <r> ?b . ?b <p> ?o }",
    "SELECT * WHERE { ?s ?anypred ?o . ?o <p> ?v }",
]


def state(path):
    """What a fresh process sees: every probe's bag, and which manifest."""
    with repro.connect(path) as session:
        bags = tuple(
            tuple(sorted(map(repr, session.query(text).relation.rows))) for text in PROBES
        )
    manifest = read_manifest(path)
    segments = sum(entry.segment_count() for entry in manifest.tables.values())
    return bags, manifest.append_epoch, segments


@pytest.fixture()
def appended(tmp_path):
    """A dataset at epoch 0 and a copy of it one committed append later."""
    base = str(tmp_path / "base")
    repro.create(Graph(base_triples()), path=base, num_partitions=4).close()
    after = str(tmp_path / "appended")
    shutil.copytree(base, after)
    with repro.connect(after) as session:
        session.append_triples(update_triples())
    return base, after


def assert_no_byte_unaccounted(path, dead_bytes_allowed):
    """Every file under ``tables/`` is some table's, as long as the manifest
    says, and — once compacted — tiled by the ranges the manifest references."""
    manifest = read_manifest(path)
    assert {f"tables/{name}" for name in os.listdir(os.path.join(path, "tables"))} == {
        entry.file for entry in manifest.tables.values()
    }
    for entry in manifest.tables.values():
        assert os.path.getsize(os.path.join(path, entry.file)) == entry.committed_bytes, entry.name
        if dead_bytes_allowed:
            continue
        end = 0
        for offset, length in sorted(entry.referenced_ranges()):
            assert offset == end, f"{entry.name}: gap or overlap at {end}..{offset}"
            end += length
        assert end == entry.committed_bytes and entry.dead_bytes() == 0


def crash_sweep(faults, start_from, work, operation, dead_bytes_allowed):
    """Die at every file operation of ``operation``; returns the states seen."""

    def fresh():
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(start_from, work)

    fresh()
    pre = state(work)
    with repro.connect(work) as session:
        faults.arm()
        operation(session)
        total = faults.operations
    post = state(work)
    assert post != pre and total > 3

    seen = []
    for k in range(1, total + 1):
        fresh()
        session = repro.connect(work)
        faults.arm(crash_at=k)
        with pytest.raises(InjectedCrash):
            operation(session)
        faults.arm()
        session.close()
        found = state(work)
        assert found in (pre, post), f"crash at operation {k} of {total}: neither pre nor post"
        seen.append(found == post)
        with repro.connect(work) as session:
            operation(session)  # the retry
        assert state(work) == post, f"retry after a crash at operation {k} of {total}"
        # Nothing of the dead attempt is left: no bytes behind a committed
        # end, no file the manifest does not reference.
        assert inspect_dataset(work).uncommitted_bytes == 0, k
        assert_no_byte_unaccounted(work, dead_bytes_allowed)
        manifest = read_manifest(work)
        with open(os.path.join(work, "dictionary.nt"), "rb") as handle:
            assert handle.read().count(b"\n") == manifest.dictionary_size, k
    return seen


def test_append_survives_a_crash_at_every_write(faults, appended, tmp_path):
    base, _ = appended
    work = str(tmp_path / "work")
    seen = crash_sweep(
        faults, base, work, lambda s: s.append_triples(update_triples()), dead_bytes_allowed=True
    )
    # The manifest swap is the append's last operation: dying anywhere,
    # the swap included, leaves the pre-append state.
    assert not any(seen)
    # The sweep did cross bitmap writes: the committed append superseded some.
    assert inspect_dataset(work).dead_bytes > 0


def test_compact_survives_a_crash_at_every_write(faults, appended, tmp_path):
    _, after = appended
    assert inspect_dataset(after).dead_bytes > 0
    seen = crash_sweep(
        faults, after, str(tmp_path / "work"), lambda s: s.compact(), dead_bytes_allowed=False
    )
    # Pre-state up to and including the swap, post-state once the dying
    # operation is one of the deletions behind it — never back again.
    assert True in seen and False in seen
    assert seen == sorted(seen)


def test_session_that_saw_the_failure_recovers_in_place(faults, appended):
    """The same session, not a fresh process: after a failed append it must
    neither serve the half-applied resident state nor build on it."""
    base, after = appended
    expected_pre, expected_post = state(base), state(after)
    with repro.connect(base) as session:
        faults.arm(crash_at=5)
        with pytest.raises(InjectedCrash):
            session.append_triples(update_triples())
        faults.arm()
        bags = tuple(
            tuple(sorted(map(repr, session.query(text).relation.rows))) for text in PROBES
        )
        assert bags == expected_pre[0]
        report = session.append_triples(update_triples())
        assert report.triples_appended == len(update_triples())
    assert state(base) == expected_post


# --------------------------------------------------------------------- #
# Bitmaps that do not belong to the manifest that addresses them
# --------------------------------------------------------------------- #
def _first_bitmap(manifest):
    """``(table entry, selection, bucket)`` of some stored, non-empty bitmap."""
    for entry in manifest.tables.values():
        for selection in entry.selections.values():
            for bucket, bitmap in enumerate(selection.bitmaps):
                if bitmap.rows:
                    return entry, selection, bucket
    raise AssertionError("the dataset has no materialised ExtVP table")


def _rewrite_manifest(path, change):
    import json

    with open(manifest_path(path), encoding="utf-8") as handle:
        data = json.load(handle)
    change(data)
    with open(manifest_path(path), "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def test_a_bitmap_that_disagrees_with_its_recorded_rows_is_refused(appended):
    base, _ = appended
    entry, selection, bucket = _first_bitmap(read_manifest(base))
    bitmap = selection.bitmaps[bucket]
    with open(os.path.join(base, entry.file), "r+b") as handle:
        handle.seek(bitmap.offset)
        blob = handle.read(bitmap.size_bytes)
        handle.seek(bitmap.offset)
        # The last byte is never zero: clearing its lowest set bit leaves one
        # selected row fewer than the manifest says.
        handle.write(blob[:-1] + bytes([blob[-1] & (blob[-1] - 1)]))
    with repro.connect(base) as session:
        with pytest.raises(DatasetFormatError, match="manifest recorded"):
            session.layout.catalog.scan(selection.name)


def test_a_bitmap_longer_than_its_bucket_is_refused(appended):
    base, _ = appended
    entry, selection, bucket = _first_bitmap(read_manifest(base))
    bucket_rows = entry.bucket_row_count(bucket)

    def shrink_the_bucket(data):
        # The bucket now claims fewer rows than the bitmap's highest bit.
        table = next(record for record in data["tables"] if record[0] == entry.name)
        table[9][bucket][2] = 0
        assert bucket_rows > 0

    _rewrite_manifest(base, shrink_the_bucket)
    with repro.connect(base) as session:
        with pytest.raises(DatasetFormatError, match="bucket of 0 rows"):
            session.layout.catalog.scan(selection.name)
