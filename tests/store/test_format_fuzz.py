"""Property tests of the store's byte formats (derandomized: a CI failure
reproduces locally as is).

Four codecs stand between a layout and its bytes: the RLE column page, the
segment that packs pages, the selection bitmap, and the manifest's positional
JSON — which lists the correlations with rows, as the statistics hold them: a
correlation without an entry is empty.  Each must give back exactly what
went in.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.storage import (
    NULL_ID,
    ZoneMap,
    decode_id_column,
    encode_id_column,
)
from repro.mappings.extvp import (
    CorrelationKind,
    ExtVPStatistics,
    ExtVPTableInfo,
    correlation_keys,
)
from repro.mappings.naming import correlation_table_name
from repro.rdf.terms import IRI
from repro.store.format import (
    FORMAT_VERSION,
    BitmapEntry,
    DatasetFormatError,
    DeltaEntry,
    Manifest,
    PartitionEntry,
    SelectionEntry,
    TableEntry,
    decode_bitmap,
    decode_segment,
    encode_bitmap,
    encode_segment,
    read_file_range,
    table_file,
    write_at,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

#: Runs of equal ids (what sorted buckets hold) with NULLs mixed in.  A page
#: stores an id in 32 signed bits: line numbers of ``dictionary.nt``.
ids = st.lists(
    st.tuples(st.one_of(st.just(NULL_ID), st.integers(0, 2**31 - 1)), st.integers(1, 12)),
    max_size=30,
).map(lambda runs: [value for value, length in runs for _ in range(length)])


# --------------------------------------------------------------------- #
# RLE page, segment
# --------------------------------------------------------------------- #
@FUZZ
@given(ids)
def test_rle_page_round_trips(column):
    page = encode_id_column(column)
    assert decode_id_column(page) == column
    # Through an intern table, a second decode repeats the first's int objects.
    interned = {}
    first, second = decode_id_column(page, interned), decode_id_column(page, interned)
    assert second == column and all(map(int.__eq__, map(id, first), map(id, second)))


@FUZZ
@given(st.integers(1, 4).flatmap(
    lambda width: st.integers(0, 40).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(-1, 50), min_size=rows, max_size=rows),
            min_size=width,
            max_size=width,
        )
    )
), st.data())  # fmt: skip
def test_segment_round_trips_with_projection(tmp_path_factory, columns, data):
    names = [f"c{index}" for index in range(len(columns))]
    segment = encode_segment([(n, encode_id_column(c)) for n, c in zip(names, columns)])
    assert decode_segment(segment) == dict(zip(names, columns))
    wanted = data.draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
    assert decode_segment(segment, wanted) == {name: columns[names.index(name)] for name in wanted}
    # In a file, behind other bytes: addressed by offset and length.
    prefix = data.draw(st.binary(max_size=20))
    path = str(tmp_path_factory.mktemp("segment") / "table.seg")
    write_at(path, 0, prefix + segment + b"trailing")
    read = decode_segment(read_file_range(path, len(prefix), len(segment)), wanted)
    assert read == {name: columns[names.index(name)] for name in wanted}
    with pytest.raises(DatasetFormatError):
        decode_segment(segment, ["not-a-column"])


# --------------------------------------------------------------------- #
# Selection bitmaps
# --------------------------------------------------------------------- #
@FUZZ
@given(st.integers(0, 300).flatmap(
    lambda bucket_rows: st.tuples(
        st.just(bucket_rows),
        st.sets(st.integers(0, bucket_rows - 1)) if bucket_rows else st.just(set()),
    )
))  # fmt: skip
def test_bitmap_round_trips(case):
    bucket_rows, selected = case
    blob = encode_bitmap(selected)
    assert decode_bitmap(blob, len(selected), bucket_rows, "fuzz") == sorted(selected)
    # Trailing zeros are not stored: the blob ends at the last selected row.
    assert len(blob) == (max(selected) // 8 + 1 if selected else 0)
    assert not blob or blob[-1] != 0
    # A blob is valid for every bucket at least as long as its reach.
    if selected:
        with pytest.raises(DatasetFormatError):
            decode_bitmap(blob, len(selected), max(selected), "fuzz")
    with pytest.raises(DatasetFormatError):
        decode_bitmap(blob, len(selected) + 1, bucket_rows, "fuzz")


@pytest.mark.parametrize(
    "bucket_rows, selected",
    [
        (0, []),  # a bucket without rows
        (17, []),  # nothing selected
        (17, list(range(17))),  # everything selected
        (17, [0]),
        (17, [16]),
        (1000, [3, 4]),  # much shorter than its bucket
    ],
)
def test_bitmap_corner_cases(bucket_rows, selected):
    blob = encode_bitmap(iter(selected))
    assert decode_bitmap(blob, len(selected), bucket_rows, "corner") == selected
    assert len(blob) <= bucket_rows // 8 + 1


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
def _zone(draw, row_count):
    return ZoneMap(
        draw(st.integers(-1, 30)),
        draw(st.integers(-1, 60)),
        row_count,
        draw(st.integers(0, 9)),
        draw(st.integers(0, 3)),
    )


def _segment(draw, cls, file, columns, offset, **extra):
    row_count = draw(st.integers(0, 40))
    return cls(
        file=file,
        row_count=row_count,
        size_bytes=draw(st.integers(1, 500)),
        zones={column: _zone(draw, row_count) for column in columns},
        offset=offset,
        **extra,
    )


@st.composite
def manifests(draw):
    count = draw(st.integers(1, 4))
    num_buckets = draw(st.integers(1, 3))
    include_oo = draw(st.booleans())
    predicates = [IRI(f"http://example.org/p{index}") for index in range(count)]
    tables, vp_tables, vp_value_sets = {}, {}, {}
    names = [f"vp_p{index}" for index in range(count)] + draw(st.sampled_from([[], ["triples"]]))
    for name in names:
        columns = ("s", "p", "o") if name == "triples" else ("s", "o")
        generation = draw(st.integers(0, 3))
        file = table_file(name, generation)
        offset = 0
        partitions = []
        if draw(st.booleans()):  # else: a delta-only table, as an append creates
            for _ in range(num_buckets):
                partitions.append(_segment(draw, PartitionEntry, file, columns, offset))
                offset += partitions[-1].size_bytes
        deltas = []
        for _ in range(draw(st.integers(0 if partitions else 1, 3))):
            deltas.append(
                _segment(
                    draw, DeltaEntry, file, columns, offset,
                    bucket=draw(st.integers(0, num_buckets - 1)), epoch=draw(st.integers(1, 5)),
                )  # fmt: skip
            )
            offset += deltas[-1].size_bytes
        tables[name] = TableEntry(
            name=name,
            columns=columns,
            row_count=draw(st.integers(0, 200)),
            selectivity=draw(st.sampled_from([1.0, 0.5, 0.125])),
            distinct_subjects=draw(st.integers(0, 50)),
            distinct_objects=draw(st.integers(0, 50)),
            partition_keys=("s",),
            num_buckets=num_buckets,
            partitions=partitions,
            deltas=deltas,
            generation=generation,
        )
    for predicate, name in zip(predicates, names):
        vp_tables[predicate] = {"table": name, "size": tables[name].row_count}
        vp_value_sets[predicate] = {
            column: draw(st.sets(st.integers(0, 99), max_size=6)) for column in ("s", "o")
        }
    extvp = ExtVPStatistics()
    for kind, first, second in correlation_keys(predicates, include_oo):
        entry = tables[vp_tables[first]["table"]]
        # Most correlations are empty (no entry); some have rows and no table
        # (SF = 1, or above the threshold); some are selections.
        shape = draw(st.sampled_from(["empty", "empty", "statistics", "selection"]))
        if shape == "empty" or not entry.row_count:
            continue
        name = correlation_table_name(kind.value, entry.name, vp_tables[second]["table"])
        rows = draw(st.integers(1, entry.row_count))
        materialized = shape == "selection"
        extvp.add(ExtVPTableInfo(name, kind, first, second, rows, entry.row_count, materialized))
        if materialized:
            entry.selections[name] = SelectionEntry(
                name=name,
                row_count=rows,
                distinct_subjects=draw(st.integers(1, rows)),
                distinct_objects=draw(st.integers(1, rows)),
                bitmaps=[
                    draw(
                        st.one_of(
                            st.just(BitmapEntry()),
                            st.builds(
                                BitmapEntry,
                                st.integers(0, 9000),
                                st.integers(1, 40),
                                st.integers(1, 300),
                            ),
                        )
                    )
                    for _ in range(num_buckets)
                ],
            )
    return Manifest(
        format_version=FORMAT_VERSION,
        layout_name="extvp",
        num_buckets=num_buckets,
        selectivity_threshold=draw(st.sampled_from([1.0, 0.25])),
        include_oo=include_oo,
        namespaces=draw(st.sampled_from([{}, {"ex": "http://example.org/"}])),
        dictionary_size=draw(st.integers(0, 500)),
        tables=tables,
        vp_tables=vp_tables,
        extvp=extvp,
        append_epoch=draw(st.integers(0, 9)),
        vp_value_sets=vp_value_sets,
    )


@FUZZ
@given(manifests())
def test_manifest_round_trips_through_json(manifest):
    encoded = json.dumps(manifest.to_json(), separators=(",", ":"))
    decoded = Manifest.from_json(json.loads(encoded))
    assert decoded == manifest
    # Same content, same bytes — whatever order the statistics were added in.
    assert json.dumps(decoded.to_json(), separators=(",", ":")) == encoded
    shuffled = ExtVPStatistics()
    for info in reversed(list(manifest.extvp.tables.values())):
        shuffled.add(info)
    manifest.extvp = shuffled
    assert json.dumps(manifest.to_json(), separators=(",", ":")) == encoded
    # Listed are the held correlations, which are those with rows.
    assert len(json.loads(encoded)["extvp"]) == len(manifest.extvp)
    assert all(info.row_count for info in decoded.extvp.tables.values())


@FUZZ
@given(manifests(), st.data())
def test_statistics_the_manifest_cannot_imply_are_not_written(manifest, data):
    """``to_json`` writes every held entry, so it must refuse one the
    manifest cannot hold rather than write it: a zero-row entry (absence is
    the encoding of an empty correlation) or one relative to a stale
    ``|VP_first|``."""
    damages = ["zero rows", "stale size"] if manifest.extvp.tables else ["zero rows"]
    if data.draw(st.sampled_from(damages)) == "zero rows":
        keys = correlation_keys(list(manifest.vp_tables), manifest.include_oo)
        kind, first, second = data.draw(st.sampled_from(keys))
        tables = manifest.vp_tables
        name = correlation_table_name(kind.value, tables[first]["table"], tables[second]["table"])
        manifest.extvp.add(
            ExtVPTableInfo(name, kind, first, second, 0, tables[first]["size"], False)
        )
    else:
        victim = data.draw(st.sampled_from(sorted(manifest.extvp.tables, key=str)))
        manifest.extvp.tables[victim].vp_row_count += 1
    with pytest.raises(ValueError):
        manifest.to_json()


@pytest.mark.parametrize(
    "records, match",
    [
        ([["os", 0, 1, 2, 0]], "names no listed predicate"),
        ([["os", -1, 0, 2, 0]], "names no listed predicate"),
        ([["xx", 0, 0, 2, 0]], "unknown correlation kind"),
        ([["oo", 0, 0, 2, 0]], "does not keep"),  # OO only with include_oo
        ([["ss", 0, 0, 2, 0]], "does not keep"),  # SS of a predicate with itself
        ([["os", 0, 0, 0, 0]], "without rows"),  # absence is the encoding of empty
        ([["os", 0, 0, 2, 0], ["os", 0, 0, 2, 0]], "listed twice"),
    ],
    ids=["index", "negative-index", "unknown-kind", "oo", "ss-self", "zero-rows", "duplicate"],
)
def test_a_listed_correlation_the_predicates_do_not_imply_is_refused(records, match):
    predicate = IRI("http://example.org/p")
    entry = TableEntry("vp_p", ("s", "o"), 3, 1.0, 3, 3, ("s",), num_buckets=1)
    manifest = Manifest(
        FORMAT_VERSION, "extvp", 1, 1.0, False, {}, 0, {"vp_p": entry},
        {predicate: {"table": "vp_p", "size": 3}}, ExtVPStatistics(),
        vp_value_sets={predicate: {"s": set(), "o": set()}},
    )  # fmt: skip
    data = manifest.to_json()
    assert data["extvp"] == []
    data["extvp"].append(["so", 0, 0, 1, 0])  # a valid record decodes
    decoded = Manifest.from_json(data).extvp
    assert decoded.lookup(CorrelationKind.SO, predicate, predicate).row_count == 1
    data["extvp"].extend(records)
    with pytest.raises(DatasetFormatError, match=match):
        Manifest.from_json(data)
