"""Unit tests for the dataset store's on-disk format primitives."""

import os

import pytest

from repro.engine.storage import NULL_ID, ZoneMap, decode_id_column, encode_id_column
from repro.engine.vectorized import ColumnBatch
from repro.rdf.terms import IRI, Literal
from repro.store import format as format_module
from repro.store.format import (
    DatasetFormatError,
    StoredTermDictionary,
    decode_segment,
    encode_segment,
    encode_term_line,
    read_file_range,
    read_manifest,
    write_at,
)


class TestIdColumnCodec:
    @pytest.mark.parametrize(
        "ids",
        [
            [],
            [0],
            [5, 5, 5, 5],
            [1, 2, 3, 2, 1],
            [NULL_ID, 0, NULL_ID, NULL_ID],
            list(range(1000)),
            [7] * 1000,
        ],
    )
    def test_roundtrip(self, ids):
        assert decode_id_column(encode_id_column(ids)) == ids

    def test_rle_compresses_runs(self):
        repeated = encode_id_column([3] * 10_000)
        distinct = encode_id_column(list(range(10_000)))
        assert len(repeated) < len(distinct) / 100

    def test_truncated_page_rejected(self):
        page = encode_id_column([1, 2, 3])
        with pytest.raises(ValueError):
            decode_id_column(page[:-1])
        with pytest.raises(ValueError):
            decode_id_column(b"\x01")


class TestZoneMap:
    def test_from_ids_bounds_and_counts(self):
        zone = ZoneMap.from_ids([4, 2, 9, 2, NULL_ID])
        assert zone.min_id == 2 and zone.max_id == 9
        assert zone.row_count == 5
        assert zone.distinct_count == 3
        assert zone.null_count == 1

    def test_may_contain(self):
        zone = ZoneMap.from_ids([5, 7, 9])
        assert zone.may_contain(5) and zone.may_contain(8)
        assert not zone.may_contain(4) and not zone.may_contain(10)
        assert not zone.may_contain(NULL_ID)

    def test_null_only_segment(self):
        zone = ZoneMap.from_ids([NULL_ID, NULL_ID])
        assert zone.may_contain(NULL_ID)
        assert not zone.may_contain(0)

    def test_empty_segment_contains_nothing(self):
        zone = ZoneMap.from_ids([])
        assert not zone.may_contain(0)
        assert not zone.may_contain(NULL_ID)

    def test_json_roundtrip(self):
        zone = ZoneMap.from_ids([1, 2, NULL_ID])
        assert ZoneMap.from_json(zone.to_json()) == zone


class TestSegmentFile:
    def test_roundtrip_and_projection(self, tmp_path):
        path = str(tmp_path / "table.seg")
        segment = encode_segment(
            [("s", encode_id_column([1, 1, 2])), ("o", encode_id_column([3, 4, 5]))]
        )
        write_at(path, 0, segment)
        assert len(segment) == os.path.getsize(path)
        assert decode_segment(read_file_range(path)) == {"s": [1, 1, 2], "o": [3, 4, 5]}
        # Projection pushdown: only the requested page is decoded.
        assert decode_segment(read_file_range(path), columns=["o"]) == {"o": [3, 4, 5]}

    def test_segments_are_addressed_by_offset_and_length(self, tmp_path):
        """A table file holds segments back to back; a write at the committed
        end replaces whatever lay behind it."""
        path = str(tmp_path / "table.seg")
        first = encode_segment([("s", encode_id_column([1, 2]))])
        second = encode_segment([("s", encode_id_column([7, 8, 9]))])
        write_at(path, 0, first + b"left by a crashed write, longer than the retry")
        write_at(path, len(first), second)
        assert os.path.getsize(path) == len(first) + len(second)
        assert decode_segment(read_file_range(path, 0, len(first))) == {"s": [1, 2]}
        assert decode_segment(read_file_range(path, len(first), len(second))) == {"s": [7, 8, 9]}

    def test_missing_column_rejected(self, tmp_path):
        path = str(tmp_path / "table.seg")
        write_at(path, 0, encode_segment([("s", encode_id_column([1]))]))
        with pytest.raises(DatasetFormatError):
            decode_segment(read_file_range(path), columns=["nope"])

    def test_non_segment_file_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.seg")
        with open(path, "wb") as handle:
            handle.write(b"not a segment")
        with pytest.raises(DatasetFormatError):
            decode_segment(read_file_range(path))


class TestStoredDictionary:
    def test_roundtrip_including_literals(self, tmp_path):
        terms = [
            IRI("http://example.org/s"),
            Literal("plain"),
            Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer"),
            Literal("hi", language="en"),
            Literal('quoted "text"\nwith newline'),
        ]
        StoredTermDictionary.of_terms(terms).write(str(tmp_path))
        stored = StoredTermDictionary.open(str(tmp_path))
        assert len(stored) == len(terms)
        for index, term in enumerate(terms):
            assert stored.decode(index) == term
            assert stored.lookup(term) == index

    def test_carriage_returns_do_not_shift_ids(self, tmp_path):
        """Regression: \\r (and other line separators) must not split a term."""
        terms = [
            Literal("line1\rline2"),
            Literal("u2028 separator"),
            Literal("nel\x85char"),
            IRI("after"),
        ]
        StoredTermDictionary.of_terms(terms).write(str(tmp_path))
        stored = StoredTermDictionary.open(str(tmp_path), expected_size=len(terms))
        for index, term in enumerate(terms):
            assert stored.decode(index) == term

    def test_xsd_string_datatype_survives_roundtrip(self, tmp_path):
        """Regression: n3() suppresses ^^xsd:string; the store must not."""
        typed = Literal("5", datatype="http://www.w3.org/2001/XMLSchema#string")
        plain = Literal("5")
        StoredTermDictionary.of_terms([typed, plain]).write(str(tmp_path))
        stored = StoredTermDictionary.open(str(tmp_path))
        assert stored.decode(0) == typed
        assert stored.decode(1) == plain
        assert stored.lookup(typed) == 0
        assert stored.lookup(plain) == 1

    def test_size_mismatch_detected(self, tmp_path):
        StoredTermDictionary.of_terms([IRI("a"), IRI("b")]).write(str(tmp_path))
        with pytest.raises(DatasetFormatError):
            StoredTermDictionary.open(str(tmp_path), expected_size=3)

    def test_unknown_lookups(self, tmp_path):
        StoredTermDictionary.of_terms([IRI("a")]).write(str(tmp_path))
        stored = StoredTermDictionary.open(str(tmp_path))
        assert stored.lookup(IRI("missing")) is None
        with pytest.raises(KeyError):
            stored.decode(1)
        with pytest.raises(KeyError):
            stored.decode(-1)


class TestDecodeMemo:
    """The dictionary's :class:`TermMemo`: the ``decode`` of every stored batch."""

    def test_trailing_uncommitted_lines_raise_when_lowered(self, tmp_path):
        root = str(tmp_path)
        StoredTermDictionary.of_terms([IRI("a"), IRI("b"), IRI("uncommitted")]).write(root)
        stored = StoredTermDictionary.open(root, expected_size=2)
        decode = stored.terms.__getitem__
        assert ColumnBatch(("t",), [[1, 0]], decode).to_relation().rows == [(IRI("b"),), (IRI("a"),)]
        rogue = ColumnBatch(("t",), [[0, 2]], decode)
        for _ in range(2):  # nothing memoised for it
            with pytest.raises(KeyError, match="unknown term id 2"):
                rogue.to_relation()
        assert 2 not in stored.terms

    def test_null_lowers_to_none(self, tmp_path):
        StoredTermDictionary.of_terms([IRI("a")]).write(str(tmp_path))
        stored = StoredTermDictionary.open(str(tmp_path))
        batch = ColumnBatch(("s", "o"), [[0, NULL_ID], [NULL_ID, NULL_ID]], stored.terms.__getitem__)
        assert batch.to_relation().rows == [(IRI("a"), None), (None, None)]
        with pytest.raises(KeyError):
            stored.decode(NULL_ID)  # no term

    def test_built_and_appended_terms_are_memoised_as_given(self, tmp_path, monkeypatch):
        """``of_terms`` and ``append`` put the terms they were handed in the
        memo: a line two terms share decodes to each one's own term."""
        root = str(tmp_path)
        empty_language = Literal("x", language="")
        built = StoredTermDictionary.of_terms([IRI("a"), empty_language])
        built.write(root)
        stored = StoredTermDictionary.open(root)
        parsed = []
        real = format_module.decode_term_line
        monkeypatch.setattr(
            format_module, "decode_term_line", lambda line: parsed.append(line) or real(line)
        )
        assert built.terms[1] is empty_language and built.decode(0) == IRI("a")
        plain = Literal("x")
        stored.append(root, [IRI("c"), plain])
        assert stored.terms[2] == IRI("c") and stored.terms[3] is plain
        assert parsed == []
        assert stored.decode(0) == IRI("a") and parsed == [encode_term_line(IRI("a"))]


class TestManifest:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            read_manifest(str(tmp_path))
