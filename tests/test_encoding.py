"""Tests for the compact row encoding (paper Section 7.1)."""

import datetime
import hashlib
import pathlib
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro import OpenMLDB
from repro.errors import EncodingError
from repro.schema import Column, IndexDef, Schema
from repro.storage.encoding import RowCodec, encoded_size, redis_row_size
from repro.types import ColumnType

D = datetime.date
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def spark_row_size(schema, row):
    """UnsafeRow-style byte accounting, the paper's comparison point.

    Layout: a NULL bit set rounded up to 8-byte words, one 8-byte word per
    field (fixed values inline; var-length fields store offset+length in
    the word), plus the raw bytes of each var-length value.  Reproduces the
    paper's worked example of 556 bytes for the 65-column row.
    """
    words = (len(schema) + 63) // 64
    size = 8 * words + 8 * len(schema)
    for column, value in zip(schema.columns, row):
        if column.type is ColumnType.STRING and value is not None:
            size += len(value.encode("utf-8"))
    return size


@pytest.fixture
def mixed_schema():
    return Schema.from_pairs([
        ("flag", "bool"), ("small", "smallint"), ("n", "int"),
        ("big", "bigint"), ("f", "float"), ("d", "double"),
        ("when", "timestamp"), ("day", "date"), ("name", "string"),
        ("tag", "string"),
    ])


class TestRoundTrip:
    def test_simple_roundtrip(self, mixed_schema):
        codec = RowCodec(mixed_schema)
        row = (True, 12, 42, 1 << 40, 1.5, 2.25, 1_700_000_000_000,
               datetime.date(2024, 2, 29), "hello", "world")
        assert codec.decode(codec.encode(row)) == row

    def test_nulls_roundtrip(self, mixed_schema):
        codec = RowCodec(mixed_schema)
        row = (None,) * 10
        assert codec.decode(codec.encode(row)) == row

    def test_mixed_nulls(self, mixed_schema):
        codec = RowCodec(mixed_schema)
        row = (False, None, 7, None, None, 3.5, 12345, None, None, "x")
        assert codec.decode(codec.encode(row)) == row

    def test_empty_string_distinct_from_null(self, mixed_schema):
        codec = RowCodec(mixed_schema)
        row = (True, 1, 1, 1, 1.0, 1.0, 1, datetime.date(2020, 1, 1),
               "", None)
        decoded = codec.decode(codec.encode(row))
        assert decoded[8] == ""
        assert decoded[9] is None

    def test_unicode_strings(self):
        schema = Schema.from_pairs([("s", "string")])
        codec = RowCodec(schema)
        row = ("héllo wörld — 中文",)
        assert codec.decode(codec.encode(row)) == row

    def test_size_field_matches_length(self, mixed_schema):
        codec = RowCodec(mixed_schema)
        row = (True, 1, 2, 3, 1.0, 2.0, 5, datetime.date(2021, 6, 1),
               "abc", "defg")
        encoded = codec.encode(row)
        assert codec.encoded_size(row) == len(encoded)

    def test_float_precision_is_single(self):
        schema = Schema.from_pairs([("f", "float")])
        codec = RowCodec(schema)
        decoded = codec.decode(codec.encode((1.1,)))
        assert decoded[0] == pytest.approx(1.1, rel=1e-6)


class TestErrors:
    def test_wrong_arity(self, mixed_schema):
        with pytest.raises(EncodingError):
            RowCodec(mixed_schema).encode((1, 2))

    def test_schema_version_mismatch(self, mixed_schema):
        writer = RowCodec(mixed_schema, schema_version=1)
        reader = RowCodec(mixed_schema, schema_version=2)
        data = writer.encode((None,) * 10)
        with pytest.raises(EncodingError):
            reader.decode(data)

    def test_truncated_buffer(self, mixed_schema):
        with pytest.raises(EncodingError):
            RowCodec(mixed_schema).decode(b"\x01\x02")

    def test_version_bounds(self, mixed_schema):
        with pytest.raises(EncodingError):
            RowCodec(mixed_schema, schema_version=64)


class TestPaperExample:
    """The worked example of Section 7.1: 20 ints + 20 floats + 20
    one-byte strings + 5 timestamps → 255 B compact vs 556 B Spark."""

    @pytest.fixture
    def example(self):
        pairs = ([(f"i{n}", "int") for n in range(20)]
                 + [(f"f{n}", "float") for n in range(20)]
                 + [(f"s{n}", "string") for n in range(20)]
                 + [(f"t{n}", "timestamp") for n in range(5)])
        schema = Schema(Schema.from_pairs(pairs).columns)
        row = tuple([1] * 20 + [1.0] * 20 + ["x"] * 20 + [1] * 5)
        return schema, row

    def test_compact_size_is_255(self, example):
        schema, row = example
        assert encoded_size(schema, row) == 255

    def test_spark_size_is_556(self, example):
        schema, row = example
        assert spark_row_size(schema, row) == 556

    def test_memory_saving_over_54_percent(self, example):
        schema, row = example
        saving = 1 - encoded_size(schema, row) / spark_row_size(schema, row)
        assert saving > 0.54

    def test_encode_really_produces_255_bytes(self, example):
        schema, row = example
        assert len(RowCodec(schema).encode(row)) == 255


class TestOffsetWidths:
    def test_small_row_uses_one_byte_offsets(self):
        schema = Schema.from_pairs([("a", "string"), ("b", "string")])
        codec = RowCodec(schema)
        # header 6 + bitmap 1 + 2×1B offsets + 2 bytes payload = 11
        assert codec.encoded_size(("x", "y")) == 11

    def test_larger_row_upgrades_offset_width(self):
        schema = Schema.from_pairs([("a", "string")])
        codec = RowCodec(schema)
        big = "z" * 300
        size = codec.encoded_size((big,))
        # header 6 + bitmap 1 + 2B offset + 300 payload
        assert size == 6 + 1 + 2 + 300
        assert codec.decode(codec.encode((big,)))[0] == big

    def test_huge_row_uses_four_byte_offsets(self):
        schema = Schema.from_pairs([("a", "string")])
        codec = RowCodec(schema)
        big = "q" * 70_000
        assert codec.encoded_size((big,)) == 6 + 1 + 4 + 70_000
        assert codec.decode(codec.encode((big,)))[0] == big


class TestRedisModel:
    def test_redis_always_larger_than_compact(self, mixed_schema):
        row = (True, 1, 2, 3, 1.0, 2.0, 5, datetime.date(2021, 6, 1),
               "abc", "defg")
        compact = encoded_size(mixed_schema, row)
        redis = redis_row_size(mixed_schema, row, key_bytes=3)
        assert redis > compact

    def test_redis_counts_string_payloads(self):
        schema = Schema.from_pairs([("s", "string")])
        short = redis_row_size(schema, ("ab",), key_bytes=2)
        long = redis_row_size(schema, ("ab" * 50,), key_bytes=2)
        assert long - short == 98


@st.composite
def schema_and_row(draw):
    type_pool = ["bool", "int", "bigint", "double", "timestamp", "string"]
    count = draw(st.integers(min_value=1, max_value=12))
    types = [draw(st.sampled_from(type_pool)) for _ in range(count)]
    schema = Schema.from_pairs([(f"c{i}", t) for i, t in enumerate(types)])
    row = []
    for type_name in types:
        if draw(st.integers(0, 4)) == 0:
            row.append(None)
        elif type_name == "bool":
            row.append(draw(st.booleans()))
        elif type_name == "int":
            row.append(draw(st.integers(-(2 ** 31), 2 ** 31 - 1)))
        elif type_name == "bigint":
            row.append(draw(st.integers(-(2 ** 63), 2 ** 63 - 1)))
        elif type_name == "double":
            row.append(draw(st.floats(allow_nan=False,
                                      allow_infinity=False, width=64)))
        elif type_name == "timestamp":
            row.append(draw(st.integers(0, 2 ** 62)))
        else:
            row.append(draw(st.text(max_size=40)))
    return schema, tuple(row)


@settings(max_examples=200, deadline=None)
@given(schema_and_row())
def test_roundtrip_property(case):
    schema, row = case
    codec = RowCodec(schema)
    encoded = codec.encode(row)
    assert codec.decode(encoded) == row
    assert codec.encoded_size(row) == len(encoded)


# ---------------------------------------------------------------------
# the format is pinned: golden bytes from the encoder the WAL and
# snapshot images were first written with

GOLDEN_SCHEMAS = {
    "mixed": [("flag", "bool"), ("small", "smallint"), ("n", "int"),
              ("big", "bigint"), ("f", "float"), ("d", "double"),
              ("when", "timestamp"), ("day", "date"), ("name", "string"),
              ("tag", "string")],
    "point": [("k", "bigint"), ("ts", "timestamp"), ("a", "bigint"),
              ("b", "bigint"), ("c", "bigint")],
    "strings": [("s", "string"), ("t", "string"), ("u", "string")],
    "wide": [(f"c{i}", "int" if i % 3 else "double") for i in range(17)],
}

#: (schema, row, hex of its encoding): every column type, NULLs in fixed
#: and variable columns, non-ASCII strings, one- and two-byte offsets,
#: a three-byte NULL bitmap.
GOLDEN = [
    ("mixed",
     (True, 12, 42, 1 << 40, 1.5, 2.25, 1_700_000_000_000, D(2024, 2, 29),
      "hello", "world"),
     "01013b0000000000010c002a00000000000000000100000000c03f0000000000"
     "0002400068e5cf8b01000065d73401363b68656c6c6f776f726c64"),
    ("mixed",
     (False, -32768, 2 ** 31 - 1, -2 ** 63, 0.1, -0.0, 0, D(1, 1, 1), "",
      None),
     "0101310000000002000080ffffff7f0000000000000080cdcccc3d0000000000"
     "0000800000000000000000752700003131"),
    ("mixed", (None,) * 10,
     "010131000000ff03000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000003131"),
    ("mixed", (False, None, 7, None, None, 3.5, 12345, None, None, "x"),
     "0101320000009a01000000070000000000000000000000000000000000000000"
     "000c40393000000000000000000000313278"),
    ("mixed",
     (True, 32767, -2 ** 31, 2 ** 63 - 1, -3.4e38, 1e308, 2 ** 63 - 1,
      D(9999, 12, 31), "héllo wörld — 中文", "🙂"),
     "01014d000000000001ff7f00000080ffffffffffffff7f9ec97fffa0c8eb85f3"
     "cce17fffffffffffffff7fbfbef505494d68c3a96c6c6f2077c3b6726c6420e2"
     "809420e4b8ade69687f09f9982"),
    ("mixed",
     (None, 1, 2, 3, 1e-45, 5e-324, 5, D(2021, 6, 1), None, "ünïcødé"),
     "01013c0000000101000100020000000300000000000000010000000100000000"
     "0000000500000000000000a9633401313cc3bc6ec3af63c3b864c3a9"),
    ("point", (0, 1_000_000, 3, 4, 5),
     "01012f00000000000000000000000040420f0000000000030000000000000004"
     "000000000000000500000000000000"),
    ("point", (1999, 1_000_010, 0, 9, 9),
     "01012f00000000cf070000000000004a420f0000000000000000000000000009"
     "000000000000000900000000000000"),
    ("point", (-1, 0, None, None, 2 ** 63 - 1),
     "01012f0000000cffffffffffffffff0000000000000000000000000000000000"
     "00000000000000ffffffffffffff7f"),
    ("strings", ("a", "bc", "def"), "010110000000000b0d10616263646566"),
    ("strings", (None, "é", None), "01010c000000050a0c0cc3a9"),
    ("strings", ("x" * 300, "中" * 10, ""),
     "01015701000000390157015701" + "78" * 300 + "e4b8ad" * 10),
    ("strings", (None, None, None), "01010a000000070a0a0a"),
    ("wide", tuple(float(i) if i % 3 == 0 else i for i in range(17)),
     "0101650000000000000000000000000000010000000200000000000000000008"
     "4004000000050000000000000000001840070000000800000000000000000022"
     "400a0000000b00000000000000000028400d0000000e0000000000000000002e"
     "4010000000"),
    ("wide",
     tuple(None if i % 2 else (0.5 if i % 3 == 0 else -i)
           for i in range(17)),
     "010165000000aaaa00000000000000e03f00000000feffffff00000000000000"
     "00fcffffff00000000000000000000e03f00000000f8ffffff00000000000000"
     "00f6ffffff00000000000000000000e03f00000000f2ffffff00000000000000"
     "00f0ffffff"),
]


@pytest.mark.parametrize("name,row,expected", GOLDEN, ids=[
    f"{name}-{index}" for index, (name, _row, _hex) in enumerate(GOLDEN)])
def test_encoding_is_byte_identical_to_the_pinned_format(name, row,
                                                         expected):
    codec = RowCodec(Schema.from_pairs(GOLDEN_SCHEMAS[name]))
    encoded = codec.encode(row)
    assert encoded.hex() == expected
    assert codec.encoded_size(row) == len(encoded)
    assert codec.encode(codec.decode(encoded)) == encoded


def test_four_byte_offsets_are_pinned():
    codec = RowCodec(Schema.from_pairs(GOLDEN_SCHEMAS["strings"]))
    encoded = codec.encode(("y" * 70_000, "é" * 3, None))
    assert len(encoded) == 70_025
    assert hashlib.sha256(encoded).hexdigest() == (
        "2525023a9826567d18addb11c411451300e7b0a7b99b257ed7d2a8976ff73c76")


def test_pack_failure_names_the_value_and_column():
    codec = RowCodec(Schema.from_pairs([("a", "int"), ("s", "string")]))
    with pytest.raises(EncodingError, match="cannot pack 1099511627776 as "
                                            "int: 'i' format requires"):
        codec.encode((1 << 40, None))
    with pytest.raises(EncodingError, match="cannot pack 'x' as int"):
        codec.encode(("x", "y"))


#: The rows ``fixtures/binlog-000000000000.wal`` holds, written through
#: ``OpenMLDB.insert`` into table ``events`` by the first encoder.
WAL_SCHEMA = Schema([Column("user", ColumnType.STRING, nullable=False),
                     Column("ts", ColumnType.TIMESTAMP, nullable=False),
                     Column("amount", ColumnType.DOUBLE),
                     Column("n", ColumnType.INT),
                     Column("day", ColumnType.DATE),
                     Column("ok", ColumnType.BOOL),
                     Column("note", ColumnType.STRING)])
WAL_ROWS = [
    ("alice", 1000, 12.5, 3, D(2024, 1, 2), True, "first"),
    ("bob", 1001, None, None, None, None, None),
    ("çarla", 1002, -0.0, -7, D(1999, 12, 31), False, "naïve — 中文"),
    ("alice", 1003, 7, 2 ** 31 - 1, D(2024, 1, 3), True, ""),
    ("dave", 1004, 1e300, -2 ** 31, None, False, "🙂" * 3),
]
WAL_SEGMENT = "binlog-000000000000.wal"
#: Where a node keeps the table's one partition WAL under its data_dir.
WAL_DIR = "binlog/events/p0"


def _wal_db(data_dir):
    db = OpenMLDB(data_dir=str(data_dir))
    db.create_table("events", WAL_SCHEMA,
                    indexes=[IndexDef(("user",), "ts")])
    return db


def test_checked_in_wal_segment_replays(tmp_path):
    (tmp_path / WAL_DIR).mkdir(parents=True)
    shutil.copy(FIXTURES / WAL_SEGMENT, tmp_path / WAL_DIR)
    db = _wal_db(tmp_path)
    report = db.recover()
    assert report.replayed_entries == len(WAL_ROWS)
    assert list(db.table("events").rows()) == [
        WAL_SCHEMA.validate_row(row) for row in WAL_ROWS]
    db.close()


def test_wal_segment_bytes_are_unchanged(tmp_path):
    db = _wal_db(tmp_path)
    for row in WAL_ROWS:
        db.insert("events", row)
    db.close()
    written = (tmp_path / WAL_DIR / WAL_SEGMENT).read_bytes()
    assert written == (FIXTURES / WAL_SEGMENT).read_bytes()
