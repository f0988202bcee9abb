"""Tests for the in-memory table (storage/memtable)."""

import pytest

from repro.errors import IndexNotFoundError, SchemaError, StorageError
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.storage.memtable import MemTable, normalize_ts
from repro.storage import skiplist
from repro.storage.skiplist import ColumnBlock, TimeSeriesIndex
from tests.conftest import scanned


@pytest.fixture
def table(events_schema, events_index):
    return MemTable("events", events_schema, [events_index])


class TestConstruction:
    def test_requires_an_index(self, events_schema):
        with pytest.raises(SchemaError):
            MemTable("t", events_schema, [])

    def test_index_columns_validated(self, events_schema):
        with pytest.raises(SchemaError):
            MemTable("t", events_schema,
                     [IndexDef(("missing",), "ts")])

    def test_ts_column_must_be_time_typed(self, events_schema):
        with pytest.raises(SchemaError):
            MemTable("t", events_schema,
                     [IndexDef(("key",), "label")])

    def test_bigint_ts_accepted(self):
        schema = Schema.from_pairs([("k", "string"), ("seq", "bigint")])
        MemTable("t", schema, [IndexDef(("k",), "seq")])


class TestInsertAndScan:
    def test_insert_returns_offsets(self, table):
        assert table.insert(("a", 1, 1.0, "x")) == 0
        assert table.insert(("a", 2, 2.0, "y")) == 1
        assert table.row_count == 2

    def test_rows_in_insertion_order(self, table):
        table.insert(("a", 2, 1.0, "x"))
        table.insert(("a", 1, 2.0, "y"))
        assert [row[1] for row in table.rows()] == [2, 1]

    def test_window_scan_newest_first(self, table):
        for ts in (10, 30, 20):
            table.insert(("a", ts, float(ts), "x"))
        result = [ts for ts, _row in
                  scanned(table.window_scan_blocks(("key",), "ts", "a"))]
        assert result == [30, 20, 10]

    def test_window_scan_bounds(self, table):
        for ts in range(0, 100, 10):
            table.insert(("a", ts, float(ts), "x"))
        result = [ts for ts, _row in scanned(table.window_scan_blocks(
            ("key",), "ts", "a", start_ts=50, end_ts=30))]
        assert result == [50, 40, 30]

    def test_window_scan_limit(self, table):
        for ts in range(10):
            table.insert(("a", ts, 0.0, "x"))
        result = scanned(table.window_scan_blocks(("key",), "ts", "a",
                                                  limit=3))
        assert len(result) == 3

    def test_unknown_index_raises(self, table):
        with pytest.raises(IndexNotFoundError):
            scanned(table.window_scan_blocks(("label",), "ts", "x"))

    def test_validation_on_insert(self, table):
        with pytest.raises(Exception):
            table.insert(("a", "not-a-ts", 1.0, "x"))


class TestLastJoinLookup:
    def test_latest_row(self, table):
        table.insert(("a", 10, 1.0, "x"))
        table.insert(("a", 20, 2.0, "y"))
        table.insert(("b", 99, 3.0, "z"))
        hit = table.last_join_lookup(("key",), "a")
        assert hit == (20, ("a", 20, 2.0, "y"))

    def test_before_ts(self, table):
        table.insert(("a", 10, 1.0, "x"))
        table.insert(("a", 20, 2.0, "y"))
        hit = scanned(table.window_scan_blocks(("key",), "ts", "a",
                                               start_ts=15, limit=1))[0]
        assert hit[0] == 10

    def test_miss_returns_none(self, table):
        assert table.last_join_lookup(("key",), "nope") is None


class TestMultipleIndexes:
    def test_each_index_serves_its_keys(self, events_schema):
        table = MemTable("t", events_schema, [
            IndexDef(("key",), "ts"),
            IndexDef(("label",), "ts"),
        ])
        table.insert(("a", 1, 1.0, "red"))
        table.insert(("b", 2, 2.0, "red"))
        by_key = scanned(table.window_scan_blocks(("key",), "ts", "a"))
        by_label = scanned(table.window_scan_blocks(("label",), "ts", "red"))
        assert len(by_key) == 1
        assert len(by_label) == 2

    def test_two_indexes_keep_rows_whole_under_late_arrivals(
            self, events_schema, monkeypatch):
        """Each index lays the row out in its own per-key columns; a
        late tuple is spliced into the middle of both, and an eviction
        cuts a prefix of both.  Every row must still come back whole,
        beside its own timestamp, on either access path.  Blocks seal at
        two tuples here, so "red"'s second late row lands in a sealed
        block, which is rebuilt around it."""
        monkeypatch.setattr(skiplist, "BLOCK_ROWS", 2)
        table = MemTable("t", events_schema, [
            IndexDef(("key",), "ts"),
            IndexDef(("label",), "ts",
                     ttl=TTLSpec(kind=TTLKind.LATEST, lat_ttl=4)),
        ])
        arrivals = [("a", 50, 5.0, "red"), ("b", 60, 6.0, "red"),
                    ("a", 10, 1.0, "blue"),   # late on key "a"
                    ("a", 30, None, "red"),   # late on both indexes
                    ("b", 30, 3.5, "red"),    # ties ("red", 30), later
                    ("a", 70, 7.0, "red")]
        for row in arrivals:
            table.insert(row)
        by_key = scanned(table.window_scan_blocks(("key",), "ts", "a"))
        assert by_key == [(70, arrivals[5]), (50, arrivals[0]),
                          (30, arrivals[3]), (10, arrivals[2])]
        by_label = scanned(table.window_scan_blocks(("label",), "ts", "red"))
        assert by_label == [(70, arrivals[5]), (60, arrivals[1]),
                            (50, arrivals[0]), (30, arrivals[4]),
                            (30, arrivals[3])]
        blocks = table.window_scan_blocks(("label",), "ts", "red",
                                          start_ts=60)
        # The tail's part, then the sealed block the late rows rebuilt.
        assert [len(block) for block in blocks] == [1, 3]
        assert [block.sealed for block in blocks] == [False, True]
        assert [block.column(2) for block in blocks] == [
            [6.0], [None, 3.5, 5.0]]  # oldest → newest within a block
        assert table.last_join_lookup(("label",), "red") \
            == (70, arrivals[5])
        assert scanned(table.window_scan_blocks(
            ("key",), "ts", "a", start_ts=49, limit=1)) == [(30, arrivals[3])]
        assert table.evict_expired(1_000) == 1  # "red" keeps its 4 newest
        assert scanned(table.window_scan_blocks(("label",), "ts", "red")) \
            == by_label[:4]
        assert scanned(table.window_scan_blocks(("key",), "ts", "a")) == by_key

    def test_composite_key(self, events_schema):
        table = MemTable("t", events_schema,
                         [IndexDef(("key", "label"), "ts")])
        table.insert(("a", 1, 1.0, "red"))
        table.insert(("a", 2, 2.0, "blue"))
        rows = scanned(table.window_scan_blocks(("key", "label"), "ts",
                                                ("a", "red")))
        assert len(rows) == 1


class TestColumnBlocks:
    def test_merged_scans_keep_source_order_on_ties(self):
        """The k-way merge of window unions and the cluster fan-out:
        newest-first, the first source leading on equal timestamps and
        arrival order kept within a source, capped to the newest."""
        first = [ColumnBlock.from_pairs(
            [(7, ("a", 7)), (5, ("a", 5)), (5, ("a2", 5))], 2)]
        second = [ColumnBlock.from_pairs([(9, ("b", 9))], 2),
                  ColumnBlock.from_pairs([(5, ("b", 5)), (1, ("b", 1))], 2)]
        merged = ColumnBlock.merged([first, second], 2)
        assert list(merged) == [
            (9, ("b", 9)), (7, ("a", 7)), (5, ("a", 5)), (5, ("a2", 5)),
            (5, ("b", 5)), (1, ("b", 1))]
        assert merged.column(0) == ["b", "b", "a2", "a", "a", "b"]
        assert list(ColumnBlock.merged([first, second], 2, limit=3)) \
            == list(merged)[:3]
        assert len(ColumnBlock.merged([[], []], 2)) == 0

    def test_row_width_is_enforced(self):
        """A short row would shift every later row of the key by a
        cell; an index told its width refuses it instead."""
        index = TimeSeriesIndex(width=3)
        index.put("k", 1, ("k", 1, 1.0))
        with pytest.raises(StorageError):
            index.put("k", 2, ("k", 2))
        assert scanned(index.scan_blocks("k")) == [(1, ("k", 1, 1.0))]


class TestSubscribersAndMemory:
    def test_memory_bytes_grow(self, table):
        before = table.memory_bytes
        table.insert(("a", 1, 1.0, "payload"))
        assert table.memory_bytes > before

    def test_key_cardinality(self, table):
        for key in ("a", "b", "a", "c"):
            table.insert((key, 1, 0.0, "x"))
        assert table.key_cardinality() == 3


class TestEviction:
    def test_evict_expired_frees_index_not_log(self, events_schema):
        ttl = TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=100)
        table = MemTable("t", events_schema,
                         [IndexDef(("key",), "ts", ttl=ttl)])
        for ts in (0, 50, 950):
            table.insert(("a", ts, 0.0, "x"))
        removed = table.evict_expired(now_ts=1000)
        assert removed == 2
        assert len(scanned(table.window_scan_blocks(("key",), "ts", "a"))) == 1
        assert table.row_count == 3  # the log backs offline scans


class TestNormalizeTs:
    def test_int_passthrough(self):
        assert normalize_ts(12345) == 12345

    def test_datetime(self):
        import datetime
        moment = datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc)
        assert normalize_ts(moment) == int(moment.timestamp() * 1000)

    def test_bad_type_raises(self):
        with pytest.raises(Exception):
            normalize_ts("noon")

    def test_naive_datetime_is_utc_regardless_of_local_tz(self):
        """Regression: a naive datetime used to go through the *local*
        timezone, so the same dataset bucketed differently per machine
        (train/serve skew).  Pin TZ to three zones and demand the same
        milliseconds — the UTC epoch — from all of them."""
        import datetime
        import os
        import time
        naive = datetime.datetime(2024, 1, 1, 12, 0, 0)
        expected = int(naive.replace(
            tzinfo=datetime.timezone.utc).timestamp() * 1000)
        original = os.environ.get("TZ")
        results = {}
        try:
            for zone in ("UTC", "America/New_York", "Asia/Tokyo"):
                os.environ["TZ"] = zone
                time.tzset()
                results[zone] = normalize_ts(naive)
        finally:
            if original is None:
                os.environ.pop("TZ", None)
            else:
                os.environ["TZ"] = original
            time.tzset()
        assert all(value == expected for value in results.values()), \
            results

    def test_aware_datetime_honors_its_own_offset(self):
        import datetime
        tokyo = datetime.timezone(datetime.timedelta(hours=9))
        moment = datetime.datetime(2024, 1, 1, 9, 0, tzinfo=tokyo)
        midnight_utc = datetime.datetime(
            2024, 1, 1, 0, 0, tzinfo=datetime.timezone.utc)
        assert normalize_ts(moment) == normalize_ts(midnight_utc)
