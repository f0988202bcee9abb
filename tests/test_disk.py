"""Tests for the LSM on-disk engine (paper Section 7.3)."""

import pytest

from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.storage import skiplist
from repro.storage.disk import ColumnFamily, DiskTable, SSTable
from repro.storage.memtable import MemTable


@pytest.fixture
def disk_table(events_schema, events_index):
    return DiskTable("events", events_schema, [events_index],
                     flush_threshold=10)


class TestSSTable:
    def test_scan_key_newest_first(self):
        entries = [("a", -10, 0, ("a", 10)), ("a", -30, 1, ("a", 30)),
                   ("b", -5, 2, ("b", 5))]
        sstable = SSTable(entries)
        assert [ts for ts, _ in sstable.scan_key("a")] == [30, 10]
        assert [ts for ts, _ in sstable.scan_key("b")] == [5]
        assert list(sstable.scan_key("zzz")) == []


class TestColumnFamily:
    def _family(self, ttl=TTLSpec()):
        index = IndexDef(("key",), "ts", ttl=ttl)
        return ColumnFamily(index)

    def test_merge_across_runs(self):
        family = self._family()
        family.add_sstable(SSTable([("a", -10, 0, "r10")]))
        family.add_sstable(SSTable([("a", -20, 1, "r20")]))
        assert [ts for ts, _ in family.scan_key("a")] == [20, 10]

    def test_compaction_merges_to_one_run(self):
        family = self._family()
        family.add_sstable(SSTable([("a", -10, 0, "x")]))
        family.add_sstable(SSTable([("a", -20, 1, "y")]))
        evicted = family.compact(now_ts=100)
        assert evicted == 0
        assert len(family.sstables) == 1
        assert family.compactions == 1

    def test_compaction_applies_absolute_ttl(self):
        family = self._family(TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=50))
        family.add_sstable(SSTable([
            ("a", -10, 0, "old"), ("a", -90, 1, "new")]))
        evicted = family.compact(now_ts=100)
        assert evicted == 1
        assert [ts for ts, _ in family.scan_key("a")] == [90]

    def test_compaction_applies_latest_ttl(self):
        family = self._family(TTLSpec(kind=TTLKind.LATEST, lat_ttl=2))
        family.add_sstable(SSTable([
            ("a", -ts, ts, f"r{ts}") for ts in (10, 20, 30, 40)]))
        evicted = family.compact(now_ts=1000)
        assert evicted == 2
        assert [ts for ts, _ in family.scan_key("a")] == [40, 30]


class TestDiskTable:
    def test_reads_merge_memtable_and_ssts(self, disk_table):
        for ts in range(25):  # crosses two flush thresholds
            disk_table.insert(("a", ts, float(ts), "x"))
        assert disk_table.sstable_count() >= 2 or disk_table.flushes >= 2
        scanned = [ts for ts, _ in disk_table.window_scan(
            ("key",), "ts", "a")]
        assert scanned == list(range(24, -1, -1))

    def test_last_join_lookup(self, disk_table):
        disk_table.insert(("a", 5, 1.0, "x"))
        disk_table.flush()
        disk_table.insert(("a", 9, 2.0, "y"))
        hit = disk_table.last_join_lookup(("key",), "a")
        assert hit[0] == 9

    def test_window_scan_bounds_and_limit(self, disk_table):
        for ts in range(0, 100, 10):
            disk_table.insert(("a", ts, 0.0, "x"))
        disk_table.flush()
        bounded = [ts for ts, _ in disk_table.window_scan(
            ("key",), "ts", "a", start_ts=70, end_ts=40)]
        assert bounded == [70, 60, 50, 40]
        limited = list(disk_table.window_scan(("key",), "ts", "a",
                                              limit=2))
        assert len(limited) == 2

    def test_limit_zero_and_bounds_across_memtable_and_sst(
            self, disk_table, monkeypatch):
        """``limit=0`` reads nothing (the scan used to yield a row before
        it checked), and the bounds hold on the unflushed side too, which
        is now bisected instead of copied whole and filtered."""
        for ts in range(0, 150, 10):  # ten rows flush, five stay in memory
            disk_table.insert(("a", ts, float(ts), "x"))
        assert disk_table.flushes == 1
        scan = (("key",), "ts", "a")
        assert list(disk_table.window_scan(*scan, limit=0)) == []
        assert list(disk_table.window_scan_blocks(*scan, limit=0)) == []
        assert list(disk_table.window_scan(*scan, start_ts=104,
                                           limit=0)) == []
        across = [ts for ts, _ in disk_table.window_scan(
            *scan, start_ts=120, end_ts=80)]
        assert across == [120, 110, 100, 90, 80]
        assert [ts for ts, _ in disk_table.window_scan(
            *scan, start_ts=125, limit=3)] == [120, 110, 100]
        # Blocks are the memtable's type: pairs newest-first, columns
        # oldest → newest, ``BLOCK_ROWS`` (here 2) to a block.
        monkeypatch.setattr(skiplist, "BLOCK_ROWS", 2)
        blocks = list(disk_table.window_scan_blocks(
            *scan, start_ts=120, end_ts=80))
        assert [len(block) for block in blocks] == [2, 2, 1]
        assert [pair for block in blocks for pair in block] == list(
            disk_table.window_scan(*scan, start_ts=120, end_ts=80))
        assert [block.column(2) for block in blocks] == [
            [110.0, 120.0], [90.0, 100.0], [80.0]]

    def test_compact_evicts_by_ttl(self, events_schema):
        ttl = TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=100)
        table = DiskTable("t", events_schema,
                          [IndexDef(("key",), "ts", ttl=ttl)],
                          flush_threshold=4)
        for ts in (0, 10, 20, 30, 990):
            table.insert(("a", ts, 0.0, "x"))
        table.flush()
        evicted = table.compact(now_ts=1000)
        assert evicted == 4
        assert [ts for ts, _ in table.window_scan(("key",), "ts", "a")] \
            == [990]

    def test_rows_log_preserved(self, disk_table):
        for ts in range(15):
            disk_table.insert(("a", ts, 0.0, "x"))
        assert disk_table.row_count == 15
        assert len(list(disk_table.rows())) == 15

    def test_disk_read_amplification_tracked(self, disk_table):
        for ts in range(25):
            disk_table.insert(("a", ts, 0.0, "x"))
        before = disk_table.disk_reads
        list(disk_table.window_scan(("key",), "ts", "a"))
        assert disk_table.disk_reads > before

    def test_compact_handles_duplicate_keys_with_none_columns(
            self, events_schema):
        """Regression: compaction must never compare row payloads.

        Duplicate ``(key, ts)`` rows across flushes used to fall through
        to tuple comparison of the row itself; rows carrying ``None``
        next to strings then raised ``TypeError`` mid-compaction.
        """
        table = DiskTable("t", events_schema,
                          [IndexDef(("key",), "ts")], flush_threshold=100)
        table.insert(("a", 10, None, None))
        table.insert(("a", 10, 1.5, "x"))
        table.flush()
        table.insert(("a", 10, None, "y"))
        table.insert(("a", 10, 2.5, None))
        table.flush()
        table.compact(now_ts=1_000)  # must not raise
        scanned = list(table.window_scan(("key",), "ts", "a"))
        assert len(scanned) == 4
        assert all(ts == 10 for ts, _ in scanned)

    def test_latest_ttl_ranks_newest_first_across_flushes(self):
        """Regression: LATEST-TTL compaction evicted the *newest* dups.

        Entries used to share one per-flush sequence stamp, so rows of
        one flush tied and an older flush's duplicates could outrank a
        newer flush's.  Rank order must match the memtable's eviction
        order: newest insert first, per key.
        """
        schema = Schema.from_pairs([
            ("key", "string"), ("ts", "timestamp"), ("v", "string")])
        ttl = TTLSpec(kind=TTLKind.LATEST, lat_ttl=2)
        indexes = [IndexDef(("key",), "ts", ttl=ttl)]
        rows = [("a", 10, "first"), ("a", 10, "second"),
                ("a", 20, "mid"), ("a", 10, "third")]

        mem = MemTable("m", schema, indexes)
        for row in rows:
            mem.insert(row)
        mem.evict_expired(now_ts=100)
        expected = list(mem.window_scan(("key",), "ts", "a"))
        assert [row[2] for _, row in expected] == ["mid", "third"]

        disk = DiskTable("d", schema, indexes, flush_threshold=100)
        for row in rows[:2]:
            disk.insert(row)
        disk.flush()
        for row in rows[2:]:
            disk.insert(row)
        disk.flush()
        disk.compact(now_ts=100)
        assert list(disk.window_scan(("key",), "ts", "a")) == expected

    def test_latest_ttl_within_one_flush_keeps_insertion_rank(self):
        schema = Schema.from_pairs([
            ("key", "string"), ("ts", "timestamp"), ("v", "string")])
        ttl = TTLSpec(kind=TTLKind.LATEST, lat_ttl=1)
        table = DiskTable("d", schema, [IndexDef(("key",), "ts", ttl=ttl)],
                          flush_threshold=100)
        table.insert(("a", 10, "old"))
        table.insert(("a", 10, "new"))
        table.flush()
        table.compact(now_ts=100)
        survivors = [row for _, row in table.window_scan(
            ("key",), "ts", "a")]
        assert survivors == [("a", 10, "new")]

    def test_shared_memtable_across_column_families(self, events_schema):
        table = DiskTable("t", events_schema, [
            IndexDef(("key",), "ts"),
            IndexDef(("label",), "ts"),
        ], flush_threshold=100)
        table.insert(("a", 1, 0.0, "red"))
        by_key = list(table.window_scan(("key",), "ts", "a"))
        by_label = list(table.window_scan(("label",), "ts", "red"))
        assert len(by_key) == 1 and len(by_label) == 1

    def test_null_keys_order_first_through_flush_and_compact(self):
        """A NULL partition key is a key on disk too: SST sorts, bloom
        key lists and key bisects order None before any value, inside
        composite keys element by element, and every key's scan equals
        a memory table's through flushes and a compaction."""
        schema = Schema.from_pairs([("k", "bigint"), ("g", "string"),
                                    ("ts", "timestamp"), ("v", "int")])
        indexes = [IndexDef(("k",), "ts"), IndexDef(("k", "g"), "ts")]
        disk = DiskTable("d", schema, indexes, flush_threshold=2)
        memory = MemTable("m", schema, indexes)
        ks, gs = (None, 2, 1), (None, "a")
        for ts in range(30):
            row = (ks[ts % 3], gs[ts % 2], 1000 + ts // 4, ts)
            disk.insert(row)
            memory.insert(row)
        keys = {("k",): ks, ("k", "g"): [(k, g) for k in ks for g in gs]}

        def scans(table):
            return {(cols, key): list(table.window_scan(cols, "ts", key))
                    for cols, values in keys.items() for key in values}
        expected = scans(memory)
        assert all(expected.values())
        assert disk.sstable_count() > 2
        assert scans(disk) == expected
        disk.flush()
        disk.compact(now_ts=2000)
        assert disk.sstable_count() == len(indexes)
        assert scans(disk) == expected

