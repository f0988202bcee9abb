"""Tests for the LSM on-disk engine (paper Section 7.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.storage import disk as disk_module, skiplist
from repro.storage.disk import DiskTable
from repro.storage.memtable import MemTable


@pytest.fixture
def disk_table(events_schema, events_index):
    return DiskTable("events", events_schema, [events_index],
                     flush_threshold=10)


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
            self, disk_table):
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
        # oldest → newest.
        blocks = list(disk_table.window_scan_blocks(
            *scan, start_ts=120, end_ts=80))
        assert [pair for block in blocks for pair in block] == list(
            disk_table.window_scan(*scan, start_ts=120, end_ts=80))
        assert [value for block in reversed(blocks)
                for value in block.column(2)] == [
            80.0, 90.0, 100.0, 110.0, 120.0]

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
        """A NULL partition key is a key on disk too, inside composite
        keys as well: every key's scan equals a memory table's through
        flushes and a compaction."""
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

    def test_point_reads_skip_irrelevant_runs(self):
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        table = DiskTable("t", schema, [IndexDef(("k",), "ts")],
                          flush_threshold=10)
        # Two flushed runs with disjoint key populations.
        for index in range(10):
            table.insert((f"alpha{index}", index, 0.0))
        for index in range(10):
            table.insert((f"beta{index}", index, 0.0))
        assert table.flushes == 2
        before = table.disk_reads
        list(table.window_scan(("k",), "ts", "alpha3"))
        # Only the alpha run holds the key; the beta run is not read.
        assert table.disk_reads == before + 1

    def test_results_identical_across_runs(self):
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        table = DiskTable("t", schema, [IndexDef(("k",), "ts")],
                          flush_threshold=5)
        for index in range(25):
            table.insert((f"k{index % 4}", index, float(index)))
        scanned = [ts for ts, _ in table.window_scan(("k",), "ts", "k1")]
        assert scanned == sorted(
            (index for index in range(25) if index % 4 == 1),
            reverse=True)

    def test_read_racing_a_flush_sees_each_row_once(self, monkeypatch):
        """A read that lands after a flush has published the memtable's
        rows as runs but before the fresh memtable replaces the old one
        must not see those rows twice."""
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "int")])
        table = DiskTable("t", schema, [IndexDef(("k",), "ts")],
                          flush_threshold=100)
        for ts in range(5):
            table.insert(("a", ts, ts))
        reads = []

        class ReadingMemTable(MemTable):
            def __init__(self, *args, **kwargs):
                reads.append([ts for ts, _row in table.window_scan(
                    ("k",), "ts", "a")])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(disk_module, "MemTable", ReadingMemTable)
        table.flush()
        assert reads == [[4, 3, 2, 1, 0]]
        assert [ts for ts, _row in table.window_scan(("k",), "ts", "a")] \
            == [4, 3, 2, 1, 0]


_KEYS = (None, 1, 2)
_GROUPS = (None, "a")
# Few timestamps, so (key, ts) pairs repeat, often across a flush.
_row = st.tuples(st.sampled_from(_KEYS), st.sampled_from(_GROUPS),
                 st.integers(0, 12), st.integers(0, 9))
_ops = st.lists(st.one_of(
    _row.map(lambda row: ("row", row)),
    st.just(("flush", None)),
    st.integers(0, 20).map(lambda now: ("compact", now))), max_size=60)
_ttls = st.builds(TTLSpec, kind=st.sampled_from(TTLKind),
                  abs_ttl_ms=st.integers(0, 10), lat_ttl=st.integers(0, 4))
_bound = st.one_of(st.none(), st.integers(-1, 13))
_reads = st.lists(st.tuples(_bound, _bound, st.one_of(
    st.none(), st.integers(0, 6))), min_size=1, max_size=6)


class TestDiskMatchesMemory:
    """A disk table reads like a memory table that evicts where the disk
    table flushes and compacts: the same rows, newest first, equal
    timestamps latest arrival first, under every TTL kind."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, ttl=_ttls, threshold=st.integers(1, 8), reads=_reads)
    def test_scans_and_lookups_match(self, ops, ttl, threshold, reads):
        schema = Schema.from_pairs([("k", "bigint"), ("g", "string"),
                                    ("ts", "timestamp"), ("v", "int")])
        indexes = [IndexDef(("k",), "ts", ttl=ttl),
                   IndexDef(("k", "g"), "ts", ttl=ttl)]
        keys = {("k",): _KEYS,
                ("k", "g"): [(k, g) for k in _KEYS for g in _GROUPS]}

        def answers(table):
            return [(cols, key, start_ts, end_ts, limit,
                     list(table.window_scan(cols, "ts", key,
                                            start_ts=start_ts,
                                            end_ts=end_ts, limit=limit)),
                     table.last_join_lookup(cols, key, before_ts=start_ts))
                    for cols, values in keys.items() for key in values
                    for start_ts, end_ts, limit in reads]

        # Small blocks and spans, so runs hold sealed ones and late rows
        # and TTL cuts rebuild them.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(skiplist, "BLOCK_ROWS", 2)
            patch.setattr(skiplist, "SPAN_BLOCKS", 2)
            disk = DiskTable("d", schema, indexes, flush_threshold=threshold)
            memory = MemTable("m", schema, indexes)
            for op, arg in ops:
                if op == "row":
                    disk.insert(arg)
                    memory.insert(arg)
                elif op == "flush":
                    disk.flush()
                else:
                    disk.flush()
                    disk.compact(arg)
                    memory.evict_expired(arg)
                    assert disk.sstable_count() <= len(indexes)
                assert answers(disk) == answers(memory)
