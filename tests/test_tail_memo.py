"""A key's unsealed rows fold once per write.

The second read since a key's tail last changed that reaches its newest
row publishes the tail's part it read as a :class:`SharedBlock`
(``_TimeList._tail``), kept until the tail next changes, and a cut of a
shared block (a window's oldest edge, a nested window's or a
``MAXSIZE`` trim; of a sealed block, once asked for twice) answers its
summaries from the memo of the block it was cut from, under that
block's last cut.  The
differential holds every answer, read again and again between
mutations, to the flat fold of a fresh store holding the same rows, by
``repr``, over a ``MemTable``, a ``DiskTable`` and a two-partition
cluster view.  Blocks and spans are shrunk (4 rows, 3 blocks) so seals,
spans, late rows into them and cut edges come with a few dozen rows.
"""

import sys
import threading
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import OpenMLDB
from repro.cluster import NameServer, TabletServer
from repro.online.engine import OnlineEngine, _trim
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.sql.compiler import _extremes_summary
from repro.sql.functions import ExactSum
from repro.storage import skiplist
from repro.storage.disk import DiskTable
from repro.storage.skiplist import (ColumnBlock, CutBlock, SharedBlock,
                                    TimeSeriesIndex)
from tests.conftest import scanned

SCHEMA = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                            ("a", "bigint"), ("b", "double")])
AGGREGATES = ("sum(a)", "avg(b)", "min(a)", "max(b)", "min(b)",
              "count(b)", "distinct_count(b)", "distinct_count(a)")
# Nested frames over one scan (the ROWS_RANGE group and the ROWS group
# each cut their widest), MAXSIZE and EXCLUDE CURRENT_ROW among them.
FRAMES = {
    "wide": "ROWS_RANGE BETWEEN 60 PRECEDING AND CURRENT ROW",
    "mid": "ROWS_RANGE BETWEEN 25 PRECEDING AND CURRENT ROW",
    "edge": "ROWS_RANGE BETWEEN 9 PRECEDING AND CURRENT ROW "
            "EXCLUDE CURRENT_ROW",
    "capped": "ROWS_RANGE BETWEEN 40 PRECEDING AND CURRENT ROW MAXSIZE 6",
    "counted": "ROWS BETWEEN 11 PRECEDING AND CURRENT ROW",
    "few": "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW",
}
SQL = "SELECT " + ", ".join(
    f"{aggregate} OVER {name} AS {name}_{position}"
    for name in FRAMES for position, aggregate in enumerate(AGGREGATES)) \
    + " FROM t WINDOW " + ", ".join(
        f"{name} AS (PARTITION BY k ORDER BY ts {frame})"
        for name, frame in FRAMES.items())
# A lone narrow frame: its own scan cuts the tail.
NARROW = ("SELECT sum(a) OVER n AS total, max(b) OVER n AS high, "
          "distinct_count(b) OVER n AS kinds FROM t WINDOW n AS "
          "(PARTITION BY k ORDER BY ts ROWS BETWEEN 2 PRECEDING AND "
          "CURRENT ROW)")
KEEP = 14  # a LATEST TTL's rows per key: evictions cut tail and blocks

A_VALUES = st.one_of(st.none(), st.integers(-3, 9))
B_VALUES = st.sampled_from([None, -0.0, 0.0, 0.5, -1.5, 2.25])
MUTATIONS = st.lists(st.one_of(
    # In order: a step of 0 is a same-ts tie.
    st.tuples(st.just("put"), st.sampled_from(["x", "y"]),
              st.integers(0, 3), A_VALUES, B_VALUES),
    # Late: anywhere in the history, so into the tail, a sealed block
    # or a span.
    st.tuples(st.just("late"), st.sampled_from(["x", "y"]),
              st.integers(0, 120), A_VALUES, B_VALUES),
    st.tuples(st.just("evict"))), min_size=30, max_size=70)


@pytest.fixture(autouse=True)
def small_storage():
    with mock.patch.object(skiplist, "BLOCK_ROWS", 4), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", 3):
        yield


class FlatStore:
    """A fresh store holding ``stored`` (each key's rows in stored
    order), read as the flat fold reads it: every scan merged into one
    plain block, so no memo or summary is ever consulted."""

    def __init__(self, stored):
        self._index = TimeSeriesIndex(width=len(SCHEMA))
        for rows in stored.values():
            for row in rows:
                self._index.put(row[0], row[1], row)

    def window_scan_blocks(self, _keys, _ts_column, key, **bounds):
        merged = ColumnBlock.merged([self._index.scan_blocks(key, **bounds)],
                                    len(SCHEMA))
        return [merged] if len(merged) else []


def make_host(kind):
    """``(host, put, evict)``: a LATEST-TTL table ``t`` of ``kind``."""
    index = IndexDef(("k",), "ts", ttl=TTLSpec(kind=TTLKind.LATEST,
                                                lat_ttl=KEEP))
    if kind == "cluster":
        host = NameServer([TabletServer("a"), TabletServer("b")])
        host.create_table("t", SCHEMA, [index], partitions=2, replicas=2)
        cluster, put = host, host.put
    else:
        host = OpenMLDB()
        host.create_table("t", SCHEMA, [index], storage=kind,
                          flush_threshold=16)
        cluster, put = host.cluster, host.insert

    def evict():
        for tablet in cluster.tablets.values():
            for shard in tablet.shards():
                store = shard.store
                if isinstance(store, DiskTable):
                    store.compact(0)
                else:
                    store.evict_expired(0)
    return host, put, evict


def flat_fold(compiled, stored):
    """``request row → feature tuple`` of the flat fold over a fresh
    store holding ``stored``."""
    engine = OnlineEngine({"t": FlatStore(stored)})
    return lambda request: engine.execute_request(compiled, request)


@pytest.mark.parametrize("kind", ["memory", "disk", "cluster"])
@settings(max_examples=25, deadline=None)
@given(mutations=MUTATIONS, request_values=st.tuples(A_VALUES, B_VALUES))
def test_repeated_reads_fold_as_a_fresh_store(kind, mutations,
                                              request_values):
    """After every mutation, each key is read just before its newest
    stamp and then three times at it, by the nested deployment and by a
    narrow one; every answer equals the flat fold of a fresh store
    holding the same rows."""
    host, put, evict = make_host(kind)
    compiled = {}
    for name, sql in (("d", SQL), ("n", NARROW)):
        deployed = host.deploy(name, sql)
        compiled[name] = getattr(deployed, "compiled", deployed)
    stored = {"x": [], "y": []}  # each key's rows in stored order
    newest = {"x": 10, "y": 10}
    try:
        for mutation in mutations:
            if mutation[0] == "evict":
                if kind == "disk":
                    continue  # a disk table's TTL is its compaction's
                evict()
                for key, rows in stored.items():
                    del rows[:max(len(rows) - KEEP, 0)]
            else:
                verb, key, stamp, a, b = mutation
                ts = newest[key] + stamp if verb == "put" else stamp
                newest[key] = max(newest[key], ts)
                row = (key, ts, a, b)
                put("t", row)
                rows = stored[key]
                rows.insert(bisect_right([r[1] for r in rows], ts), row)
            for name, query in compiled.items():
                flat = flat_fold(query, stored)
                for key in stored:
                    for anchor in (newest[key] - 1, newest[key]):
                        request = (key, anchor) + request_values
                        expected = repr(flat(request))
                        for _ in range(3 if anchor == newest[key] else 1):
                            assert repr(host.request_row(name, request)) \
                                == expected, (mutation, name, key, anchor)
    finally:
        host.close()


def test_the_second_read_publishes_the_tail_until_the_next_write():
    index = TimeSeriesIndex(width=2)
    for ts in range(10):
        index.put("k", ts, ("k", ts))  # two sealed blocks, a 2-row tail
    first = index.scan_blocks("k")
    assert type(first[0]) is ColumnBlock  # read once: a private block
    head = index.scan_blocks("k")[0]
    assert type(head) is SharedBlock and len(head) == 2
    again = index.scan_blocks("k")
    assert again[0] is head and again[1:] == first[1:]
    # A narrower read cuts the published rows; a read ending before the
    # newest row reads them too.
    assert type(index.scan_blocks("k", limit=1)[0]) is CutBlock
    assert scanned(index.scan_blocks("k", start_ts=8)) == [(8, ("k", 8))] \
        + scanned(first[1:])
    index.put("k", 10, ("k", 10))
    assert type(index.scan_blocks("k")[0]) is ColumnBlock
    assert scanned(index.scan_blocks("k"))[0] == (10, ("k", 10))
    assert index.scan_blocks("k")[0] is not head


def test_a_read_short_of_the_newest_row_publishes_nothing():
    """The published block is the tail's newest rows: a read that ends
    before them reads a private block, and the next read of the newest
    rows still sees them."""
    index = TimeSeriesIndex(width=2)
    for ts in (0, 1, 2):
        index.put("k", ts, ("k", ts))
    index.scan_blocks("k")  # the tail's first read
    assert scanned(index.scan_blocks("k", start_ts=1, limit=1)) \
        == [(1, ("k", 1))]
    assert scanned(index.scan_blocks("k", limit=1)) == [(2, ("k", 2))]


def published(index, key="k"):
    """Read ``key``'s newest rows twice: the second read's blocks."""
    index.scan_blocks(key)
    return index.scan_blocks(key)


def test_a_late_row_into_sealed_history_keeps_the_tail():
    """Only a change to the tail unpublishes it: a late row into a
    sealed block replaces that block, and the tail block stays."""
    index = TimeSeriesIndex(width=2)
    for ts in range(0, 20, 2):
        index.put("k", ts, ("k", ts))
    head = published(index)[0]
    index.put("k", 3, ("k", "late"))
    blocks = index.scan_blocks("k")
    assert blocks[0] is head
    assert (3, ("k", "late")) in scanned(blocks)


def test_ttl_cut_into_the_tail_unpublishes_it():
    index = TimeSeriesIndex(TTLSpec(kind=TTLKind.LATEST, lat_ttl=1),
                            width=2)
    for ts in range(3):
        index.put("k", ts, ("k", ts))
    assert len(published(index)[0]) == 3
    assert index.evict(0) == 2
    # A fresh block of the one row left, not a cut of the old rows.
    fresh = published(index)[0]
    assert type(fresh) is SharedBlock and len(fresh) == 1
    assert scanned([fresh]) == [(2, ("k", 2))]


@pytest.mark.parametrize("change", ["ttl", "late"])
def test_a_rebuilt_sealed_block_starts_its_memo_afresh(change):
    """A TTL cut into a sealed block, or a late row into it, replaces the
    block: what the old one memoized is not the new one's answer."""
    index = TimeSeriesIndex(TTLSpec(kind=TTLKind.LATEST, lat_ttl=10),
                            width=2)
    for ts in range(12):  # blocks 0-3 and 4-7 sealed, the tail 8-11
        index.put("k", ts * 10, ("k", ts * 10))
    oldest = index.scan_blocks("k")[-1]
    assert oldest.sealed and oldest.summary(1, _extremes_summary) == (0, 30)
    if change == "ttl":
        assert index.evict(0) == 2
        expected = (20, 30)
    else:
        index.put("k", 5, ("k", -5))
        expected = (-5, 30)
    rebuilt = index.scan_blocks("k")[-1]
    assert rebuilt is not oldest
    assert rebuilt.summary(1, _extremes_summary) == expected


def test_a_cut_memoizes_its_own_rows_only():
    """A cut asked for twice in a row memoizes; its summary is the
    reduction over the cut's rows, and the source keeps one cut a
    reduction — the last one asked."""
    index = TimeSeriesIndex(width=2)
    for ts in range(8):
        index.put("k", ts, ("k", ts * 10))
    sealed = index.scan_blocks("k")[-1]
    assert sealed.sealed and len(sealed) == 4

    def cut(lo, hi):
        assert type(sealed.part(lo, hi)) is ColumnBlock  # a new cut
        return sealed.part(lo, hi)

    reduce = _extremes_summary
    older = cut(0, 2)
    assert older.summary(1, reduce) == (0, 10)
    newer = cut(1, 4)
    assert not newer.memoized(1, reduce)
    assert newer.summary(1, reduce) == (10, 30)
    assert newer.memoized(1, reduce) and not older.memoized(1, reduce)
    assert older.summary(1, reduce) == (0, 10)
    assert len(sealed._memo) == 2  # the last cut asked, and its summary
    # A cut of a cut is a cut of the source.
    newer.part(1, 3)
    inner = newer.part(1, 3)
    assert inner.summary(1, reduce) == (20, 30)
    assert (inner._source, inner._cut) == (sealed, (2, 4))


def test_later_reads_answer_tail_and_edges_from_memos():
    """Between two writes a key's first read folds its tail and moved
    edges raw, the second reduces them into memos, and every later read
    reduces nothing."""
    index = TimeSeriesIndex(width=2)
    for ts in range(30):
        index.put("k", ts, ("k", ts))
    asked = []

    def reduce(values):
        asked.append(len(values))
        return ExactSum.of(values)

    def fold(newest):
        wide = index.scan_blocks("k", end_ts=newest - 25)
        narrow = _trim(wide, newest - 4, None)
        return [block.summary(1, reduce) if block.memoizes
                else ExactSum.of(block.values(1))
                for blocks in (wide, narrow) for block in blocks]

    fold(29)
    index.put("k", 30, ("k", 30))
    asked.clear()
    first = fold(30)
    assert asked == []  # sealed blocks whole: memoized already
    second = fold(30)
    assert sorted(asked) == [2, 3, 3]  # the edge cut, the tail, its cut
    asked.clear()
    later = fold(30)
    assert asked == []
    assert [state.total() for state in later] \
        == [state.total() for state in second] \
        == [state.total() for state in first]


@pytest.mark.parametrize("where", ["tail", "edge", "sealed"])
def test_signed_zero_ties_and_nulls_at_memo_boundaries(where):
    """``-0.0`` / ``0.0`` ties and NULLs in the tail, on a cut edge or in
    sealed blocks: ``min``, ``max``, ``sum`` and ``distinct_count`` of
    nested windows, read three times between writes, equal the flat fold by
    ``repr`` — the first of two equal zeros is the one kept."""
    db = OpenMLDB()
    db.create_table("t", SCHEMA, [IndexDef(("k",), "ts")])
    sql = ("SELECT min(b) OVER w1 AS lo1, max(b) OVER w1 AS hi1, "
           "sum(b) OVER w1 AS s1, distinct_count(b) OVER w1 AS d1, "
           "min(b) OVER w2 AS lo2, max(b) OVER w2 AS hi2, "
           "sum(b) OVER w2 AS s2, distinct_count(b) OVER w2 AS d2 "
           "FROM t WINDOW "
           "w1 AS (PARTITION BY k ORDER BY ts "
           "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW "
           "EXCLUDE CURRENT_ROW), "
           "w2 AS (PARTITION BY k ORDER BY ts "
           "ROWS_RANGE BETWEEN 5 PRECEDING AND CURRENT ROW "
           "EXCLUDE CURRENT_ROW)")
    db.deploy("d", sql)
    compiled = db.deployments["d"].compiled
    zeros = [None, -0.0, 0.0, None, 0.0, -0.0]
    # 30 rows: blocks of 4 and spans of 12 seal; the tail keeps 2 rows.
    # The zeros go where the case puts them, everything else is 1.0.
    at = {"tail": 24, "edge": 20, "sealed": 4}[where]
    stored = {"z": []}
    try:
        for ts in range(30):
            offset = ts - at
            b = zeros[offset] if 0 <= offset < len(zeros) else 1.0
            row = ("z", ts, ts, b)
            db.insert("t", row)
            stored["z"].append(row)
            for _ in range(3):
                request = ("z", ts + 1, 0, None)
                assert repr(db.request_row("d", request)) == repr(
                    flat_fold(compiled, stored)(request)), ts
    finally:
        db.close()


def test_a_reader_never_gets_a_stale_tail():
    """A writer appends to one key while three readers (more threads
    than cores, switching every microsecond) read its newest rows and
    fold them: every read reaches at least the row put before it
    started, its stamps run without a gap, and a memoized summary is
    always that of the block's own rows."""
    index = TimeSeriesIndex(width=2)
    index.put("k", 0, ("k", 0))
    written = [0]
    stop = threading.Event()
    failures = []

    def write():
        try:
            for ts in range(1, 2_000):
                index.put("k", ts, ("k", ts))
                written[0] = ts
        finally:
            stop.set()

    def read():
        while not stop.is_set():
            before = written[0]
            blocks = index.scan_blocks("k", limit=6)
            stamps = [ts for ts, _row in scanned(blocks)]
            newest = stamps[0]
            if newest < before or stamps != list(
                    range(newest, newest - len(stamps), -1)):
                failures.append((before, stamps))
            for block in blocks:
                if block.memoizes:
                    values = block.values(1)
                    summary = block.summary(1, _extremes_summary)
                    if summary != (min(values), max(values)):
                        failures.append((summary, list(values)))

    threads = [threading.Thread(target=write)] \
        + [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert written[0] == 1_999 and failures == []
