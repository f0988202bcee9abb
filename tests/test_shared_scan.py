"""Windows that nest share one storage scan per request.

The compiler groups windows over one partition of the same sources
(``CompiledQuery.scans``); a request reads the widest frame once and
each narrower window takes a newest-first cut of those blocks
(``online.engine._trim``).  The differential holds every window of a
multi-window deployment to the same window deployed alone, ``repr``
for ``repr``, over a ``MemTable``, a ``DiskTable`` and a cluster view,
with late rows, TTL eviction, unions and every frame flag.  Blocks and
spans are shrunk (4 rows, 3 blocks) so cuts land inside spans.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import OpenMLDB
from repro.cluster import NameServer, TabletServer
from repro.online.engine import _trim
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.storage import skiplist
from repro.storage.disk import DiskTable
from repro.storage.skiplist import ColumnBlock, TimeSeriesIndex
from tests.conftest import scanned

SCHEMA = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                            ("a", "bigint"), ("b", "double"),
                            ("s", "string")])
AGGREGATES = ("sum(b)", "avg(b)", "max(b)", "min(a)", "count(s)",
              "distinct_count(a)", "sum(a * 2)")

# Stamps and ranges step by 5, so rows often sit on a frame's edge, and
# a range frame is drawn twice as often as the rest, so ranges nest.
STAMPS = st.integers(0, 16).map(lambda step: 5 * step)
RANGES = st.integers(0, 10).map(
    lambda steps: f"ROWS_RANGE BETWEEN {5 * steps} PRECEDING AND CURRENT ROW")
FRAMES = st.one_of(
    RANGES, RANGES,
    st.integers(0, 12).map(
        lambda n: f"ROWS BETWEEN {n} PRECEDING AND CURRENT ROW"),
    st.sampled_from([
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
        "ROWS_RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"]))
WINDOWS = st.lists(st.tuples(
    FRAMES, st.sampled_from(["", "", "UNION u "]),
    st.sampled_from(["", " MAXSIZE 1", " MAXSIZE 5", " MAXSIZE 20"]),
    st.sampled_from(["", " EXCLUDE CURRENT_ROW", " INSTANCE_NOT_IN_WINDOW"])),
    min_size=2, max_size=5)
ROWS = st.lists(st.tuples(
    st.sampled_from(["t", "u"]), st.sampled_from(["x", "y"]),
    STAMPS, st.one_of(st.none(), st.integers(-3, 9)),
    st.sampled_from([None, -0.0, 0.0, 0.5, 1.5, 2.25]),
    st.sampled_from([None, "p", "q"])), min_size=10, max_size=80)


@pytest.fixture(autouse=True)
def small_storage():
    with mock.patch.object(skiplist, "BLOCK_ROWS", 4), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", 3):
        yield


def make_host(kind, ttl):
    """A host with tables ``t`` and ``u``: ``(host, put, evict)``."""
    index = IndexDef(("k",), "ts", ttl=TTLSpec(kind=TTLKind.LATEST,
                                                lat_ttl=ttl or 0))
    if kind == "cluster":
        host = NameServer([TabletServer("a"), TabletServer("b")])
        for name in ("t", "u"):
            host.create_table(name, SCHEMA, [index], partitions=2,
                              replicas=2)
        cluster, put = host, host.put
    else:
        host = OpenMLDB()
        for name in ("t", "u"):
            host.create_table(name, SCHEMA, [index], storage=kind,
                              flush_threshold=8)
        cluster, put = host.cluster, host.insert

    def evict(now_ts):
        for tablet in cluster.tablets.values():
            for shard in tablet.shards():
                store = shard.store
                if isinstance(store, DiskTable):
                    store.compact(now_ts)
                else:
                    store.evict_expired(now_ts)
    return host, put, evict


def window_sql(windows, names):
    select = ", ".join(f"{aggregate} OVER {name} AS {name}_{position}"
                       for name in names
                       for position, aggregate in enumerate(AGGREGATES))
    clauses = ", ".join(
        f"{name} AS ({union}PARTITION BY k ORDER BY ts {frame}{maxsize}"
        f"{exclude})"
        for name, (frame, union, maxsize, exclude) in zip(names, windows))
    return f"SELECT {select} FROM t WINDOW {clauses}"


@pytest.mark.parametrize("kind", ["memory", "disk", "cluster"])
@settings(max_examples=40, deadline=None)
@given(windows=WINDOWS, rows=ROWS,
       ttl=st.one_of(st.none(), st.integers(3, 30)),
       anchors=st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                                  STAMPS),
                        min_size=1, max_size=4))
def test_each_window_answers_as_if_deployed_alone(kind, windows, rows, ttl,
                                                  anchors):
    host, put, evict = make_host(kind, ttl)
    try:
        for table, key, ts, a, b, s in rows:
            put(table, (key, ts, a, b, s))
        if ttl:
            evict(80)
        names = [f"w{index}" for index in range(len(windows))]
        host.deploy("all", window_sql(windows, names))
        for name, window in zip(names, windows):
            host.deploy(name, window_sql([window], [name]))
        for key, ts in anchors:
            request = (key, ts, 4, 1.25, "p")
            together = host.request("all", request)
            for name in names:
                alone = host.request(name, request)
                assert repr({column: together[column] for column in alone}) \
                    == repr(alone), name
    finally:
        host.close()


NESTED = ("SELECT sum(a) OVER wl AS total, max(b) OVER ws AS high FROM t "
          "WINDOW wl AS (PARTITION BY k ORDER BY ts "
          "ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW), "
          "ws AS (PARTITION BY k ORDER BY ts "
          "ROWS_RANGE BETWEEN 10 PRECEDING AND CURRENT ROW MAXSIZE 3)")


@pytest.mark.parametrize("sql, scans", [
    (NESTED, 1),
    # A ROWS and a ROWS_RANGE frame bound different runs: two scans.
    (NESTED.replace("ROWS_RANGE BETWEEN 10 ", "ROWS BETWEEN 10 "), 2)])
def test_nested_windows_make_one_storage_scan(sql, scans):
    db = OpenMLDB(observability=True)
    db.create_table("t", SCHEMA, [IndexDef(("k",), "ts")])
    for ts in range(0, 200, 5):
        db.insert("t", ("x", ts, ts % 7, float(ts % 3), "p"))
    db.deploy("d", sql)
    registry, tracer = db.obs.registry, db.obs.tracer
    before = registry.get("storage.window.scans", table="t").value
    requests = 5
    for ts in range(200, 200 + requests):
        db.request("d", ("x", ts, 1, 1.0, "p"))
    assert registry.get("storage.window.scans", table="t").value - before \
        == scans * requests
    names = [span["name"] for span in tracer.last_trace()]
    assert names.count("window.scan") == scans
    assert names.count("agg.fold") == 2
    db.close()


def stored_index(stamps):
    index = TimeSeriesIndex(width=2)
    for ts in stamps:
        index.put("k", ts, ("k", ts))
    return index


@settings(max_examples=200, deadline=None)
@given(stamps=st.lists(st.integers(0, 60), max_size=90),
       start=st.one_of(st.none(), st.integers(0, 60)),
       end=st.one_of(st.none(), st.integers(-5, 65)),
       limit=st.one_of(st.none(), st.integers(0, 100)))
def test_trim_is_the_narrower_scan(stamps, start, end, limit):
    """A cut of the unbounded scan reads what the bounded scan reads,
    and hands every block it keeps whole out by reference."""
    index = stored_index(stamps)
    wide = index.scan_blocks("k", start_ts=start)
    cut = _trim(wide, end, limit)
    assert scanned(cut) == scanned(index.scan_blocks(
        "k", start_ts=start, end_ts=end, limit=limit))
    held = {id(block) for block in wide}
    held.update(id(inner) for block in wide
                for inner in getattr(block, "blocks", ()))
    assert sum(id(block) not in held for block in cut) <= 1


def test_trim_opens_a_span_only_where_the_cut_ends():
    index = stored_index(range(100))  # 4-row blocks, 12-row spans
    wide = index.scan_blocks("k")
    first = next(position for position, block in enumerate(wide)
                 if isinstance(block, skiplist.SealedSpan))
    cut = _trim(wide, None, sum(map(len, wide[:first + 1])) + 6)
    # Everything down to the first span whole, then the next span
    # opened: its newest block whole and a 2-row slice of the one before.
    opened = wide[first + 1].blocks
    assert cut[:first + 1] == wide[:first + 1]
    assert cut[first + 1] is opened[-1]
    assert scanned(cut[first + 2:]) == list(opened[-2])[:2]
    assert len(cut) == first + 3 and not cut[-1].sealed


def test_trim_a_plain_block():
    block = ColumnBlock.from_pairs(
        [(3, ("k", 3)), (2, ("k", 2)), (1, ("k", 1))], 2)
    assert scanned(_trim([block], None, 2)) == [(3, ("k", 3)), (2, ("k", 2))]
    assert _trim([block], None, 0) == []
    assert _trim([block], 2, None)[0] is not block
    assert _trim([block], 1, 5) == [block]
