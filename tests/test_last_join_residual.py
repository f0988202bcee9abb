"""A LAST JOIN with a residual condition answers alike on every store.

``ON t.k = d.k AND d.x >= t.c`` walks ``d``'s rows on the key newest
first until one passes.  ``x`` falls as ``ts`` rises, so a request's
``c`` puts the first passing row at depth ``c``: the newest row, inside
the tail, past sealed blocks and spans, across both rounds of the
growing prefix (32, then 256 rows), or nowhere.  The online engine (one
request per ``t`` row) and the offline engine (the same rows as
anchors) must both answer the brute-force newest passing row — on a
``MemTable``, on a ``DiskTable`` of many small runs, and through a
4-partition cluster view whose join index is not the partition index,
so every read fans out and merges.
"""

import random

import pytest

from repro.cluster import NameServer, TabletServer
from repro.offline.engine import OfflineEngine
from repro.online.engine import OnlineEngine
from repro.schema import IndexDef, Schema
from repro.sql.compiler import CompiledJoin, compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage import skiplist
from repro.storage.disk import DiskTable
from repro.storage.memtable import MemTable

T = Schema.from_pairs([("k", "string"), ("ts", "timestamp"), ("c", "bigint")])
D = Schema.from_pairs([("id", "bigint"), ("k", "string"), ("ts", "timestamp"),
                       ("x", "bigint"), ("v", "double")])
# Partitioned by ``id``: a join on ``k`` reads every partition.
D_INDEXES = [IndexDef(("id",), "ts"), IndexDef(("k",), "ts")]
SQL = ("SELECT t.k, t.c, d.ts AS dts, d.v FROM t LAST JOIN d "
       "ORDER BY d.ts ON t.k = d.k AND d.x >= t.c")
HISTORY = {"a": 300, "b": 5}
DEPTHS = {"a": [0, 1, 3, 31, 32, 33, 40, 255, 256, 257, 299, 300],
          "b": [0, 2, 4, 5]}


def _d_rows():
    rows = []
    for k, size in HISTORY.items():
        for i in range(size):
            # Depth j (newest first) holds x = j.
            rows.append((len(rows), k, 1_000 + i, size - 1 - i, i * 0.1))
    random.Random(7).shuffle(rows)  # late rows land in sealed blocks
    return rows


def _t_rows():
    rows = [(k, 5_000 + c, c) for k, depths in DEPTHS.items()
            for c in depths]
    return rows + [("z", 9_000, 0)]  # a key d does not hold


def _expected(d_rows, t_row):
    k, _ts, c = t_row
    passing = [row for row in d_rows if row[1] == k and row[3] >= c]
    if not passing:
        return (k, c, None, None)
    best = max(passing, key=lambda row: row[2])
    return (k, c, best[2], best[4])


@pytest.fixture(params=["memory", "disk", "cluster"])
def tables(request, monkeypatch):
    # Small blocks and spans, so a 300-row key is mostly sealed.
    monkeypatch.setattr(skiplist, "BLOCK_ROWS", 4)
    monkeypatch.setattr(skiplist, "SPAN_BLOCKS", 2)
    d_rows = _d_rows()
    cluster = None
    if request.param == "memory":
        d = MemTable("d", D, D_INDEXES)
    elif request.param == "disk":
        d = DiskTable("d", D, D_INDEXES, flush_threshold=7)
    else:
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)])
        cluster.create_table("d", D, D_INDEXES, partitions=4)
    for row in d_rows:
        if cluster is None:
            d.insert(row)
        else:
            cluster.put("d", row)
    if cluster is not None:
        d = cluster._views["d"]
    if request.param == "disk":
        assert d.sstable_count() > 10
    t = MemTable("t", T, [IndexDef(("k",), "ts")])
    for row in _t_rows():
        t.insert(row)
    yield {"t": t, "d": d}, d_rows
    if cluster is not None:
        cluster.close()


def _compiled(tables):
    catalog = {name: table.schema for name, table in tables.items()}
    return compile_plan(build_plan(parse_select(SQL), catalog), catalog)


def test_online_and_offline_match_the_newest_passing_row(tables):
    tables, d_rows = tables
    compiled = _compiled(tables)
    expected = [_expected(d_rows, row) for row in _t_rows()]
    online = OnlineEngine(tables)
    served = [online.execute_request(compiled, row) for row in _t_rows()]
    batch, _stats = OfflineEngine(tables).execute(compiled)
    assert repr(served) == repr(expected)
    assert repr(batch) == repr(expected)
    # One lookup per request; each tests candidates down to its hit
    # (or the whole key on a miss).
    assert online.stats.join_lookups == len(expected)
    assert online.stats.rows_scanned == sum(
        min(c + 1, HISTORY.get(k, 0)) for k, _ts, c in _t_rows())


def test_both_engines_resolve_through_one_lookup(tables, monkeypatch):
    tables, _d_rows = tables
    compiled = _compiled(tables)
    callers = []
    lookup = CompiledJoin.lookup

    def spy(join, table, combined):
        callers.append(combined[0])
        return lookup(join, table, combined)

    monkeypatch.setattr(CompiledJoin, "lookup", spy)
    OnlineEngine(tables).execute_request(compiled, ("a", 5_000, 3))
    assert callers == ["a"]
    OfflineEngine(tables).execute(compiled)
    assert callers == ["a"] + [row[0] for row in _t_rows()]
