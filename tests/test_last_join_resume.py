"""A residual LAST JOIN reads each candidate once.

``CompiledJoin.lookup`` walks a key's rows newest first in rounds of
32, 256, 2,048, … rows.  Each round resumes at the oldest ``ts`` the
last one read and skips the rows of that ``ts`` already tested, so a
miss reads the key's rows once, plus the boundary row each resumed
round starts on — not every earlier round again.  Rows sharing one
``ts`` across a round's cut are each tested exactly once, on every
store.
"""

import pytest

from repro.cluster import NameServer, TabletServer
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage import skiplist
from repro.storage.disk import DiskTable
from repro.storage.memtable import MemTable

T = Schema.from_pairs([("k", "string"), ("ts", "timestamp"), ("c", "bigint")])
D = Schema.from_pairs([("id", "bigint"), ("k", "string"), ("ts", "timestamp"),
                       ("x", "bigint")])
D_INDEXES = [IndexDef(("id",), "ts"), IndexDef(("k",), "ts")]
SQL = ("SELECT t.k, t.c, d.id FROM t LAST JOIN d "
       "ORDER BY d.ts ON t.k = d.k AND d.x >= t.c")


def _lookup(d):
    catalog = {"t": T, "d": d.schema}
    join = compile_plan(build_plan(parse_select(SQL), catalog),
                        catalog).joins[0]
    return lambda c: join.lookup(d, ("a", 9_000, c))


def _load(store, rows, request):
    if store == "cluster":
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)])
        request.addfinalizer(cluster.close)
        cluster.create_table("d", D, D_INDEXES, partitions=4)
        for row in rows:
            cluster.put("d", row)
        return cluster._views["d"]
    d = MemTable("d", D, D_INDEXES) if store == "memory" \
        else DiskTable("d", D, D_INDEXES, flush_threshold=7)
    for row in rows:
        d.insert(row)
    return d


def test_a_miss_on_disk_reads_each_row_once(monkeypatch, request):
    monkeypatch.setattr(skiplist, "BLOCK_ROWS", 4)
    size = 300
    d = _load("disk", [(i, "a", 1_000 + i, 0) for i in range(size)],
              request)
    assert d.sstable_count() > 10
    scans = []
    scan = d.window_scan_blocks

    def counting(*args, **kwargs):
        blocks = scan(*args, **kwargs)
        scans.append(sum(map(len, blocks)))
        return blocks

    monkeypatch.setattr(d, "window_scan_blocks", counting)
    assert _lookup(d)(1) == (None, size)
    # Rounds of 32, 256 and the rest; a resumed round re-reads only its
    # boundary row (distinct timestamps), where re-reading every earlier
    # round would return 32 + 256 + 300 rows.
    assert len(scans) == 3
    assert sum(scans) <= size + len(scans) - 1


@pytest.mark.parametrize("store", ["memory", "disk", "cluster"])
def test_rows_of_one_ts_across_a_round_cut_are_tested_once(
        store, monkeypatch, request):
    monkeypatch.setattr(skiplist, "BLOCK_ROWS", 4)
    # Newest first: 10 rows at their own ts, 60 sharing ts 500 (the
    # first round's cut falls inside them, the second round starts on
    # them), then 100 older rows.  Only id 1_041 passes ``x >= 1``.
    rows = [(i, "a", 2_000 + i, 0) for i in range(10)]
    rows += [(1_000 + i, "a", 500, int(i == 41)) for i in range(60)]
    rows += [(3_000 + i, "a", 100 + i, 0) for i in range(100)]
    d = _load(store, rows, request)
    lookup = _lookup(d)
    assert lookup(2) == (None, len(rows))
    hit, tested = lookup(1)
    assert hit is not None and hit[0] == 1_041
    assert tested <= 70
