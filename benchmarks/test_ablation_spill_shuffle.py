"""Ablation — the spill shuffle under budget pressure.

The same CPU-bound batch (deep unbounded windows, six aggregates
including variance) runs once with the in-memory shuffle and once with
a memory budget far below the input size.  The spilled run must be
byte-identical and the ``offline.shuffle.*`` counters must report the
spilled runs.  Time is wall clock (``time.perf_counter`` around
``execute``), not the scheduling model.
"""

from __future__ import annotations

import time

import pytest

from _util import record_bench
from repro.bench import print_table
from repro.obs import Observability
from repro.offline import SpillConfig
from repro.offline.engine import OfflineEngine
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.memtable import MemTable

WORKERS = 4

SQL = ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c, "
       "avg(v) OVER w AS a, min(v) OVER w AS mn, "
       "distinct_count(v) OVER w AS dc, variance(v) OVER w AS vr "
       "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
       "ROWS_RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)")


def build_workload(keys=8, rows_per_key=700):
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "int")])
    rows = []
    for key_index in range(keys):
        rows.extend((f"k{key_index}", index * 10, (index * 7) % 23 - 11)
                    for index in range(rows_per_key))
    table = MemTable("t", schema, [IndexDef(("k",), "ts")])
    table.insert_many(rows)
    catalog = {"t": schema}
    compiled = compile_plan(build_plan(parse_select(SQL), catalog),
                            catalog)
    return table, compiled, len(rows)


def wall_seconds(engine, compiled, **kwargs):
    started = time.perf_counter()
    rows, stats = engine.execute(compiled, **kwargs)
    return time.perf_counter() - started, rows, stats


@pytest.mark.benchmark(group="ablation-spill-shuffle")
def test_spill_shuffle_under_budget_pressure(benchmark):
    table, compiled, row_count = build_workload()
    obs = Observability(enabled=True)
    engine = OfflineEngine({"t": table}, workers=WORKERS, obs=obs)
    _s, base, _stats = wall_seconds(engine, compiled)
    spill_s, rows, stats = wall_seconds(
        engine, compiled, spill=SpillConfig(memory_budget_bytes=16 * 1024))

    assert rows == base  # spilling never changes the answer
    assert stats.shuffle["rows"] == row_count
    assert stats.shuffle["runs"] >= 2       # budget really exceeded
    assert stats.shuffle["spilled_rows"] > 0
    assert stats.shuffle["spilled_bytes"] > 16 * 1024
    registry = obs.registry
    assert registry.get("offline.shuffle.runs").value \
        == stats.shuffle["runs"]
    assert registry.get("offline.shuffle.spilled_rows").value \
        == stats.shuffle["spilled_rows"]

    print_table(
        "Ablation: spill shuffle (16 KiB budget)",
        ["metric", "value"],
        [["rows shuffled", stats.shuffle["rows"]],
         ["sorted runs", stats.shuffle["runs"]],
         ["spilled rows", stats.shuffle["spilled_rows"]],
         ["spilled bytes", stats.shuffle["spilled_bytes"]],
         ["wall seconds", spill_s]])

    record_bench("ablation_spill_shuffle",
                 rows=row_count,
                 runs=stats.shuffle["runs"],
                 spilled_rows=stats.shuffle["spilled_rows"],
                 spilled_bytes=stats.shuffle["spilled_bytes"],
                 wall_s=spill_s)
    benchmark.extra_info["runs"] = stats.shuffle["runs"]
    benchmark.pedantic(
        lambda: OfflineEngine({"t": table}, workers=WORKERS).execute(
            compiled, spill=SpillConfig(memory_budget_bytes=16 * 1024)),
        rounds=2, iterations=1)
