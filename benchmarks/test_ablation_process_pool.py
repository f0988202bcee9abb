"""Ablation — the process pool and spill shuffle, measured honestly.

Two questions, answered with wall-clock time (``time.perf_counter``
around ``execute``, not the scheduling model):

1. **Does the process pool buy real parallelism?**  The same CPU-bound
   batch (deep unbounded windows, six aggregates including variance)
   runs once in-process and once on a hand-in
   :class:`~repro.offline.pool.WindowProcessPool` (``execute(pool=)``).
   On a multi-core box the pool run must beat the in-process one — one
   interpreter folds on one core while processes genuinely overlap.  On
   a single-CPU container (``os.cpu_count() == 1``) there is no
   parallelism to win, so the assertion is gated on ``cpus >= 2`` and
   the recorded entry is stamped ``"valid": cpus >= 2`` beside the
   honest ``cpus`` count — a 1-CPU record (0.43× was one) is an
   artefact of the box, not a measurement of the pool.  Where
   multiprocessing cannot start the test skips: the pool's constructor
   raises, the engine hides nothing.
2. **Does the spill shuffle hold up under a tiny budget?**  The same
   batch re-runs with a memory budget far below the input size; it
   must still be byte-identical and the ``offline.shuffle.*`` counters
   must report the spilled runs.

Both paths assert byte-identical feature rows against the plain
in-process run first — a speedup on wrong answers is worthless.
"""

from __future__ import annotations

import os
import time

import pytest

from _util import record_bench
from repro.bench import print_table
from repro.obs import Observability
from repro.offline import (ProcessPoolUnavailable, SkewConfig, SpillConfig,
                           WindowProcessPool)
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

SKEW_CARRY = SkewConfig(quantile=4, min_partition_rows=50,
                        merge_partials=True)


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


@pytest.mark.benchmark(group="ablation-process-pool")
def test_process_pool_vs_inprocess_wall_clock(benchmark):
    table, compiled, _rows = build_workload()
    cpus = os.cpu_count() or 1
    engine = OfflineEngine({"t": table}, workers=WORKERS)
    try:
        pool = WindowProcessPool(WORKERS)
    except ProcessPoolUnavailable as exc:
        pytest.skip(str(exc))
    with pool:
        _s, base, _stats = wall_seconds(engine, compiled)

        # Warm both sides so start-up cost stays out of the timing.
        engine.execute(compiled, skew=SKEW_CARRY)
        engine.execute(compiled, skew=SKEW_CARRY, pool=pool)

        inprocess_s, inprocess_rows, inprocess_stats = wall_seconds(
            engine, compiled, skew=SKEW_CARRY)
        pool_s, pool_rows, pool_stats = wall_seconds(
            engine, compiled, skew=SKEW_CARRY, pool=pool)

    assert inprocess_rows == base
    assert pool_rows == base
    assert inprocess_stats.carry_tasks > 0  # partials really carried
    assert pool_stats.used_process_pool

    ratio = inprocess_s / pool_s if pool_s else float("inf")
    print_table(
        f"Ablation: in-process vs hand-in pool ({cpus} CPU(s), "
        f"{WORKERS} workers, wall clock)",
        ["run", "seconds", "speedup vs in-process"],
        [["in-process", inprocess_s, 1.0],
         ["pool=", pool_s, ratio]])

    # Recorded before the gate: a losing ratio is a measurement too.
    record_bench("ablation_process_pool",
                 valid=cpus >= 2, cpus=cpus, workers=WORKERS,
                 inprocess_wall_s=inprocess_s, pool_wall_s=pool_s,
                 pool_speedup_vs_inprocess=ratio,
                 carry_tasks=pool_stats.carry_tasks)
    if cpus >= 2:
        # Real parallelism must show up on real hardware.
        assert ratio > 1.0, \
            f"process pool {ratio:.2f}x vs in-process on {cpus} CPUs"
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["pool_speedup_vs_inprocess"] = round(ratio, 3)
    benchmark.pedantic(
        lambda: engine.execute(compiled, skew=SKEW_CARRY),
        rounds=2, iterations=1)


@pytest.mark.benchmark(group="ablation-process-pool")
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
