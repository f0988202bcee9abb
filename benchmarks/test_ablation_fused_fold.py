"""Ablation — scan-and-fold versus ingest-time window state.

Two request paths answer the same deployed feature script, four
aggregates over a 1k-row window (and, for the second claim, the same
script over a 100-row window):

1. **fold** — block scans feeding the compiler's window fold (C-level
   reductions over column slices of each block);
2. **incremental** — ingest-time per-key window state: a warm-key
   request costs O(aggregates), no scan and no fold at all.

Asserted shape, both producing the same feature rows first — the
property Section 5.2 claims, not a ratio against whatever the scan
costs this month:

* the hit path does not pay for the window's rows: a 10× longer window
  costs it under 3× (recorded 0.032 → 0.067 ms, 2.1×, where a scan-fold
  pays for every row).  It is not flat, and the 1.5× one would expect
  of an O(aggregates) path does not hold for this script: ``min`` /
  ``max`` keep a multiset so eviction stays exact, and reading the
  extreme walks its distinct values — 1,000 of them here, about half of
  the 0.067 ms;
* and it is below the fold's median at 1,000 rows.

All the medians are still recorded (``BENCH_online.json``); the three
paths are timed round-robin, so a stall on the box lands on all of them
and not on one side of a ratio.  The gate used to be a floor on
incremental/fold — 5×, then 3× — and broke every time the scan or the
fold got cheaper with the hit path unchanged: the contiguous second
level took the fold 0.45 → 0.29 ms (7.8× → 4.9×), and column blocks took
it to 0.19 ms (2.8×; see EXPERIMENTS.md § "Column blocks").

The per-row *naive* tier this file used to measure as its first arm
(recorded 1.9 ms, 6.3× behind the fused kernel) is deleted from the
engine; its last record stays in ``BENCH_online.json`` under
``ablation_fused_fold.naive_ms`` as history.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import pytest

from _util import build_openmldb, record_bench
from repro.bench import print_table
from repro.workloads.microbench import MicroBenchConfig, build_feature_sql


CONFIG = MicroBenchConfig(keys=8, rows_per_key=1_000, windows=1,
                          window_rows=1_000, joins=0, union_tables=0,
                          value_columns=4, seed=7)


SHORT_WINDOW = dataclasses.replace(CONFIG, window_rows=100)


@pytest.fixture(scope="module")
def fold_workload():
    from repro.workloads.microbench import generate

    data = generate(CONFIG, request_count=48)
    db = build_openmldb(data, build_feature_sql(CONFIG))
    db.deploy("short", build_feature_sql(SHORT_WINDOW))
    yield db, data
    db.close()


def _medians_ms(operations, requests, rounds=40, warmup=5):
    """Median latency of each operation, timed round-robin."""
    for operation in operations:
        for row in requests[:warmup]:
            operation(row)
    samples = [[] for _ in operations]
    for index in range(rounds):
        row = requests[index % len(requests)]
        for operation, timings in zip(operations, samples):
            started = time.perf_counter()
            operation(row)
            timings.append((time.perf_counter() - started) * 1_000)
    return [statistics.median(timings) for timings in samples]


@pytest.mark.benchmark(group="ablation-fused-fold")
def test_fused_fold_and_incremental_state(benchmark, fold_workload):
    db, data = fold_workload
    deployment = db.deployments["bench"]
    compiled = deployment.compiled
    assert deployment.uses_incremental  # plain invertible window

    fused_engine = db.online_engine
    incrementals = deployment.incrementals
    requests = data.requests

    def fused(row):
        return fused_engine.execute_request(compiled, row)

    def incremental(row):
        return fused_engine.execute_request(compiled, row,
                                            incremental=incrementals)

    # Correctness before speed: sums are exact in both tiers, so
    # subtract-and-evict matches the fold bit for bit.
    for row in requests[:12]:
        assert incremental(row) == fused(row)
        assert repr(incremental(row)) == repr(fused(row))
    hits_before = fused_engine.stats.incremental_hits
    incremental(requests[0])
    assert fused_engine.stats.incremental_hits == hits_before + 1

    short = db.deployments["short"]
    assert short.uses_incremental

    def incremental_short(row):
        return fused_engine.execute_request(
            short.compiled, row, incremental=short.incrementals)

    fused_ms, incremental_ms, incremental_short_ms = _medians_ms(
        (fused, incremental, incremental_short), requests)

    incremental_speedup = fused_ms / incremental_ms
    window_growth = incremental_ms / incremental_short_ms
    print_table(
        "Ablation: scan-fold vs window state (4 aggregates)",
        ["path", "window rows", "median ms", "vs fold"],
        [["block scan + column fold", 1_000, fused_ms, 1.0],
         ["incremental hit", 1_000, incremental_ms, incremental_speedup],
         ["incremental hit", 100, incremental_short_ms,
          fused_ms / incremental_short_ms]])

    assert window_growth <= 3.0, \
        f"incremental hit grew {window_growth:.2f}x from a 100-row to " \
        "a 1,000-row window: it is paying for the window's rows"
    assert incremental_ms < fused_ms, \
        f"incremental hit {incremental_ms:.3f} ms is not below the " \
        f"fold's {fused_ms:.3f} ms"

    benchmark.extra_info["incremental_speedup"] = incremental_speedup
    record_bench("ablation_fused_fold", fused_ms=fused_ms,
                 incremental_ms=incremental_ms,
                 incremental_100_rows_ms=incremental_short_ms,
                 incremental_speedup=incremental_speedup)
    benchmark.pedantic(incremental, args=(requests[0],),
                       rounds=20, iterations=5)
