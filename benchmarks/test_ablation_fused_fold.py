"""Ablation — the hot-path execution overhaul, layer by layer.

Three request engines answer the same deployed feature script over
1k-row windows with four aggregates:

1. **naive** — the pre-overhaul path: per-row iterator merge from
   storage, per-row per-state method dispatch in the fold;
2. **fused** — block-based scans feeding the compiler's fused fold
   kernel (one specialised closure advancing every aggregate state,
   order-insensitive families in tight local-variable loops);
3. **incremental** — ingest-time per-key window state: a warm-key
   request costs O(aggregates), no scan and no fold at all.

Asserted shape, all three producing the same feature rows first: each
tier is a multiple of the one before it — fused ≥ 3.5× the naive path's
median request latency (recorded 6.3×) and the incremental hit path
≥ 3× the fused path on warm keys (recorded 4.9×).  The floors follow
the recorded ratios (``BENCH_online.json``), not the other way round:
when the second level became a contiguous array the fused scan-fold
went 0.45 → 0.29 ms on one box while the hit path stayed at 0.06 ms,
so fused/naive rose from 4.6× to 6.3× and incremental/fused fell from
7.8× to 4.9× without the hit path slowing down at all (the floors were
2× and 5× against the older records).
"""

from __future__ import annotations

import statistics
import time

import pytest

from _util import build_openmldb, record_bench
from repro.bench import print_table
from repro.online.engine import OnlineEngine
from repro.workloads.microbench import MicroBenchConfig, build_feature_sql


CONFIG = MicroBenchConfig(keys=8, rows_per_key=1_000, windows=1,
                          window_rows=1_000, joins=0, union_tables=0,
                          value_columns=4, seed=7)


@pytest.fixture(scope="module")
def fold_workload():
    from repro.workloads.microbench import generate

    data = generate(CONFIG, request_count=48)
    db = build_openmldb(data, build_feature_sql(CONFIG))
    yield db, data
    db.close()


def _median_ms(operation, requests, rounds=40, warmup=5):
    for row in requests[:warmup]:
        operation(row)
    samples = []
    for index in range(rounds):
        row = requests[index % len(requests)]
        started = time.perf_counter()
        operation(row)
        samples.append((time.perf_counter() - started) * 1_000)
    return statistics.median(samples)


@pytest.mark.benchmark(group="ablation-fused-fold")
def test_fused_fold_and_incremental_state(benchmark, fold_workload):
    db, data = fold_workload
    deployment = db.deployments["bench"]
    compiled = deployment.compiled
    assert deployment.uses_incremental  # plain invertible window

    naive_engine = OnlineEngine(db.tables, fused_fold=False,
                                block_scan=False)
    fused_engine = db.online_engine
    incrementals = deployment.incrementals
    requests = data.requests

    def naive(row):
        return naive_engine.execute_request(compiled, row)

    def fused(row):
        return fused_engine.execute_request(compiled, row)

    def incremental(row):
        return fused_engine.execute_request(compiled, row,
                                            incremental=incrementals)

    # Correctness before speed: naive and fused are exactly equal (the
    # kernel folds in the same oldest→newest order); the incremental
    # path may differ in the last float ulp (subtract-and-evict).
    for row in requests[:12]:
        naive_row = naive(row)
        assert fused(row) == naive_row
        for lhs, rhs in zip(naive_row, incremental(row)):
            if isinstance(lhs, float):
                assert rhs == pytest.approx(lhs, rel=1e-9)
            else:
                assert rhs == lhs
    hits_before = fused_engine.stats.incremental_hits
    incremental(requests[0])
    assert fused_engine.stats.incremental_hits == hits_before + 1

    naive_ms = _median_ms(naive, requests)
    fused_ms = _median_ms(fused, requests)
    incremental_ms = _median_ms(incremental, requests)

    fused_speedup = naive_ms / fused_ms
    incremental_speedup = fused_ms / incremental_ms
    print_table(
        "Ablation: hot-path overhaul (1k-row window, 4 aggregates)",
        ["path", "median ms", "speedup"],
        [["naive fold", naive_ms, 1.0],
         ["fused kernel + block scan", fused_ms, fused_speedup],
         ["incremental hit", incremental_ms,
          naive_ms / incremental_ms]])

    assert fused_speedup >= 3.5, \
        f"fused fold only {fused_speedup:.2f}x over the naive path"
    assert incremental_speedup >= 3.0, \
        f"incremental hit only {incremental_speedup:.2f}x over fused scan"

    benchmark.extra_info["fused_speedup"] = fused_speedup
    benchmark.extra_info["incremental_speedup"] = incremental_speedup
    record_bench("ablation_fused_fold", naive_ms=naive_ms,
                 fused_ms=fused_ms, incremental_ms=incremental_ms,
                 fused_speedup=fused_speedup,
                 incremental_speedup=incremental_speedup)
    benchmark.pedantic(incremental, args=(requests[0],),
                       rounds=20, iterations=5)
