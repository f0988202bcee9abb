"""Ablation — scan-and-fold versus ingest-time window state.

Two request paths answer the same deployed feature script over 1k-row
windows with four aggregates:

1. **fused** — block-based scans feeding the compiler's fused fold
   kernel (one specialised closure advancing every aggregate state,
   order-insensitive families in tight local-variable loops);
2. **incremental** — ingest-time per-key window state: a warm-key
   request costs O(aggregates), no scan and no fold at all.

Asserted shape, both producing the same feature rows first: the
incremental hit path is ≥ 3× the fused path's median request latency on
warm keys (recorded 4.5–4.9×).  The floor follows the recorded ratio
(``BENCH_online.json``), not the other way round: when the second level
became a contiguous array the fused scan-fold went 0.45 → 0.29 ms on
one box while the hit path stayed at 0.06 ms, so incremental/fused fell
from 7.8× to 4.9× without the hit path slowing down at all (the floor
was 5× against the older record).

The per-row *naive* tier this file used to measure as its first arm
(recorded 1.9 ms, 6.3× behind the fused kernel) is deleted from the
engine; its last record stays in ``BENCH_online.json`` under
``ablation_fused_fold.naive_ms`` as history.
"""

from __future__ import annotations

import statistics
import time

import pytest

from _util import build_openmldb, record_bench
from repro.bench import print_table
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

    fused_engine = db.online_engine
    incrementals = deployment.incrementals
    requests = data.requests

    def fused(row):
        return fused_engine.execute_request(compiled, row)

    def incremental(row):
        return fused_engine.execute_request(compiled, row,
                                            incremental=incrementals)

    # Correctness before speed: the incremental path may differ from
    # the fold in the last float ulp (subtract-and-evict).
    for row in requests[:12]:
        for lhs, rhs in zip(fused(row), incremental(row)):
            if isinstance(lhs, float):
                assert rhs == pytest.approx(lhs, rel=1e-9)
            else:
                assert rhs == lhs
    hits_before = fused_engine.stats.incremental_hits
    incremental(requests[0])
    assert fused_engine.stats.incremental_hits == hits_before + 1

    fused_ms = _median_ms(fused, requests)
    incremental_ms = _median_ms(incremental, requests)

    incremental_speedup = fused_ms / incremental_ms
    print_table(
        "Ablation: scan-fold vs window state (1k-row window, "
        "4 aggregates)",
        ["path", "median ms", "speedup"],
        [["fused kernel + block scan", fused_ms, 1.0],
         ["incremental hit", incremental_ms, incremental_speedup]])

    assert incremental_speedup >= 3.0, \
        f"incremental hit only {incremental_speedup:.2f}x over fused scan"

    benchmark.extra_info["incremental_speedup"] = incremental_speedup
    record_bench("ablation_fused_fold", fused_ms=fused_ms,
                 incremental_ms=incremental_ms,
                 incremental_speedup=incremental_speedup)
    benchmark.pedantic(incremental, args=(requests[0],),
                       rounds=20, iterations=5)
