"""Ablation — the window fold with and without storage summaries.

One request path answers every deployed window: block scans feeding the
compiler's window fold (C-level reductions over column slices of each
block).  On a 1,000-row window most of those blocks are sealed, and the
fold reads their memoized summaries instead of their rows.  This file
times that fold against the same scan-fold with no summaries
(``fold_without_summaries``, a test-side view, as figures 10 and 11
do), four aggregates over the 1,000-row window.

Asserted shape, both producing the same feature rows first, ``repr``
for ``repr``: the summary fold is below the raw fold.  The two arms are
timed round-robin (``medians_ms``), so a stall on the box lands on both
and not on one side of the comparison.

Keys under ``ablation_fused_fold`` in ``BENCH_online.json`` that this
file no longer writes (``naive_ms``, ``incremental_*``) are the last
records of tiers the engine does not have; EXPERIMENTS.md, "One path
for every window", says why the incremental one went.
"""

from __future__ import annotations

import pytest

from _util import (build_openmldb, fold_without_summaries, medians_ms,
                   record_bench)
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


@pytest.mark.benchmark(group="ablation-fused-fold")
def test_fused_fold_and_summaries(benchmark, fold_workload):
    db, data = fold_workload
    compiled = db.deployments["bench"].compiled
    engine = db.online_engine
    requests = data.requests

    def fused(row):
        return engine.execute_request(compiled, row)

    raw = fold_without_summaries(db, "bench")

    # Correctness before speed: sums are exact, so folding summaries
    # matches folding every row bit for bit.
    for row in requests[:12]:
        assert fused(row) == raw(row)
        assert repr(fused(row)) == repr(raw(row))
    before = engine.stats.summary_blocks
    fused(requests[0])
    assert engine.stats.summary_blocks > before  # summaries were read

    fused_ms, raw_ms = medians_ms(((fused, requests), (raw, requests)))

    summary_speedup = raw_ms / fused_ms
    print_table(
        "Ablation: window fold with and without summaries (4 aggregates)",
        ["path", "window rows", "median ms", "raw / path"],
        [["block scan + fold over summaries", 1_000, fused_ms,
          summary_speedup],
         ["block scan + fold over every row", 1_000, raw_ms, 1.0]])

    assert fused_ms < raw_ms, \
        f"summary fold {fused_ms:.3f} ms is not below the raw fold's " \
        f"{raw_ms:.3f} ms"

    benchmark.extra_info["summary_speedup"] = summary_speedup
    record_bench("ablation_fused_fold", fused_ms=fused_ms,
                 raw_fold_ms=raw_ms, summary_speedup=summary_speedup)
    benchmark.pedantic(fused, args=(requests[0],), rounds=20, iterations=5)
