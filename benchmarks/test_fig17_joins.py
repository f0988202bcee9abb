"""Figure 17 — performance under different LAST JOIN counts.

Paper shape: each additional LAST JOIN adds only a small latency
increment (stays under 5 ms) and throughput remains above ~6 K QPS,
because every join is a single index lookup on the right table.

The configurations are built first and timed round-robin
(``medians_ms``), each point the median of every round's sample, so the
gate tests the trend rather than one sample.
"""

from __future__ import annotations

import pytest

from _util import medians_ms, openmldb_for_config
from repro.bench import measure_throughput, print_series
from repro.workloads.microbench import MicroBenchConfig


@pytest.mark.benchmark(group="fig17")
def test_fig17_join_count_sweep(benchmark):
    join_counts = [0, 1, 2, 4]
    arms = []
    for joins in join_counts:
        config = MicroBenchConfig(keys=40, rows_per_key=50, windows=1,
                                  joins=joins, union_tables=0,
                                  value_columns=2, seed=29)
        db, data, _sql = openmldb_for_config(config)
        arms.append((lambda row, db=db: db.request_row("bench", row),
                     data.requests[:60]))
    latency_ms = medians_ms(arms, rounds=300, warmup=15)  # outlier-robust
    throughput = [measure_throughput(operation, requests)
                  for operation, requests in arms]
    print_series("Figure 17: LAST JOIN sweep", "#joins", join_counts,
                 {"TP50 latency ms": latency_ms, "ops/s": throughput})

    # Shape: slight latency growth, bounded absolute latency, and the
    # throughput floor the paper quotes (scaled: >1K QPS in Python).
    assert latency_ms[-1] > latency_ms[0]
    assert latency_ms[-1] < 5.0
    assert latency_ms[-1] < 3 * latency_ms[0]
    assert min(throughput) > 500

    config = MicroBenchConfig(keys=40, rows_per_key=50, windows=1,
                              joins=2, union_tables=0, value_columns=2)
    db, data, _sql = openmldb_for_config(config)
    benchmark.pedantic(db.request_row, args=("bench", data.requests[0]),
                       rounds=30, iterations=2)
