"""Figure 16 — performance under different window sizes (data volume).

Paper shape: as the number of tuples each window holds grows, latency
rises modestly (staying under ~10 ms) and throughput decreases.

The configurations are built first and timed round-robin
(``medians_ms``), each point the median of every round's sample: a
stall on the box lands on all four points, not on whichever one was
being timed, so the gate tests the trend rather than one sample.
"""

from __future__ import annotations

import pytest

from _util import medians_ms, openmldb_for_config
from repro.bench import measure_throughput, print_series
from repro.workloads.microbench import MicroBenchConfig


@pytest.mark.benchmark(group="fig16")
def test_fig16_window_size_sweep(benchmark):
    window_sizes = [10, 50, 200, 500]
    arms = []
    for window_rows in window_sizes:
        config = MicroBenchConfig(keys=20, rows_per_key=600,
                                  windows=2, joins=0, union_tables=0,
                                  value_columns=2,
                                  window_rows=window_rows, seed=23)
        db, data, _sql = openmldb_for_config(config)
        arms.append((lambda row, db=db: db.request_row("bench", row),
                     data.requests[:60]))
    # Median, not mean: robust to the cold-start outliers a freshly
    # built dataset shows on a loaded host.
    latency_ms = medians_ms(arms, rounds=300, warmup=15)
    throughput = [measure_throughput(operation, requests)
                  for operation, requests in arms]
    print_series("Figure 16: window-size sweep", "window rows",
                 window_sizes, {"TP50 latency ms": latency_ms,
                                "ops/s": throughput})

    # Shape: latency up, throughput down, still under ~10 ms.
    assert latency_ms == sorted(latency_ms)
    assert throughput[-1] < throughput[0]
    assert latency_ms[-1] < 10.0

    benchmark.extra_info["latency_ms"] = [round(v, 3)
                                          for v in latency_ms]
    config = MicroBenchConfig(keys=20, rows_per_key=600, windows=2,
                              joins=0, union_tables=0, value_columns=2,
                              window_rows=200)
    db, data, _sql = openmldb_for_config(config)
    benchmark.pedantic(db.request_row, args=("bench", data.requests[0]),
                       rounds=20, iterations=2)
