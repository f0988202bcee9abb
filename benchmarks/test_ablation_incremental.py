"""Ablation — subtract-and-evict incremental aggregation (Section 5.2).

DESIGN.md calls out incremental window maintenance as a design choice:
per-tuple cost must be O(1) instead of O(window).  We stream tuples
through both paths at several window sizes.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import print_series
from repro.online.incremental import SlidingWindowAggregator
from repro.sql.functions import get_aggregate


def incremental_run(window_rows, tuples):
    aggregator = SlidingWindowAggregator(
        [get_aggregate(name) for name in ("sum", "avg", "max")],
        [lambda row: (row,)] * 3, max_rows=window_rows)
    started = time.perf_counter()
    for index in range(tuples):
        aggregator.insert(index, float(index % 100))
        aggregator.results()
    return time.perf_counter() - started


def recompute_run(window_rows, tuples):
    buffer = []
    started = time.perf_counter()
    for index in range(tuples):
        buffer.append((index, float(index % 100)))
        if len(buffer) > window_rows:
            buffer.pop(0)
        for name in ("sum", "avg", "max"):
            function = get_aggregate(name)
            state = function.create()
            for _ts, value in buffer:
                function.add(state, value)
            function.result(state)
    return time.perf_counter() - started


@pytest.mark.benchmark(group="ablation-incremental")
def test_incremental_vs_recompute(benchmark):
    window_sizes = [10, 100, 1_000]
    tuples = 2_000
    incremental_s = [incremental_run(w, tuples) for w in window_sizes]
    recompute_s = [recompute_run(w, tuples) for w in window_sizes]
    speedups = [r / i for i, r in zip(incremental_s, recompute_s)]
    print_series("Ablation: incremental vs recompute (seconds)",
                 "window rows", window_sizes,
                 {"recompute": recompute_s,
                  "incremental": incremental_s,
                  "speedup": speedups})

    # Shape: the gap widens with the window (O(1) vs O(window)).
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 20

    benchmark.pedantic(incremental_run, args=(100, 500),
                       rounds=3, iterations=1)
