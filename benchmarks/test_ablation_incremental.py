"""Ablation — subtract-and-evict incremental aggregation (Section 5.2).

DESIGN.md calls out incremental window maintenance as a design choice:
per-tuple cost must be O(1) instead of O(window).  We stream tuples
through both paths at several window sizes, and through a third, ungated
one: storing each tuple and folding its window from storage — the
two-level fold over sealed-block and span summaries that serves every
window without ingest-time state.
"""

from __future__ import annotations

import time

import pytest

from _util import gc_paused
from repro.bench import print_series
from repro.online.incremental import SlidingWindowAggregator
from repro.schema import Schema
from repro.sql.compiler import compile_plan
from repro.sql.functions import get_aggregate
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.skiplist import TimeSeriesIndex


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


def storage_fold_run(window_rows, tuples):
    schema = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                                ("v", "double")])
    sql = ("SELECT sum(v) OVER w AS s, avg(v) OVER w AS a, max(v) OVER w "
           "AS m FROM t WINDOW w AS (PARTITION BY k ORDER BY ts ROWS "
           f"BETWEEN {window_rows - 1} PRECEDING AND CURRENT ROW)")
    catalog = {"t": schema}
    window = compile_plan(build_plan(parse_select(sql), catalog),
                          catalog).windows["w"]
    index = TimeSeriesIndex(width=len(schema))
    started = time.perf_counter()
    for ts in range(tuples):
        index.put("k", ts, ("k", ts, float(ts % 100)))
        window.compute_blocks(index.scan_blocks("k", limit=window_rows))
    return time.perf_counter() - started


@pytest.mark.benchmark(group="ablation-incremental")
def test_incremental_vs_recompute(benchmark):
    window_sizes = [10, 100, 1_000]
    tuples = 2_000
    # The three arms run in turn at each size, with the collector
    # paused: a collection cannot land in one arm and skew its ratio.
    with gc_paused():
        runs = [(incremental_run(w, tuples), recompute_run(w, tuples),
                 storage_fold_run(w, tuples)) for w in window_sizes]
    incremental_s, recompute_s, fold_s = map(list, zip(*runs))
    speedups = [r / i for i, r in zip(incremental_s, recompute_s)]
    print_series("Ablation: incremental vs recompute (seconds)",
                 "window rows", window_sizes,
                 {"recompute": recompute_s,
                  "incremental": incremental_s,
                  "speedup": speedups,
                  "storage fold (ungated)": fold_s,
                  "fold / incremental": [f / i for i, f
                                         in zip(incremental_s, fold_s)]})

    # Shape: the gap widens with the window (O(1) vs O(window)).
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 20

    benchmark.pedantic(incremental_run, args=(100, 500),
                       rounds=3, iterations=1)
