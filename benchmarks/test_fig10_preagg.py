"""Figure 10 — long-window pre-aggregation: latency vs window size.

Paper shape: without pre-aggregation, request latency grows steeply with
the number of tuples in the window (100 K → 5000 K in the paper; scaled
down here); with pre-aggregation it stays nearly flat because requests
merge aggregated buckets instead of scanning raw tuples.  Here storage
keeps the buckets: sealed 256-row blocks and 4,096-row spans memoize
their reductions, and a ``long_windows`` deployment folds them.  The
"without" arm is the same scan-fold with no summaries
(``fold_without_summaries``, a test-side view).
"""

from __future__ import annotations

import statistics
import time

import pytest

from _util import fold_without_summaries, gc_paused, record_bench
from repro import OpenMLDB
from repro.bench import print_series

STEP_MS = 60_000  # one tuple per minute

SQL = ("SELECT k, sum(v) OVER w AS total, count(v) OVER w AS n "
       "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
       "ROWS_RANGE BETWEEN {lookback} PRECEDING AND CURRENT ROW)")


def _loaded_db(rows):
    db = OpenMLDB()
    db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
               "INDEX(KEY=k, TS=ts))")
    db.insert_many("t", [("k", index * STEP_MS, float(index % 10) + 0.1)
                         for index in range(rows)])
    # The window spans the whole stream.
    db.deploy("lw", SQL.format(lookback=rows * STEP_MS),
              long_windows="w:1h")
    return db


def _median_ms(operation, row, rounds=7):
    operation(row)  # summaries are memoized on first read
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        operation(row)
        timings.append((time.perf_counter() - started) * 1_000)
    return statistics.median(timings)


@pytest.mark.benchmark(group="fig10")
def test_fig10_preagg_scaling(benchmark):
    sizes = [2_000, 10_000, 50_000]
    raw_ms = []
    summary_ms = []
    for rows in sizes:
        db = _loaded_db(rows)
        request = ("k", rows * STEP_MS, 1.0)
        without = fold_without_summaries(db, "lw")

        def summary_fold(row):
            return db.request_row("lw", row)

        # Correctness: summaries + raw edges == the fold over every row.
        assert summary_fold(request) == without(request)
        with gc_paused():
            raw_ms.append(_median_ms(without, request))
            summary_ms.append(_median_ms(summary_fold, request))
        db.close()

    print_series("Figure 10: long-window latency (ms)",
                 "window tuples", sizes,
                 {"no summaries": raw_ms, "summary fold": summary_ms,
                  "speedup": [r / p for r, p in zip(raw_ms, summary_ms)]})

    # Shape: latency without summaries grows with the window; the
    # summary fold stays nearly flat and the speedup widens.
    assert raw_ms[-1] > raw_ms[0] * 5
    assert summary_ms[-1] < summary_ms[0] * 5
    assert summary_ms[-1] < raw_ms[-1] / 10
    assert raw_ms[-1] / summary_ms[-1] > raw_ms[0] / summary_ms[0]

    record_bench("fig10_preagg", sizes=sizes, raw_ms=raw_ms,
                 summary_ms=summary_ms)
    db = _loaded_db(sizes[0])
    benchmark.pedantic(db.request_row,
                       args=("lw", ("k", sizes[0] * STEP_MS, 1.0)),
                       rounds=5, iterations=1)
    db.close()
