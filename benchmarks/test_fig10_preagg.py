"""Figure 10 — long-window pre-aggregation: latency/throughput vs
window size.

Paper shape: without pre-aggregation, request latency grows steeply with
the number of tuples in the window (100 K → 5000 K in the paper; scaled
down here) and throughput collapses; with pre-aggregation both stay
nearly flat because requests merge bucket states instead of scanning raw
tuples.
"""

from __future__ import annotations

import pytest

from repro.bench import print_series
from repro.online.preagg import PreAggregator
from repro.schema import IndexDef, Schema
from repro.sql.functions import get_aggregate
from repro.storage.memtable import MemTable

HOUR = 3_600_000


STEP_MS = 60_000  # one tuple per minute → 60 tuples per hourly bucket


def _loaded_table(rows):
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "double")])
    table = MemTable("t", schema, [IndexDef(("k",), "ts")])
    for index in range(rows):
        table.insert(("k", index * STEP_MS, float(index % 10)))
    return table


def _raw_request(table, anchor_ts, lookback_ms):
    total = 0.0
    count = 0
    for _ts, row in table.window_scan(("k",), "ts", "k",
                                      start_ts=anchor_ts,
                                      end_ts=anchor_ts - lookback_ms):
        total += row[2]
        count += 1
    return total, count


@pytest.mark.benchmark(group="fig10")
def test_fig10_preagg_scaling(benchmark):
    import time

    sizes = [2_000, 10_000, 50_000]
    raw_ms = []
    preagg_ms = []
    for rows in sizes:
        table = _loaded_table(rows)
        anchor = (rows - 1) * STEP_MS
        lookback = rows * STEP_MS  # the window spans the whole stream

        started = time.perf_counter()
        for _ in range(5):
            raw_total, _ = _raw_request(table, anchor, lookback)
        raw_ms.append((time.perf_counter() - started) / 5 * 1_000)

        aggregator = PreAggregator(
            get_aggregate("sum"), arg_fn=lambda row: (row[2],),
            key_fn=lambda row: row[0], ts_fn=lambda row: row[1],
            bucket_ms=HOUR, levels=2, factor=24)
        aggregator.backfill(list(table.rows()))
        started = time.perf_counter()
        for _ in range(5):
            refined = aggregator.query("k", anchor - lookback, anchor)
        preagg_ms.append((time.perf_counter() - started) / 5 * 1_000)
        # Correctness: bucket state + raw edge spans == full raw scan.
        total = refined.state[0] if refined.state else 0.0
        for span in (refined.head_span, refined.tail_span):
            if span is not None:
                span_total, _count = _raw_request(table, span[1],
                                                  span[1] - span[0])
                total += span_total
        assert total == pytest.approx(raw_total)

    print_series("Figure 10: long-window latency (ms)",
                 "window tuples", sizes,
                 {"no pre-agg": raw_ms, "pre-agg": preagg_ms,
                  "speedup": [r / p for r, p in zip(raw_ms, preagg_ms)]})

    # Shape: raw latency grows with window size; pre-agg stays flat and
    # the speedup widens.
    assert raw_ms[-1] > raw_ms[0] * 5
    assert preagg_ms[-1] < raw_ms[-1] / 20
    assert raw_ms[-1] / preagg_ms[-1] > raw_ms[0] / preagg_ms[0]

    table = _loaded_table(sizes[0])
    benchmark.pedantic(_raw_request,
                       args=(table, (sizes[0] - 1) * STEP_MS,
                             sizes[0] * STEP_MS),
                       rounds=5, iterations=1)
