"""Section 9.3.2 — multi-table window union: static vs self-adjusting.

Paper shape: the static (Flink-style) strategy collapses to ~1 K
tuples/s at a 10 K-row window (per-tuple re-sort + full recomputation,
skewed keys on rigid placement), while the self-adjusting engine holds a
roughly flat, orders-of-magnitude-higher throughput across window sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.bench import print_series
from repro.online.window_union import (DynamicScheduler, StaticScheduler,
                                       WindowUnionProcessor)
from repro.sql.functions import get_aggregate

WORKERS = 8


def union_stream(tuples, keys=16, hot_fraction=0.6, seed=7):
    rng = random.Random(seed)
    for index in range(tuples):
        key = "hot" if rng.random() < hot_fraction \
            else f"k{rng.randrange(keys)}"
        table = ("orders", "actions")[index % 2]
        yield (table, key, index * 5, float(index % 100))


def run(window_rows, tuples, self_adjusting):
    if self_adjusting:
        scheduler = DynamicScheduler(WORKERS, share_factor=1.5)
    else:
        scheduler = StaticScheduler(WORKERS)
    processor = WindowUnionProcessor(
        functions=[get_aggregate("sum"), get_aggregate("count")],
        arg_extractors=[lambda row: (row,)] * 2,
        scheduler=scheduler, max_rows=window_rows,
        incremental=self_adjusting, rebalance_every=500)
    return processor.run(union_stream(tuples))


@pytest.mark.benchmark(group="window-union")
def test_window_union_self_adjusting(benchmark):
    window_sizes = [100, 1_000, 5_000]
    static_tp = []
    dynamic_tp = []
    for window_rows in window_sizes:
        # Bound the static run's tuple count: its per-tuple cost is
        # O(window), so large windows at full stream length would take
        # minutes for no extra information.
        static_tuples = min(4 * window_rows, 8_000)
        static_tp.append(run(window_rows, static_tuples,
                             self_adjusting=False).throughput)
        dynamic_tp.append(run(window_rows, 20_000,
                              self_adjusting=True).throughput)
    print_series("Section 9.3.2: window-union throughput (tuples/s)",
                 "window rows", window_sizes,
                 {"static": static_tp, "self-adjusting": dynamic_tp,
                  "ratio": [d / s for d, s
                            in zip(dynamic_tp, static_tp)]})

    # Shape: static throughput collapses as windows grow; the
    # self-adjusting engine stays roughly flat and far ahead.
    assert static_tp[-1] < static_tp[0] / 5
    assert dynamic_tp[-1] > dynamic_tp[0] / 5
    assert dynamic_tp[-1] / static_tp[-1] > 20

    benchmark.extra_info["ratio_at_largest"] = round(
        dynamic_tp[-1] / static_tp[-1], 1)
    benchmark.pedantic(run, args=(1_000, 4_000, True),
                       rounds=3, iterations=1)
