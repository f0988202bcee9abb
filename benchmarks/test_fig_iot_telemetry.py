"""IoT telemetry workload — sparse long windows, summaries on vs off.

Fleet-health features ask day-long questions about devices that report
a few times an hour.  With ``long_windows="w1d:1h"`` the day window is
served by the storage fold, which reads the memoized summaries of the
sealed blocks (and 4,096-row spans) it covers and only its edges' raw
rows.  As in Figure 11, the "without" arm is the same scan-fold with no
summaries (``fold_without_summaries``, a test-side view), and the gate
compares the long-window deployment against it.  The guard is that both
arms return identical vectors.
"""

from __future__ import annotations

from _util import fold_without_summaries, gc_paused, record_bench
from repro.bench import measure_latencies, print_table
from repro import OpenMLDB
from repro.workloads import iot

# Much denser than the default fleet: a small device pool with deep
# history, so the 1-day window holds thousands of rows per device and
# the per-request scan cost dominates the summary reads.
CONFIG = iot.IoTConfig(devices=8, readings=40_000)

# Integer telemetry: a fold over a bare int column is a C-level ``sum``,
# so summaries save less here than on Figure 11's doubles.  Eight runs of
# this file read 1.20-1.74x (EXPERIMENTS, "Storage is the
# pre-aggregator"); the gate sits at half the smallest of them.
MIN_REDUCTION = 0.6


def test_fig_iot_telemetry(benchmark):
    db = OpenMLDB()
    db.create_table(iot.TABLE, iot.SCHEMA, indexes=[iot.INDEX])
    db.deploy("long", iot.feature_sql(), long_windows=iot.LONG_WINDOWS)
    try:
        for row in iot.generate_readings(CONFIG):
            db.insert(iot.TABLE, row)

        requests = list(iot.generate_requests(CONFIG, requests=40))
        without = fold_without_summaries(db, "long")

        with gc_paused():
            raw = measure_latencies(without, requests, warmup=4)
            fast = measure_latencies(
                lambda row: db.request_row("long", row), requests,
                warmup=4)

        # Both arms must agree exactly.
        for row in requests[:10]:
            assert without(row) == db.request_row("long", row)

        reduction = raw.mean / fast.mean
        print_table("IoT telemetry: 1-day window, dense-history fleet",
                    ["deployment", "mean ms", "TP99 ms"],
                    [["scan-fold, no summaries", raw.mean, raw.tp99],
                     ["long_windows (w1d:1h)", fast.mean, fast.tp99],
                     ["reduction", f"{reduction:.2f}x", ""]])

        assert reduction > MIN_REDUCTION

        benchmark.extra_info["reduction"] = reduction
        record_bench("fig_iot_telemetry", scan_mean_ms=raw.mean,
                     preagg_mean_ms=fast.mean, reduction=reduction)
        benchmark.pedantic(db.request_row,
                           args=("long", requests[0]),
                           rounds=20, iterations=2)
    finally:
        db.close()
