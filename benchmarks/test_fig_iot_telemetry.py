"""IoT telemetry workload — sparse long windows, pre-agg on vs off.

Fleet-health features ask day-long questions about devices that report
a few times an hour; without pre-aggregation every request re-scans a
day of telemetry per device, with it the day window is answered from
hour-wide bucket merges (``long_windows="w1d:1h"``).  As in Figure 11,
the "without" arm is the raw scan-fold — ``OnlineEngine.execute_request``
with no ingest-time state — and the gate compares pre-aggregation
against it.  The plain deployment's default path, which folds memoized
sealed-block summaries and so answers the day window about as fast as
the bucket merges, is printed (and recorded) as a third, ungated row.
The guard is that every arm returns identical vectors.
"""

from __future__ import annotations

import pytest

from _util import gc_paused, record_bench
from repro.bench import measure_latencies, print_table
from repro import OpenMLDB
from repro.workloads import iot

# Much denser than the default fleet: a small device pool with deep
# history, so the 1-day window holds thousands of rows per device and
# the per-request scan cost dominates the bucket-merge overhead (at the
# default sparsity a 150-row window scans faster than it merges).
CONFIG = iot.IoTConfig(devices=8, readings=40_000)

# Sealed blocks remember their integer reductions, so the raw scan-fold
# answers the day window about as fast as the bucket merges: eight runs
# of this file read 0.69-1.6x (EXPERIMENTS, "One thread hop").  The gate
# sits under half the smallest of them; it catches pre-aggregation
# falling far behind the scan it replaces, not a missing speed-up.
MIN_REDUCTION = 0.3


@pytest.mark.benchmark(group="fig_iot")
def test_fig_iot_telemetry(benchmark):
    db = OpenMLDB()
    db.create_table(iot.TABLE, iot.SCHEMA, indexes=[iot.INDEX])
    db.deploy("scan", iot.feature_sql())
    deployment = db.deploy("preagg", iot.feature_sql(),
                           long_windows=iot.LONG_WINDOWS)
    try:
        for row in iot.generate_readings(CONFIG):
            db.insert(iot.TABLE, row)
        db.flush_preagg()

        requests = list(iot.generate_requests(CONFIG, requests=40))
        compiled = db.deployments["scan"].compiled

        def scan_fold(row):
            return db.online_engine.execute_request(compiled, row)

        with gc_paused():
            raw = measure_latencies(scan_fold, requests, warmup=4)
            fast = measure_latencies(
                lambda row: db.request_row("preagg", row), requests,
                warmup=4)
            plain = measure_latencies(
                lambda row: db.request_row("scan", row), requests,
                warmup=4)

        # Every arm must agree exactly (integer telemetry).
        for row in requests[:10]:
            assert scan_fold(row) == db.request_row("preagg", row) \
                == db.request_row("scan", row)

        reduction = raw.mean / fast.mean
        plain_ratio = plain.mean / fast.mean
        print_table("IoT telemetry: 1-day window, dense-history fleet",
                    ["deployment", "mean ms", "TP99 ms"],
                    [["raw scan-fold (no ingest state)", raw.mean,
                      raw.tp99],
                     ["preagg (w1d:1h)", fast.mean, fast.tp99],
                     ["reduction", f"{reduction:.2f}x", ""],
                     ["plain deployment (ungated)", plain.mean,
                      plain.tp99],
                     ["plain / preagg (ungated)", f"{plain_ratio:.2f}x",
                      ""]])

        assert reduction > MIN_REDUCTION
        assert deployment.backfill_seconds < 60

        benchmark.extra_info["reduction"] = reduction
        record_bench("fig_iot_telemetry", scan_mean_ms=raw.mean,
                     preagg_mean_ms=fast.mean, reduction=reduction,
                     plain_mean_ms=plain.mean, plain_ratio=plain_ratio)
        benchmark.pedantic(db.request_row,
                           args=("preagg", requests[0]),
                           rounds=20, iterations=2)
    finally:
        db.close()
