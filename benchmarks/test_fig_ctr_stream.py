"""Ad CTR workload — streaming ingest plus heavy-hitter serving.

The production shape of feature serving for online advertising: click
and impression events stream in from regional collectors (out of order,
sometimes twice), while bidders hammer the feature endpoint for a
handful of always-on campaigns.  Two measurements:

1. **CDC ingest rate** — the seeded stream (duplicates, bounded
   disorder) through :class:`~repro.streams.StreamIngestor` into the
   online insert path, with pre-aggregation live.  Dedup must be exact:
   the table ends with the logical row count, never the delivered one.
2. **Heavy-hitter serving throughput** — a closed-loop client herd over
   the deployed CTR features, requests skewed to the same hot campaigns
   as the event stream.
"""

from __future__ import annotations

import time

import pytest

from _util import record_bench
from repro import OpenMLDB
from repro.bench import closed_loop
from repro.streams import CDCConfig, StreamIngestor
from repro.workloads import adctr

CLIENTS = 8
ITERS = 25

CONFIG = adctr.AdCTRConfig(campaigns=200, heavy_hitters=5,
                           hot_fraction=0.7, events=12_000)
CDC = CDCConfig(seed=5, sources=4, max_delay_ms=3_000,
                duplicate_fraction=0.04)


@pytest.mark.benchmark(group="fig_ctr_stream")
def test_fig_ctr_stream(benchmark):
    stream = adctr.cdc_stream(CONFIG, CDC)
    db = OpenMLDB()
    db.create_table(adctr.TABLE, adctr.SCHEMA, indexes=[adctr.INDEX])
    db.deploy("ctr", adctr.feature_sql())
    try:
        ingestor = StreamIngestor(db, sources=CDC.sources)
        started = time.perf_counter()
        ingestor.run(stream)
        ingest_seconds = time.perf_counter() - started

        # Exactly-once: duplicates dropped, logical history stored.
        assert ingestor.duplicates == stream.duplicate_count > 0
        assert db.table(adctr.TABLE).row_count == stream.logical_count
        ingest_eps = stream.delivered / ingest_seconds

        requests = list(adctr.generate_requests(CONFIG, requests=256))
        serve = closed_loop(
            CLIENTS, ITERS,
            lambda cid, i: db.request_row(
                "ctr", requests[(cid * ITERS + i) % len(requests)]))
        assert not serve.timed_out and not serve.errors

        print(f"\nCTR stream: {stream.delivered} deliveries "
              f"({stream.duplicate_count} dup, "
              f"{ingestor.out_of_order} out-of-order) at "
              f"{ingest_eps:,.0f} ev/s; serving {serve.qps:,.0f} req/s "
              f"p99 {serve.stats().tp99:.2f} ms")

        assert ingest_eps > 200          # python substrate floor
        assert serve.qps > 50

        benchmark.extra_info["ingest_eps"] = ingest_eps
        benchmark.extra_info["serve_qps"] = serve.qps
        record_bench("fig_ctr_stream", ingest_eps=ingest_eps,
                     serve_qps=serve.qps, serve_p99_ms=serve.stats().tp99,
                     duplicates_dropped=ingestor.duplicates,
                     out_of_order=ingestor.out_of_order)
        benchmark.pedantic(db.request_row, args=("ctr", requests[0]),
                           rounds=20, iterations=2)
    finally:
        db.close()
