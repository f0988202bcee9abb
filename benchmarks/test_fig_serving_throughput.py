"""Serving frontend — throughput and graceful degradation.

Two closed-loop scenarios over the simulated cluster:

1. **Hot-key herd throughput.**  16 clients cycle 4 hot request rows
   (the thundering-herd shape of production feature serving: many
   concurrent lookups for the same entity).  Direct serial requests
   execute every window scan; the micro-batching frontend collapses
   identical concurrent requests (single-flight).  The gate is what single-flight
   *guarantees*, as counts: each of the 192 requests is either
   executed or answered by an in-flight twin, the engine executes at
   most one per distinct row per iteration (48), so at least 144 are
   deduplicated — and the frontend is not slower than serial.  On a
   quiet box the herd collapses completely (12 executed, 180
   deduplicated, every run); with a CPU hog beside it 13–32 executed,
   which is why the recorded 180 is not the floor.  The throughput
   ratio is recorded, not gated: it used to be ``≥ 2×``, which
   measures how expensive the scan the herd skips is against the
   frontend's batching window (then a 1 ms wait for every underfull
   batch; now only a lone request waits, and a batch with company goes
   at once), and so broke each time the scan got cheaper with nothing
   in the frontend changed — at 600-row
   windows when the second level became contiguous (the windows were
   grown to 3,000 rows to keep it), and at 3,000 rows when the fold
   went columnar (five runs: 2.0–2.6×, parent 3.0–4.1× —
   EXPERIMENTS.md, "Column blocks").

2. **Load shedding vs unbounded queueing.**  A slow cluster (injected
   per-RPC delay) saturates a frontend that runs batches of at most 4.
   The bounded frontend sheds the excess with typed ``OverloadError``
   and keeps admitted-request p99 below the unbounded frontend, where
   every request queues and the tail absorbs the whole backlog — the
   paper's tail-latency story applied to the request path.
"""

from __future__ import annotations

import pytest

from _util import record_bench
from repro.bench import LatencyStats, closed_loop
from repro.cluster import FaultInjector, NameServer, TabletServer
from repro.errors import OverloadError
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import FrontendServer

CLIENTS = 16
HOT_ROWS = 4
HISTORY_ROWS = 3_000  # per hot key, all inside the window
ANCHOR_TS = 10_000

FEATURE_SQL = (
    "SELECT uid, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
    "WINDOW w AS (PARTITION BY uid ORDER BY ts "
    "ROWS_RANGE BETWEEN 10000 PRECEDING AND CURRENT ROW)")


@pytest.fixture(scope="module")
def serving_cluster():
    obs = Observability(enabled=True)
    schema = Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
    cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)],
                         obs=obs)
    cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                         partitions=2, replicas=2)
    for uid in range(HOT_ROWS):
        for k in range(HISTORY_ROWS):
            cluster.put("t", (uid, 1_000 + k, float(k % 10)))
    cluster.deploy("feat", FEATURE_SQL)
    yield cluster, obs
    cluster.close()


@pytest.mark.benchmark(group="fig_serving")
def test_batched_frontend_beats_serial_throughput(benchmark,
                                                  serving_cluster):
    cluster, obs = serving_cluster
    iters = 12
    rows = [(uid, ANCHOR_TS, 0.0) for uid in range(HOT_ROWS)]

    def count(series_name):
        series = obs.registry.get(series_name)
        return series.value if series is not None else 0

    # Serial baseline: every client calls the cluster directly; every
    # request executes its own window scans.
    serial = closed_loop(
        CLIENTS, iters,
        lambda cid, i: cluster.request("feat", rows[i % HOT_ROWS]))
    assert not serial.timed_out and not serial.errors
    executed_before = count("online.requests")
    assert executed_before == CLIENTS * iters  # serial: every one runs
    deduped_before = count("serving.dedup")
    with FrontendServer(cluster, obs=obs, max_queue=256,
                        max_batch=8, max_wait_ms=1.0) as frontend:
        front = closed_loop(
            CLIENTS, iters,
            lambda cid, i: frontend.request("feat", rows[i % HOT_ROWS]))
    assert not front.timed_out and not front.errors
    herd_executed = count("online.requests") - executed_before
    herd_deduped = count("serving.dedup") - deduped_before

    serial_qps = serial.qps
    front_qps = front.qps
    print(f"\nserving throughput: serial {serial_qps:,.0f} req/s, "
          f"frontend {front_qps:,.0f} req/s "
          f"({front_qps / serial_qps:.1f}x; {herd_executed} executed, "
          f"{herd_deduped} deduped of {CLIENTS * iters})")

    # The herd collapses: a row is executed at most once per iteration,
    # everyone else rides the in-flight twin.
    assert herd_executed + herd_deduped == CLIENTS * iters
    assert herd_executed <= HOT_ROWS * iters
    assert front_qps >= serial_qps

    benchmark.extra_info["serial_qps"] = serial_qps
    benchmark.extra_info["frontend_qps"] = front_qps
    benchmark.extra_info["speedup"] = front_qps / serial_qps
    record_bench("fig_serving_throughput", serial_qps=serial_qps,
                 frontend_qps=front_qps,
                 speedup=front_qps / serial_qps,
                 herd_executed=herd_executed, herd_deduped=herd_deduped)
    benchmark.pedantic(cluster.request, args=("feat", rows[0]),
                       rounds=10, iterations=1)


@pytest.mark.benchmark(group="fig_serving")
def test_shedding_bounds_tail_latency(benchmark, serving_cluster):
    cluster, obs = serving_cluster
    iters = 6
    faults = FaultInjector(cluster)
    for name in list(cluster.tablets):
        faults.slow(name, delay_ms=5.0)
    try:
        def run(max_queue, max_inflight):
            with FrontendServer(cluster, obs=obs, max_queue=max_queue,
                                max_inflight=max_inflight,
                                max_batch=4, max_wait_ms=0,
                                single_flight=False) as frontend:
                # Unique rows: no dedup — pure queueing behaviour.
                result = closed_loop(
                    CLIENTS, iters,
                    lambda cid, i: frontend.request(
                        "feat", (cid % HOT_ROWS,
                                 ANCHOR_TS + cid * 100 + i, 0.0)))
            assert not result.timed_out  # partial runs must fail loudly
            return result.latencies, result.errors

        queued_lat, queued_errors = run(max_queue=4_096,
                                        max_inflight=None)
        shed_lat, shed_errors = run(max_queue=4, max_inflight=8)
    finally:
        faults.heal()

    # Unbounded: everything is admitted, the tail absorbs the backlog.
    assert not queued_errors
    queued_p99 = LatencyStats.from_seconds(queued_lat).tp99

    # Bounded: the excess sheds typed; admitted requests stay fast.
    assert shed_errors and all(isinstance(e, OverloadError)
                               for e in shed_errors)
    assert len(shed_lat) + len(shed_errors) == CLIENTS * iters
    shed_p99 = LatencyStats.from_seconds(shed_lat).tp99

    print(f"\nserving tail under overload: unbounded p99 "
          f"{queued_p99:.1f} ms, bounded p99 {shed_p99:.1f} ms, "
          f"{len(shed_errors)} shed")
    assert shed_p99 < queued_p99

    benchmark.extra_info["unbounded_p99_ms"] = queued_p99
    benchmark.extra_info["bounded_p99_ms"] = shed_p99
    benchmark.extra_info["shed"] = len(shed_errors)
    record_bench("fig_serving_shedding", unbounded_p99_ms=queued_p99,
                 bounded_p99_ms=shed_p99, shed=len(shed_errors))
    benchmark.pedantic(cluster.request, args=("feat", (0, ANCHOR_TS, 0.0)),
                       rounds=5, iterations=1)
