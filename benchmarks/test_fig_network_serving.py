"""Network serving — external-client path vs the in-process path.

The paper serves features to external processes over SQL connections;
everything benchmarked so far called the engine in-process.  This file
measures what the network boundary costs: the same deployment, the
same closed-loop load, executed

1. **in-process** — threads calling ``FrontendServer.request``
   directly (the ceiling: no sockets, no protocol framing), and
2. **over the wire** — each thread owning one PostgreSQL-protocol
   connection to a :class:`~repro.netserve.NetServer` in front of the
   *same* frontend, executing the deployment as a prepared statement
   (Bind/Execute/Sync per request — the steady-state shape of a real
   driver).

Both paths record QPS and tail latency into ``BENCH_online.json``
(figure ``fig_network_serving``).  Assertions are about correctness
and sanity (no errors, the network path achieves real throughput and
in-process stays at least as fast), not absolute numbers — the wire
adds serialization, syscalls, and an event-loop hop, and how much that
costs is exactly the number this figure exists to record.
"""

from __future__ import annotations

import pytest

from _util import record_bench
from repro.bench import closed_loop
from repro.cluster import NameServer, TabletServer
from repro.netserve import NetClient, NetServer
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import FrontendServer

CLIENTS = 8
ITERS = 25
HOT_KEYS = 16
ANCHOR_TS = 10_000

FEATURE_SQL = (
    "SELECT uid, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
    "WINDOW w AS (PARTITION BY uid ORDER BY ts "
    "ROWS_RANGE BETWEEN 10000 PRECEDING AND CURRENT ROW)")


@pytest.fixture(scope="module")
def network_stack():
    """Cluster → frontend → wire server, one shared observability."""
    obs = Observability(enabled=True)
    schema = Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
    cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)],
                         obs=obs)
    cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                         partitions=2, replicas=2)
    for uid in range(HOT_KEYS):
        for k in range(200):
            cluster.put("t", (uid, 1_000 + k, float(k % 10)))
    cluster.deploy("feat", FEATURE_SQL)
    frontend = FrontendServer(cluster, obs=obs, max_queue=512,
                              max_batch=8, max_wait_ms=0.5,
                              single_flight=False)
    server = NetServer(frontend, obs=obs, max_connections=CLIENTS + 4)
    host, port = server.start()
    yield obs, frontend, (host, port)
    server.close()
    frontend.close()
    cluster.close()


def _row(cid, i):
    # Unique rows per call: no single-flight collapse, so both paths
    # execute every request — an apples-to-apples comparison.
    return (((cid * ITERS + i) % HOT_KEYS),
            ANCHOR_TS + cid * 1_000 + i, 0.0)


@pytest.mark.benchmark(group="fig_network")
def test_network_path_vs_in_process(benchmark, network_stack):
    obs, frontend, (host, port) = network_stack

    inprocess = closed_loop(
        CLIENTS, ITERS,
        lambda cid, i: frontend.request("feat", _row(cid, i)))
    assert not inprocess.timed_out and not inprocess.errors

    def connect(cid):
        client = NetClient(host, port)
        client.prepare("s0", "EXECUTE feat ($1, $2, $3)")
        return client

    network = closed_loop(
        CLIENTS, ITERS,
        lambda client, i: client.execute("s0", _row(0, i)),
        setup=connect, teardown=NetClient.close)
    assert not network.timed_out and not network.errors
    assert network.completed == CLIENTS * ITERS

    inprocess_stats = inprocess.stats()
    network_stats = network.stats()
    print(f"\nnetwork serving: in-process {inprocess.qps:,.0f} req/s "
          f"(p99 {inprocess_stats.tp99:.2f} ms), wire "
          f"{network.qps:,.0f} req/s (p99 {network_stats.tp99:.2f} ms), "
          f"overhead {inprocess.qps / network.qps:.1f}x")

    # Sanity: the wire path really works under concurrency, and the
    # protocol overhead is bounded (well within one order of magnitude
    # at laptop scale; the figure records the measured ratio).
    assert network.qps > 50.0
    assert network.qps >= inprocess.qps / 20.0

    benchmark.extra_info["inprocess_qps"] = inprocess.qps
    benchmark.extra_info["network_qps"] = network.qps
    record_bench("fig_network_serving",
                 inprocess_qps=inprocess.qps,
                 inprocess_p99_ms=inprocess_stats.tp99,
                 network_qps=network.qps,
                 network_p99_ms=network_stats.tp99,
                 wire_overhead=inprocess.qps / network.qps)
    benchmark.pedantic(frontend.request, args=("feat", _row(0, 0)),
                       rounds=10, iterations=1)


@pytest.mark.benchmark(group="fig_network")
def test_wire_errors_are_typed_under_overload(benchmark, network_stack):
    """Shedding crosses the wire as SQLSTATE 53xxx, not broken sockets.

    A deliberately tiny frontend (batch of 1, queue of 2) behind its own
    NetServer saturates instantly; clients must see clean retryable
    errors while every accepted request still completes.
    """
    obs, frontend, _ = network_stack
    from repro.netserve import ServerError

    slow_frontend = FrontendServer(
        frontend._backend, max_queue=2, max_inflight=4,
        max_batch=1, max_wait_ms=0, single_flight=False)
    server = NetServer(slow_frontend)
    host, port = server.start()
    try:
        def connect(cid):
            client = NetClient(host, port)
            client.prepare("s0", "EXECUTE feat ($1, $2, $3)")
            return client

        result = closed_loop(
            CLIENTS, ITERS,
            lambda client, i: client.execute("s0", _row(0, i)),
            setup=connect, teardown=NetClient.close)
    finally:
        server.close()
        slow_frontend.close()

    assert not result.timed_out
    shed = [e for e in result.errors if isinstance(e, ServerError)]
    assert len(shed) == len(result.errors)  # only typed server errors
    assert all(e.sqlstate.startswith("53") for e in shed)
    assert result.completed + len(shed) == CLIENTS * ITERS
    assert result.completed > 0
    print(f"\nwire overload: {result.completed} served, "
          f"{len(shed)} shed with SQLSTATE 53xxx")
    record_bench("fig_network_shedding",
                 served=result.completed, shed=len(shed))
    benchmark.pedantic(frontend.request, args=("feat", _row(0, 0)),
                       rounds=5, iterations=1)
