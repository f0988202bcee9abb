"""Spans nest: a traced wire stack never exports a child span that
starts before its parent or ends after it.

The stack is the served path end to end — ``NetServer`` →
``FrontendServer`` → ``NameServer`` over three tablets with two
replicas — driven by a few concurrent clients while a writer puts rows,
so batches form across connections and tablet-side spans resume
propagated contexts.
"""

import threading

from repro.cluster import NameServer, TabletServer
from repro.netserve import NetClient, NetServer
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import FrontendServer

# perf_counter seconds round-trip through ``duration_ms``; a nanosecond
# covers the float rounding of ``start_s + duration_ms / 1000``.
_ROUNDING_S = 1e-9


def _traced_cluster(obs):
    cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)],
                         obs=obs)
    events = Schema.from_pairs(
        [("uid", "int"), ("ts", "timestamp"), ("amt", "double")])
    profile = Schema.from_pairs(
        [("puid", "int"), ("pts", "timestamp"), ("tier", "string")])
    cluster.create_table("events", events, [IndexDef(("uid",), "ts")],
                         partitions=4, replicas=2)
    cluster.create_table("profile", profile, [IndexDef(("puid",), "pts")],
                         partitions=3, replicas=2)
    for uid in range(8):
        for k in range(5):
            cluster.put("events", (uid, 1_000 + k * 100, float(k)))
        cluster.put("profile", (uid, 500, f"tier-{uid % 3}"))
    cluster.deploy(
        "feat",
        "SELECT uid, sum(amt) OVER w AS s, tier "
        "FROM events LAST JOIN profile ORDER BY pts "
        "  ON events.uid = profile.puid "
        "WINDOW w AS (PARTITION BY uid ORDER BY ts "
        "  ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
    return cluster


def test_every_span_lies_inside_its_parent():
    obs = Observability(enabled=True)
    cluster = _traced_cluster(obs)
    frontend = FrontendServer(cluster, obs, max_wait_ms=0.5)
    server = NetServer(frontend, obs=obs)
    host, port = server.start()
    errors = []
    stop = threading.Event()

    def reader(client_id):
        try:
            with NetClient(host, port) as client:
                client.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                for i in range(25):
                    uid = (client_id + i) % 8
                    rows = client.execute("s0", [uid, 1_450, 1.0]).rows
                    assert len(rows) == 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        ts = 2_000
        while not stop.is_set():
            cluster.put("events", (ts % 8, ts, 1.0))
            ts += 1

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    putter = threading.Thread(target=writer)
    try:
        putter.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        stop.set()
        putter.join(timeout=10)
        server.close()
        frontend.close()
        cluster.close()
    assert not errors

    spans = obs.tracer.export()
    by_id = {span["span_id"]: span for span in spans}
    names = {span["name"] for span in spans}
    assert {"net.request", "deployment.execute_batch", "deployment.execute",
            "index.seek", "window.scan", "agg.fold"} <= names
    children = [span for span in spans if span["parent_id"] is not None]
    assert children
    leaks = []
    for child in children:
        parent = by_id.get(child["parent_id"])
        if parent is None:
            leaks.append((child["name"], "parent never exported"))
            continue
        assert child["trace_id"] == parent["trace_id"]
        child_end = child["start_s"] + child["duration_ms"] / 1_000
        parent_end = parent["start_s"] + parent["duration_ms"] / 1_000
        if child["start_s"] < parent["start_s"] - _ROUNDING_S \
                or child_end > parent_end + _ROUNDING_S:
            leaks.append((child["name"], parent["name"]))
    assert leaks == []
