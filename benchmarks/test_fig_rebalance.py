"""Rebalance under load — elastic data plane QPS/p99 impact.

The elastic control plane's promise is that resharding is an online
operation: a partition split plus a live shard migration run *under*
sustained closed-loop serving traffic without killing a single request
and with a bounded latency tail.  This figure measures three phases of
the same cluster:

* **baseline** — steady closed-loop request traffic, control plane idle;
* **during** — the same traffic while a split and a load-driven
  rebalance (migration off the busiest tablet) execute concurrently;
* **after** — steady traffic again on the resharded topology.

Shape assertions: zero request errors in every phase (kill-free), the
during-phase p99 stays within a bounded multiple of baseline (the
handoff write-pause is short), and the after-phase throughput does not
regress.  Medians land in ``BENCH_online.json`` under
``fig_rebalance``.

A second scenario measures tenant isolation: a noisy tenant blowing
through its rate budget is shed with typed errors while a quiet
neighbor's p99 stays within budget.
"""

from __future__ import annotations

import threading

import pytest

from _util import record_bench
from repro.bench import closed_loop
from repro.cluster import NameServer, RetryPolicy, TabletServer
from repro.ctlplane import (PartitionSplitter, Rebalancer, ShardMigrator,
                            TenantRegistry)
from repro.errors import TenantBudgetError
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import FrontendServer

CLIENTS = 8
ITERS = 40
USERS = 16

FAST = RetryPolicy(attempts=4, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=2.0, rpc_timeout_ms=50.0)

FEATURE_SQL = (
    "SELECT uid, sum(amt) OVER w AS s, count(amt) OVER w AS c FROM ev "
    "WINDOW w AS (PARTITION BY uid ORDER BY ts "
    "ROWS_RANGE BETWEEN 10000 PRECEDING AND CURRENT ROW)")


def build_cluster(obs=None):
    schema = Schema.from_pairs([
        ("uid", "string"), ("ts", "timestamp"), ("amt", "double")])
    cluster = NameServer([TabletServer(f"t{i}") for i in range(4)],
                         retry_policy=FAST, obs=obs)
    cluster.create_table("ev", schema, [IndexDef(("uid",), "ts")],
                         partitions=2, replicas=2)
    for uid in range(USERS):
        for k in range(120):
            cluster.put("ev", (f"user-{uid}", 1_000 + k, float(k % 10)))
    cluster.deploy("feat", FEATURE_SQL)
    return cluster


def drive(cluster, iters=ITERS):
    result = closed_loop(
        CLIENTS, iters,
        lambda cid, i: cluster.request(
            "feat", (f"user-{(cid + i) % USERS}", 50_000, 0.0)))
    assert not result.timed_out
    return result


@pytest.mark.benchmark(group="fig_rebalance")
def test_rebalance_under_load_is_kill_free_with_bounded_tail():
    obs = Observability(enabled=True)
    cluster = build_cluster(obs=obs)

    baseline = drive(cluster)
    assert not baseline.errors

    # Phase 2: identical traffic while the control plane reshards.
    done = threading.Event()
    control_error = []

    def reshard():
        try:
            splitter = PartitionSplitter(cluster, obs=obs)
            splitter.split("ev", 0)
            Rebalancer(cluster, splitter=splitter,
                       migrator=ShardMigrator(cluster, obs=obs),
                       split_threshold_bytes=1 << 30,
                       imbalance_ratio=1.1, obs=obs).run_once()
        except Exception as exc:  # pragma: no cover
            control_error.append(exc)
        finally:
            done.set()

    mover = threading.Thread(target=reshard)
    mover.start()
    during = drive(cluster)
    mover.join(timeout=120)
    assert done.is_set() and not control_error
    assert not during.errors  # kill-free: no request saw the reshard

    after = drive(cluster)
    assert not after.errors

    moves = obs.registry.get("cluster.migration.moves").value
    splits = obs.registry.get("ctl.splits").value
    assert splits >= 1
    base_stats, during_stats, after_stats = (
        baseline.stats(), during.stats(), after.stats())
    print(f"\nrebalance under load: baseline {baseline.qps:,.0f} req/s "
          f"(p99 {base_stats.tp99:.2f} ms), during {during.qps:,.0f} "
          f"req/s (p99 {during_stats.tp99:.2f} ms), after "
          f"{after.qps:,.0f} req/s (p99 {after_stats.tp99:.2f} ms); "
          f"{splits:.0f} splits, {moves:.0f} moves")

    # The tail is bounded while resharding: the handoff pause is a few
    # entries of replay, not a stop-the-world window.
    assert during_stats.tp99 <= max(20.0 * base_stats.tp99, 50.0)
    # The resharded topology serves no slower than ~half baseline.
    assert after.qps >= 0.5 * baseline.qps

    record_bench(
        "fig_rebalance",
        baseline_qps=baseline.qps, during_qps=during.qps,
        after_qps=after.qps, baseline_p99_ms=base_stats.tp99,
        during_p99_ms=during_stats.tp99, after_p99_ms=after_stats.tp99,
        splits=splits, migrations=moves)
    cluster.close()


@pytest.mark.benchmark(group="fig_rebalance")
def test_tenant_shedding_keeps_neighbor_p99_in_budget():
    obs = Observability(enabled=True)
    cluster = build_cluster(obs=obs)
    tenants = TenantRegistry(obs=obs)
    tenants.register("noisy", rate_per_sec=50.0, burst=10)
    cluster.attach_tenants(tenants)
    frontend = FrontendServer(cluster, tenants=tenants, obs=obs,
                              max_queue=256,
                              single_flight=False, max_wait_ms=0)

    shed = [0]
    shed_lock = threading.Lock()

    def noisy_call(cid, i):
        try:
            frontend.request("feat", (f"user-{i % USERS}", 50_000, 0.0),
                             tenant="noisy")
        except TenantBudgetError as exc:
            assert exc.reason == "tenant_rate"
            with shed_lock:
                shed[0] += 1

    def run_quiet():
        return closed_loop(
            4, ITERS,
            lambda cid, i: frontend.request(
                "feat", (f"user-{(cid + i) % USERS}", 50_000, 0.0),
                tenant="quiet"))

    solo = run_quiet()
    assert not solo.errors and not solo.timed_out

    noisy_box = {}

    def noisy_storm():
        noisy_box["r"] = closed_loop(8, ITERS * 2, noisy_call)

    storm = threading.Thread(target=noisy_storm)
    storm.start()
    contended = run_quiet()
    storm.join(timeout=120)
    frontend.close()

    assert not contended.errors and not contended.timed_out
    assert shed[0] > 0  # the noisy tenant actually hit its budget
    solo_p99 = solo.stats().tp99
    contended_p99 = contended.stats().tp99
    print(f"\ntenant isolation: quiet p99 {solo_p99:.2f} ms solo, "
          f"{contended_p99:.2f} ms beside a shed noisy tenant "
          f"({shed[0]} shed)")
    # The quiet tenant's tail stays within budget despite the storm.
    assert contended_p99 <= max(10.0 * solo_p99, 50.0)
    record_bench(
        "fig_rebalance",
        quiet_p99_solo_ms=solo_p99,
        quiet_p99_contended_ms=contended_p99,
        noisy_shed=float(shed[0]))
    cluster.close()
