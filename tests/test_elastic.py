"""Elastic-data-plane smoke: split, migrate, and rebalance under
sustained closed-loop traffic with zero acknowledged-write loss.

`make smoke` runs this module's ``-k smoke`` tests.
"""

import threading

import pytest

from repro.cluster import NameServer, RetryPolicy, TabletServer
from repro.ctlplane import (PartitionSplitter, Rebalancer, ShardMigrator,
                            TenantRegistry)
from repro.errors import OpenMLDBError, TenantBudgetError
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import FrontendServer
from tests.conftest import scanned

FAST = RetryPolicy(attempts=4, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=2.0, rpc_timeout_ms=50.0)

SCHEMA = Schema.from_pairs([
    ("uid", "string"), ("ts", "timestamp"), ("amt", "double")])

FEATURE_SQL = ("SELECT uid, sum(amt) OVER w AS s FROM ev "
               "WINDOW w AS (PARTITION BY uid ORDER BY ts "
               "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")


def make_cluster(n_tablets=4, obs=None):
    tablets = [TabletServer(f"t{i}") for i in range(n_tablets)]
    cluster = NameServer(tablets, retry_policy=FAST, obs=obs)
    cluster.create_table("ev", SCHEMA, [IndexDef(("uid",), "ts")],
                         partitions=2, replicas=2)
    cluster.deploy("feat", FEATURE_SQL)
    return cluster


def window_answers(cluster, uids):
    view = cluster._views["ev"]
    return {uid: scanned(view.window_scan_blocks(("uid",), "ts", uid))
            for uid in uids}


class TestElasticSmoke:
    def test_smoke_rebalance_under_traffic_loses_nothing(self):
        """The acceptance gate: run split -> migrate -> rebalance while
        closed-loop writers and readers hammer the cluster.  Every
        acknowledged write must survive, and post-move answers must be
        byte-identical to an untouched twin fed the same rows."""
        obs = Observability(enabled=True)
        cluster = make_cluster(obs=obs)
        twin = make_cluster()
        stop = threading.Event()
        acked = [[] for _ in range(3)]
        outcomes, errors = [], []
        outcome_lock = threading.Lock()

        def writer(slot):
            seq = 0
            while not stop.is_set():
                uid = f"w{slot}-user-{seq % 6}"
                row = (uid, 1_000 + seq * 10, float(seq % 9))
                try:
                    cluster.put("ev", row)
                except OpenMLDBError as exc:
                    errors.append(exc)
                else:
                    acked[slot].append(row)
                seq += 1

        def reader(frontend):
            seq = 0
            while not stop.is_set():
                uid = f"w{seq % 3}-user-{seq % 6}"
                try:
                    out = frontend.request("feat",
                                           (uid, 100_000, 0.0))
                except OpenMLDBError as exc:
                    out = exc
                with outcome_lock:
                    outcomes.append(out)
                seq += 1

        frontend = FrontendServer(cluster, max_wait_ms=0,
                                  single_flight=False)
        threads = [threading.Thread(target=writer, args=(slot,))
                   for slot in range(3)]
        threads += [threading.Thread(target=reader, args=(frontend,))
                    for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            # The elastic triptych, live, no kill switches anywhere.
            splitter = PartitionSplitter(cluster, obs=obs)
            report = splitter.split("ev", 0)
            assert len(report.child_ids) == 2

            table = cluster.table_info("ev")
            pid = report.child_ids[0]
            source = table.assignment[pid][0]
            target = next(name for name in cluster.tablets
                          if name not in table.assignment[pid])
            ShardMigrator(cluster, obs=obs).migrate(
                "ev", pid, source, target)

            Rebalancer(cluster, splitter=splitter,
                       split_threshold_bytes=1 << 30,
                       imbalance_ratio=1.1, obs=obs).run_once()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            frontend.close()

        assert not errors, f"acknowledged-write path failed: {errors[:3]}"
        assert all(not thread.is_alive() for thread in threads)
        assert outcomes and all(
            isinstance(out, (dict, OpenMLDBError)) for out in outcomes)

        # Zero acknowledged-write loss: replay exactly the acked rows
        # into the untouched twin and demand identical window answers.
        uids = set()
        for slot_rows in acked:
            assert slot_rows  # every writer made progress
            for row in slot_rows:
                twin.put("ev", row)
                uids.add(row[0])
        assert window_answers(cluster, sorted(uids)) \
            == window_answers(twin, sorted(uids))
        for uid in sorted(uids):
            assert cluster.get_latest("ev", uid) \
                == twin.get_latest("ev", uid)
        cluster.close()
        twin.close()

    def test_smoke_tenant_shedding_preserves_neighbors(self):
        """A tenant blowing through its rate budget is shed with typed
        53xxx errors while an unthrottled neighbor sails through."""
        cluster = make_cluster()
        for k in range(5):
            cluster.put("ev", ("w0-user-0", 1_000 + k * 100, float(k)))
        tenants = TenantRegistry()
        tenants.register("noisy", rate_per_sec=1.0, burst=2)
        cluster.attach_tenants(tenants)
        frontend = FrontendServer(cluster, tenants=tenants,
                                  max_wait_ms=0, single_flight=False)
        shed = quiet_ok = noisy_ok = 0
        try:
            for _ in range(20):
                try:
                    frontend.request("feat", ("w0-user-0", 1_500, 0.0),
                                     tenant="noisy")
                    noisy_ok += 1
                except TenantBudgetError as exc:
                    assert exc.reason == "tenant_rate"
                    assert exc.tenant == "noisy"
                    shed += 1
                frontend.request("feat", ("w0-user-0", 1_500, 0.0),
                                 tenant="quiet")
                quiet_ok += 1
        finally:
            frontend.close()
            cluster.close()
        assert noisy_ok >= 1       # the burst allowance was honored
        assert shed >= 10          # then the bucket ran dry
        assert quiet_ok == 20      # the neighbor never noticed


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
