"""Fault-tolerance tests: replication and failover.

Drives the cluster through injected faults (crash, partition, slow,
dropped replication) and checks the availability contract: an
acknowledged write is never lost by a leadership change, and routed
calls succeed with bounded retries.
"""

import threading

import pytest

from repro.cluster import (FaultInjector, HeartbeatMonitor, NameServer,
                           RetryPolicy, TabletServer)
from repro.errors import IndexNotFoundError, StorageError
from repro.obs import Observability
from repro.schema import IndexDef, Schema

# Tight policy so injected timeouts/retries cost microseconds, not the
# defaults' real backoff.
FAST = RetryPolicy(attempts=2, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=1.0, rpc_timeout_ms=20.0)


@pytest.fixture
def schema():
    # Int partition key: hash(int) is unsalted, so routing does not
    # depend on PYTHONHASHSEED.
    return Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("v", "double")])


def make_cluster(schema, tablets=3, partitions=2, replicas=2, **kwargs):
    servers = [TabletServer(f"tablet-{i}") for i in range(tablets)]
    kwargs.setdefault("retry_policy", FAST)
    nameserver = NameServer(servers, **kwargs)
    nameserver.create_table("t", schema, [IndexDef(("uid",), "ts")],
                            partitions=partitions, replicas=replicas)
    return nameserver


def follower_names(cluster, partition_id, table="t"):
    leader = cluster.leader_of(table, partition_id).name
    return [name for name in cluster.tables[table].assignment[partition_id]
            if name != leader]


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(base_delay_ms=1.0, multiplier=2.0,
                             max_delay_ms=50.0)
        assert policy.backoff_ms(1) == pytest.approx(1.0)
        assert policy.backoff_ms(2) == pytest.approx(2.0)
        assert policy.backoff_ms(3) == pytest.approx(4.0)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay_ms=1.0, multiplier=10.0,
                             max_delay_ms=50.0)
        assert policy.backoff_ms(5) == pytest.approx(50.0)

    def test_zeroth_retry_has_no_delay(self):
        assert RetryPolicy().backoff_ms(0) == 0.0


class TestHeartbeatMonitor:
    def test_expires_after_silence_past_timeout(self):
        monitor = HeartbeatMonitor()
        assert monitor.observe("a", False, 0.0) is False  # seeds
        assert monitor.observe("a", False, 2_000.0) is False
        assert monitor.observe("a", False, 3_000.0) is True

    def test_successful_beat_resets_the_clock(self):
        monitor = HeartbeatMonitor()
        monitor.observe("a", True, 0.0)
        monitor.observe("a", True, 2_500.0)
        assert monitor.observe("a", False, 5_000.0) is False
        assert monitor.observe("a", False, 5_500.0) is True

    def test_forget_erases_old_silence(self):
        monitor = HeartbeatMonitor()
        monitor.observe("a", True, 0.0)
        monitor.observe("a", False, 1_000.0)
        monitor.forget("a")
        # Rejoining seeds fresh — ancient silence must not expire it.
        assert monitor.observe("a", False, 10_000.0) is False


class TestZeroLossFailover:
    def test_kill_leader_loses_no_acknowledged_writes(self, schema):
        """The core guarantee: a follower that missed every entry (its
        deliveries dropped), leader killed — promotion replays the
        binlog suffix so all acknowledged writes survive."""
        cluster = make_cluster(schema)
        faults = FaultInjector(cluster)
        try:
            partition_id = cluster.partition_for("t", 7)
            leader = cluster.leader_of("t", partition_id)
            for follower in follower_names(cluster, partition_id):
                faults.drop_replication(follower)
            for k in range(5):
                cluster.put("t", (7, 1_000 + k, float(k)))
            assert faults.dropped_entries == 5
            faults.kill(leader.name)
            hit = cluster.get_latest("t", 7)
            assert hit is not None and hit[0] == 1_004
            new_leader = cluster.leader_of("t", partition_id)
            assert new_leader.name != leader.name
            binlog = cluster.tables["t"].binlogs[partition_id]
            shard = new_leader.shard("t", partition_id)
            assert shard.applied_offset == binlog.last_offset
            assert shard.store.row_count == 5
            assert cluster.failovers >= 1
        finally:
            cluster.close()

    def test_mid_workload_kill_keeps_every_acked_row(self, schema):
        cluster = make_cluster(schema, partitions=4)
        faults = FaultInjector(cluster)
        victim = cluster.leader_of("t", cluster.partition_for("t", 0))
        for uid in range(50):
            if uid == 25:
                faults.kill(victim.name)
            cluster.put("t", (uid, uid, float(uid)))
        total = sum(
            cluster.leader_of("t", pid).shard("t", pid)
            .store.row_count
            for pid in range(4))
        assert total == 50

    def test_failover_is_idempotent(self, schema):
        cluster = make_cluster(schema)
        cluster.put("t", (1, 100, 1.0))
        partition_id = cluster.partition_for("t", 1)
        leader = cluster.leader_of("t", partition_id)
        assert cluster.handle_failure(leader.name) >= 1
        assert cluster.handle_failure(leader.name) == 0

    def test_promotion_prefers_most_caught_up_follower(self, schema):
        cluster = make_cluster(schema, tablets=3, partitions=1,
                               replicas=3)
        faults = FaultInjector(cluster)
        leader = cluster.leader_of("t", 0)
        behind, current = follower_names(cluster, 0)
        faults.drop_replication(behind)
        keys = [uid for uid in range(20)
                if cluster.partition_for("t", uid) == 0][:3]
        for uid in keys:
            cluster.put("t", (uid, uid, 0.0))
        assert cluster.replication_lag("t", 0, behind) == 3
        assert cluster.replication_lag("t", 0, current) == 0
        faults.kill(leader.name)
        cluster.handle_failure(leader.name)
        assert cluster.leader_of("t", 0).name == current


class TestOneApplyPerOffset:
    def test_failover_during_a_put_applies_each_offset_once(self, schema):
        """A failover started from inside the follower's insert of a
        ``put``'s entry must not replay that entry a second time: the
        follower holds one row per binlog entry."""
        cluster = make_cluster(schema, tablets=2, partitions=1)
        leader = cluster.leader_of("t", 0).name
        (follower,) = follower_names(cluster, 0)
        shard = cluster.tablets[follower].shard("t", 0)
        cluster.put("t", (1, 100, 1.0))
        insert = shard.store.insert
        failover = threading.Thread(
            target=cluster.handle_failure, args=(leader,))

        def insert_then_fail_over(row, size):
            if failover.ident is None:  # the first insert only
                failover.start()
                # The failover runs until it blocks on the entry this
                # insert is applying (or, unfixed, applies it itself).
                failover.join(timeout=0.5)
            return insert(row, size)

        shard.store.insert = insert_then_fail_over
        try:
            cluster.put("t", (1, 200, 2.0))
            failover.join(timeout=30)
            assert not failover.is_alive()
        finally:
            del shard.store.insert
        binlog = cluster.tables["t"].binlogs[0]
        assert binlog.last_offset == shard.applied_offset == 1
        assert cluster.leader_of("t", 0).name == follower
        assert shard.store.row_count == 2
        cluster.close()


class TestReplicationLag:
    def test_lag_gauge_tracks_dropped_entries_then_catchup(self, schema):
        obs = Observability(enabled=True)
        cluster = make_cluster(schema, obs=obs)
        faults = FaultInjector(cluster)
        partition_id = cluster.partition_for("t", 7)
        follower = follower_names(cluster, partition_id)[0]
        faults.drop_replication(follower, count=3)
        for k in range(3):
            cluster.put("t", (7, 1_000 + k, float(k)))
        assert cluster.replication_lag("t", partition_id, follower) == 3
        gauge = obs.registry.get("cluster.replication.lag", table="t",
                                 partition=partition_id, tablet=follower)
        assert gauge.value == 3
        # The next delivered entry finds the gap and replays the missed
        # prefix from the binlog before applying.
        cluster.put("t", (7, 2_000, 9.0))
        assert cluster.replication_lag("t", partition_id, follower) == 0
        assert gauge.value == 0
        assert obs.registry.get("cluster.replication.catchups").value >= 1
        shard = cluster.tablets[follower].shard("t", partition_id)
        assert shard.store.row_count == 4

    def test_async_catch_up_reads_only_the_gap(self, schema, monkeypatch):
        """Five dropped deliveries, then one more put: the repair is one
        read of the binlog from the follower's next offset to its end —
        the new entry, since the put holds the partition lock — and the
        follower applies every offset once, in order, ending with the
        leader's rows."""
        cluster = make_cluster(schema)
        faults = FaultInjector(cluster)
        try:
            partition_id = cluster.partition_for("t", 7)
            binlog = cluster.tables["t"].binlogs[partition_id]
            name = follower_names(cluster, partition_id)[0]
            follower = cluster.tablets[name]
            reads, applied = [], []
            rows_from, replicate = binlog.rows_from, follower.replicate

            def spy_rows_from(offset):
                rows = rows_from(offset)
                reads.append((offset, len(rows)))
                return rows

            def spy_replicate(table, pid, row, offset, *args, **kwargs):
                applied.append(offset)
                return replicate(table, pid, row, offset, *args, **kwargs)
            monkeypatch.setattr(binlog, "rows_from", spy_rows_from)
            monkeypatch.setattr(follower, "replicate", spy_replicate)
            faults.drop_replication(name, count=5)
            for k in range(5):
                cluster.put("t", (7, 1_000 + k, float(k)))
            assert faults.dropped_entries == 5 and applied == []
            cluster.put("t", (7, 2_000, 9.0))
            assert reads == [(0, 6)]
            assert applied == list(range(6))
            leader = cluster.leader_of("t", partition_id)
            shard = follower.shard("t", partition_id)
            assert shard.applied_offset == binlog.last_offset == 5
            assert list(shard.store.rows()) \
                == list(leader.shard("t", partition_id).store.rows())
            assert rows_from(0) == list(shard.store.rows())
        finally:
            cluster.close()


class TestHeartbeatDetection:
    def test_partitioned_leader_expires_and_fails_over(self, schema):
        cluster = make_cluster(schema)
        faults = FaultInjector(cluster)
        cluster.put("t", (7, 100, 1.0))
        partition_id = cluster.partition_for("t", 7)
        leader = cluster.leader_of("t", partition_id)
        faults.partition(leader.name)
        assert cluster.check_liveness(now_ms=0.0) == []  # seeds clocks
        expired = cluster.check_liveness(now_ms=5_000.0)
        assert leader.name in expired
        new_leader = cluster.leader_of("t", partition_id)
        assert new_leader.name != leader.name
        cluster.put("t", (7, 200, 2.0))
        assert cluster.get_latest("t", 7)[0] == 200

    def test_healthy_cluster_never_expires(self, schema):
        cluster = make_cluster(schema)
        assert cluster.check_liveness(now_ms=0.0) == []
        assert cluster.check_liveness(now_ms=1_000_000.0) == []


class TestRoutedRpcResilience:
    def test_slow_leader_times_out_and_retry_succeeds(self, schema):
        obs = Observability(enabled=True)
        cluster = make_cluster(schema, obs=obs)
        faults = FaultInjector(cluster)
        cluster.put("t", (7, 100, 1.0))
        partition_id = cluster.partition_for("t", 7)
        leader = cluster.leader_of("t", partition_id)
        # Delay at/past the per-RPC timeout → RpcTimeoutError, suspect,
        # failover, retry on the promoted follower.
        faults.slow(leader.name, FAST.rpc_timeout_ms)
        assert cluster.get_latest("t", 7)[0] == 100
        assert obs.registry.get("ns.rpc.timeouts").value >= 1
        assert obs.registry.get("ns.rpc.retries").value >= 1

    def test_write_retries_after_leader_partition(self, schema):
        obs = Observability(enabled=True)
        cluster = make_cluster(schema, obs=obs)
        faults = FaultInjector(cluster)
        cluster.put("t", (7, 100, 1.0))
        partition_id = cluster.partition_for("t", 7)
        faults.partition(cluster.leader_of("t", partition_id).name)
        cluster.put("t", (7, 200, 2.0))
        assert cluster.get_latest("t", 7)[0] == 200
        assert obs.registry.get("ns.rpc.retries").value >= 1

    def test_all_replicas_down_is_a_hard_error(self, schema):
        cluster = make_cluster(schema, tablets=2, partitions=1,
                               replicas=2)
        faults = FaultInjector(cluster)
        cluster.put("t", (1, 100, 1.0))
        for name in list(cluster.tablets):
            faults.kill(name)
        with pytest.raises(StorageError):
            cluster.get_latest("t", 1)


class TestRequestPathAcceptance:
    """ISSUE acceptance: killing/partitioning the leader mid-workload
    loses nothing, and a subsequent ``request`` succeeds with <= 1
    retry, visible as an ``rpc.retry`` span in one stitched trace."""

    @pytest.fixture
    def deployed(self, schema):
        obs = Observability(enabled=True)
        cluster = make_cluster(schema, tablets=3, partitions=4,
                               replicas=2, obs=obs)
        for uid in range(8):
            for k in range(5):
                cluster.put("t", (uid, 1_000 + k * 100, float(k)))
        cluster.deploy(
            "feat",
            "SELECT uid, sum(v) OVER w AS s FROM t "
            "WINDOW w AS (PARTITION BY uid ORDER BY ts "
            "  ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
        return cluster, obs

    def test_request_survives_leader_partition_with_one_retry(
            self, deployed):
        cluster, obs = deployed
        healthy = cluster.request("feat", (3, 1_500, 9.0))
        partition_id = cluster.partition_for("t", 3)
        leader = cluster.leader_of("t", partition_id)
        faults = FaultInjector(cluster)
        faults.partition(leader.name)
        retries_before = obs.registry.get("ns.rpc.retries").value
        degraded = cluster.request("feat", (3, 1_500, 9.0))
        assert degraded == healthy  # zero acknowledged writes lost
        assert obs.registry.get("ns.rpc.retries").value \
            - retries_before <= 1
        spans = obs.tracer.last_trace()
        assert len({span["trace_id"] for span in spans}) == 1
        names = [span["name"] for span in spans]
        assert "rpc.retry" in names
        assert "deployment.execute" in names
        retry = next(span for span in spans
                     if span["name"] == "rpc.retry")
        assert retry["tags"]["error"] == "RpcTimeoutError"
        # The promoted follower's scan is part of the same trace.
        new_leader = cluster.leader_of("t", partition_id)
        assert new_leader.name != leader.name
        assert any(span["tags"].get("tablet") == new_leader.name
                   for span in spans)

    def test_request_survives_leader_crash(self, deployed):
        cluster, obs = deployed
        healthy = cluster.request("feat", (3, 1_500, 9.0))
        partition_id = cluster.partition_for("t", 3)
        FaultInjector(cluster).kill(
            cluster.leader_of("t", partition_id).name)
        assert cluster.request("feat", (3, 1_500, 9.0)) == healthy

    def test_missing_index_is_the_callers_error_not_a_tablet_fault(
            self, deployed):
        # A scan on a key column no declared index serves: the live
        # tablet's IndexNotFoundError is a StorageError, and routed_read
        # used to suspect the tablet for it — two failovers and two of
        # three healthy tablets dead for one bad read.
        cluster, _obs = deployed
        before = cluster.request("feat", (3, 1_700, 9.0))["s"]
        with pytest.raises(IndexNotFoundError):
            cluster._views["t"].window_scan_blocks(("v",), "ts", 1.0)
        assert cluster.failovers == 0
        assert all(tablet.alive for tablet in cluster.tablets.values())
        cluster.put("t", (3, 1_600, 2.0))
        assert cluster.request("feat", (3, 1_700, 9.0))["s"] == before + 2.0


class TestReintegration:
    def test_revived_tablet_rejoins_as_caught_up_follower(self, schema):
        cluster = make_cluster(schema)
        faults = FaultInjector(cluster)
        cluster.put("t", (7, 100, 1.0))
        partition_id = cluster.partition_for("t", 7)
        old_leader = cluster.leader_of("t", partition_id)
        faults.kill(old_leader.name)
        cluster.put("t", (7, 200, 2.0))  # failover + write while down
        replayed = faults.revive(old_leader.name)
        assert replayed >= 1
        shard = old_leader.shard("t", partition_id)
        # rejoined as follower
        assert cluster.leader_of("t", partition_id) is not old_leader
        binlog = cluster.tables["t"].binlogs[partition_id]
        assert shard.applied_offset == binlog.last_offset
        assert cluster.replication_lag(
            "t", partition_id, old_leader.name) == 0

    def test_revived_follower_receives_new_writes(self, schema):
        cluster = make_cluster(schema)
        faults = FaultInjector(cluster)
        cluster.put("t", (7, 100, 1.0))
        partition_id = cluster.partition_for("t", 7)
        follower = follower_names(cluster, partition_id)[0]
        faults.kill(follower)
        cluster.put("t", (7, 200, 2.0))
        faults.revive(follower)
        cluster.put("t", (7, 300, 3.0))
        assert cluster.replication_lag("t", partition_id, follower) == 0
        shard = cluster.tablets[follower].shard("t", partition_id)
        assert shard.store.row_count == 3
