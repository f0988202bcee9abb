"""Elastic control plane: routing, split, migration, tenants."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.cluster import FaultInjector, NameServer, TabletServer
from repro.cluster.failover import catch_up
from repro.ctlplane import (HashRouter, MigrateAction, PartitionSplitter,
                            Rebalancer, ShardMigrator, TenantRegistry,
                            stable_hash)
from repro.errors import (MemoryLimitExceededError, ShardMovedError,
                          StorageError, TenantBudgetError)
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from tests.conftest import scanned

SCHEMA = Schema.from_pairs([
    ("uid", "string"), ("ts", "timestamp"), ("amt", "double")])


def make_cluster(n_tablets=4, partitions=2, replicas=2, prefix="t",
                 **kwargs):
    tablets = [TabletServer(f"{prefix}{i}") for i in range(n_tablets)]
    cluster = NameServer(tablets, **kwargs)
    cluster.create_table("ev", SCHEMA, [IndexDef(("uid",), "ts")],
                         partitions=partitions, replicas=replicas)
    return cluster


def load_rows(*clusters, users=16, per_user=4):
    for uid in range(users):
        for k in range(per_user):
            row = (f"user-{uid}", 1_000 + k * 100, float(k))
            for cluster in clusters:
                cluster.put("ev", row)


def window_answers(cluster, users=16):
    """Per-user window_scan results — the byte-identical oracle."""
    view = cluster._views["ev"]
    return {uid: scanned(view.window_scan_blocks(("uid",), "ts",
                                                 f"user-{uid}"))
            for uid in range(users)}


class TestStableHash:
    def test_deterministic_across_types(self):
        assert stable_hash("user-1") == stable_hash("user-1")
        assert stable_hash(7) == stable_hash(7)
        # Type-tagged: an int and its string spelling are distinct keys.
        assert stable_hash(7) != stable_hash("7")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash(None) == stable_hash(None)

    def test_stable_across_processes_and_hash_seeds(self):
        """The satellite regression: builtin hash() is PYTHONHASHSEED-
        randomized for strings, so routing built on it breaks across
        restarts.  stable_hash must agree between two child processes
        launched with different seeds."""
        code = textwrap.dedent("""
            from repro.ctlplane import stable_hash
            print(stable_hash("user-42"), stable_hash(42),
                  stable_hash(b"raw"), stable_hash(None))
        """)
        outputs = set()
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            result = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, check=True)
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1


class TestHashRouter:
    def test_initial_layout_is_modulo(self):
        router = HashRouter(4)
        for hashed in range(100):
            assert router.route(hashed) == hashed % 4
        assert router.partition_ids() == [0, 1, 2, 3]

    def test_split_partitions_hash_space_exactly(self):
        router = HashRouter(2)
        plan = router.plan_split(0)
        router.commit_split(plan)
        assert router.partition_ids() == [1, 2, 3]
        for hashed in range(200):
            pid = router.route(hashed)
            if hashed % 2 == 1:
                assert pid == 1
            else:
                assert pid == plan.child_for(hashed)
        # The children tile the parent's residue class between them.
        owned = {pid: [h for h in range(200) if router.route(h) == pid]
                 for pid in router.partition_ids()}
        assert sorted(sum(owned.values(), [])) == list(range(200))

    def test_state_round_trip(self):
        router = HashRouter(3)
        router.commit_split(router.plan_split(1))
        restored = HashRouter.from_state(router.state())
        assert restored.partition_ids() == router.partition_ids()
        for hashed in range(300):
            assert restored.route(hashed) == router.route(hashed)
        # Reserved ids survive: the next split cannot collide.
        assert restored.plan_split(0).left not in router.partition_ids()

    def test_commit_split_detects_lost_race(self):
        router = HashRouter(2)
        plan_a = router.plan_split(0)
        plan_b = router.plan_split(0)
        router.commit_split(plan_a)
        with pytest.raises(StorageError):
            router.commit_split(plan_b)


class TestCreateTableValidation:
    def test_zero_partitions_rejected(self):
        cluster = NameServer([TabletServer("t0")])
        with pytest.raises(StorageError):
            cluster.create_table("ev", SCHEMA,
                                 [IndexDef(("uid",), "ts")],
                                 partitions=0, replicas=1)
        with pytest.raises(StorageError):
            cluster.create_table("ev", SCHEMA,
                                 [IndexDef(("uid",), "ts")],
                                 partitions=-3, replicas=1)
        cluster.close()

    def test_zero_replicas_rejected(self):
        cluster = NameServer([TabletServer("t0")])
        with pytest.raises(StorageError):
            cluster.create_table("ev", SCHEMA,
                                 [IndexDef(("uid",), "ts")],
                                 partitions=2, replicas=0)
        cluster.close()


class TestOnlineSplit:
    def test_split_preserves_answers_vs_twin(self):
        cluster = make_cluster()
        twin = make_cluster(prefix="w")
        load_rows(cluster, twin)
        before = window_answers(twin)

        report = PartitionSplitter(cluster).split("ev", 0)
        assert len(report.child_ids) == 2
        assert sum(report.moved_entries.values()) \
            == report.freeze_offsets[0] + 1

        assert window_answers(cluster) == before
        # Writes after the split keep landing and reading correctly.
        cluster.put("ev", ("user-3", 9_000, 42.0))
        twin.put("ev", ("user-3", 9_000, 42.0))
        assert window_answers(cluster) == window_answers(twin)
        cluster.close()
        twin.close()

    def test_parent_routes_raise_shard_moved(self):
        cluster = make_cluster()
        load_rows(cluster)
        PartitionSplitter(cluster).split("ev", 0)
        with pytest.raises(ShardMovedError):
            cluster.leader_of("ev", 0)
        # The data path re-resolves transparently.
        assert cluster.get_latest("ev", "user-0") is not None
        cluster.close()

    def test_children_are_replicated_and_failover_safe(self):
        """Children are built through the replication path, so killing
        a child's leader immediately after the split loses nothing."""
        cluster = make_cluster()
        load_rows(cluster)
        report = PartitionSplitter(cluster).split("ev", 0)
        twin = make_cluster(prefix="w")
        load_rows(twin)
        child = report.child_ids[0]
        cluster.handle_failure(cluster.leader_of("ev", child).name)
        assert window_answers(cluster) == window_answers(twin)
        cluster.close()
        twin.close()

    def test_unreachable_child_follower_lags_then_catches_up(self):
        """A follower that cannot apply during the split is left lagging
        (the split commits); caught up, it answers as the leader did."""
        cluster = make_cluster()
        twin = make_cluster(prefix="w")
        load_rows(cluster, twin)
        faults = FaultInjector(cluster)
        layout = cluster.table_info("ev").layout
        leader = layout.leaders[0]
        follower = next(name for name in layout.placement[0]
                        if name != leader)
        faults.partition(follower)
        report = PartitionSplitter(cluster).split("ev", 0)
        faults.heal(follower)
        binlogs = cluster.table_info("ev").binlogs
        assert {child: cluster.replication_lag("ev", child, follower)
                for child in report.child_ids} == report.moved_entries
        assert all(report.moved_entries.values())
        for child in report.child_ids:
            catch_up(cluster.tablets[follower], "ev", child, binlogs[child])
            assert cluster.replication_lag("ev", child, follower) == 0
            rows = [repr(list(cluster.tablets[name].shard("ev", child)
                              .store.rows()))
                    for name in (leader, follower)]
            assert rows[0] == rows[1]
        cluster.handle_failure(leader)  # the follower now serves
        assert repr(window_answers(cluster)) == repr(window_answers(twin))
        cluster.close()
        twin.close()

    def test_split_past_the_memory_limit_unwinds(self, monkeypatch):
        """A child leader that runs out of memory mid-build fails the
        split, and the split unwinds whole: the parent keeps its keys,
        no child stays placed or hosted, and every byte the half-built
        children charged is handed back."""
        tablets = [TabletServer(f"m{i}", max_memory_mb=1) for i in range(2)]
        cluster = NameServer(tablets)
        cluster.create_table("ev", SCHEMA, [IndexDef(("uid",), "ts")],
                             partitions=2, replicas=2)
        # Small rows first, so a child's replay charges some of them
        # before a wide row finds the tablet full.
        load_rows(cluster)
        with pytest.raises(MemoryLimitExceededError):
            for k in range(10_000):
                cluster.put("ev", (f"user-{k % 16}".ljust(1_000, "x"),
                                   5_000 + k, float(k)))
        table = cluster.table_info("ev")
        layout, answers = table.layout, window_answers(cluster)
        used = [tablet.governor.used_bytes for tablet in tablets]
        peaks = list(used)
        for slot, tablet in enumerate(tablets):
            def charge(nbytes, governor=tablet.governor,
                       charge=tablet.governor.charge, slot=slot):
                charge(nbytes)
                peaks[slot] = max(peaks[slot], governor.used_bytes)
            monkeypatch.setattr(tablet.governor, "charge", charge)

        with pytest.raises(MemoryLimitExceededError):
            PartitionSplitter(cluster).split("ev", 0)
        assert peaks != used  # the children were part built
        assert dict(table.layout.placement) == dict(layout.placement)
        assert table.layout.router.partition_ids() == [0, 1]
        assert sorted(table.binlogs) == [0, 1]
        assert not any(tablet.has_shard("ev", child)
                       for tablet in tablets for child in (2, 3))
        assert [tablet.governor.used_bytes for tablet in tablets] == used
        assert window_answers(cluster) == answers
        cluster.close()

class TestLiveMigration:
    def test_migrate_preserves_answers_and_leadership(self):
        cluster = make_cluster()
        twin = make_cluster(prefix="w")
        load_rows(cluster, twin)
        table = cluster.table_info("ev")
        source = table.assignment[0][0]
        target = next(name for name in cluster.tablets
                      if name not in table.assignment[0])

        report = ShardMigrator(cluster).migrate("ev", 0, source, target)
        assert report.took_leadership  # source led partition 0
        assert target in table.assignment[0]
        assert source not in table.assignment[0]
        assert not cluster.tablets[source].has_shard("ev", 0)
        assert cluster.leader_of("ev", 0).name == target
        assert window_answers(cluster) == window_answers(twin)
        # Writes keep flowing through the new home.
        cluster.put("ev", ("user-1", 9_000, 7.0))
        twin.put("ev", ("user-1", 9_000, 7.0))
        assert window_answers(cluster) == window_answers(twin)
        cluster.close()
        twin.close()

    def test_migration_uses_snapshot_bulk_phase(self, tmp_path):
        cluster = make_cluster(data_dir=str(tmp_path))
        load_rows(cluster)
        cluster.snapshot()
        table = cluster.table_info("ev")
        source = table.assignment[0][0]
        target = next(name for name in cluster.tablets
                      if name not in table.assignment[0])
        report = ShardMigrator(cluster).migrate("ev", 0, source, target)
        assert report.snapshot_rows > 0
        # Chase only covered what the image did not.
        assert report.chased_entries \
            < report.snapshot_rows + report.chased_entries + 1
        cluster.close()

    def test_dead_source_does_not_block_migration(self):
        """The binlog, not the source, is the transfer source of truth:
        a replica that died can still be 'moved' (rebuilt elsewhere)."""
        cluster = make_cluster()
        load_rows(cluster)
        table = cluster.table_info("ev")
        source = table.assignment[0][1]  # a follower
        target = next(name for name in cluster.tablets
                      if name not in table.assignment[0])
        cluster.tablets[source].fail()
        report = ShardMigrator(cluster).migrate("ev", 0, source, target)
        assert not report.took_leadership
        assert target in table.assignment[0]
        twin = make_cluster(prefix="w")
        load_rows(twin)
        assert window_answers(cluster) == window_answers(twin)
        cluster.close()
        twin.close()

    def test_dead_leader_source_leaves_a_leader(self):
        """A leader that died before any routed call failed it over is
        migrated away without leaving its partition leaderless: the
        target, caught up from the binlog under the write pause, leads."""
        cluster = make_cluster()
        load_rows(cluster)
        table = cluster.table_info("ev")
        source = table.assignment[0][0]  # the leader
        target = next(name for name in cluster.tablets
                      if name not in table.assignment[0])
        cluster.tablets[source].fail()
        report = ShardMigrator(cluster).migrate("ev", 0, source, target)
        assert report.took_leadership
        assert cluster.leader_of("ev", 0).name == target
        twin = make_cluster(prefix="w")
        load_rows(twin)
        assert window_answers(cluster) == window_answers(twin)
        cluster.close()
        twin.close()

    def test_failed_migration_unwinds_target(self):
        cluster = make_cluster()
        load_rows(cluster)
        table = cluster.table_info("ev")
        source = table.assignment[0][0]
        target = next(name for name in cluster.tablets
                      if name not in table.assignment[0])
        cluster.tablets[target].fail()
        with pytest.raises(StorageError):
            ShardMigrator(cluster).migrate("ev", 0, source, target)
        assert source in table.assignment[0]
        assert target not in table.assignment[0]
        cluster.tablets[target].recover()
        assert not cluster.tablets[target].has_shard("ev", 0)
        cluster.close()

    def test_migrate_validates_replica_membership(self):
        cluster = make_cluster()
        load_rows(cluster)
        table = cluster.table_info("ev")
        outsider = next(name for name in cluster.tablets
                        if name not in table.assignment[0])
        migrator = ShardMigrator(cluster)
        with pytest.raises(StorageError):
            migrator.migrate("ev", 0, outsider, table.assignment[0][0])
        with pytest.raises(StorageError):
            migrator.migrate("ev", 0, table.assignment[0][0],
                             table.assignment[0][1])
        cluster.close()


class TestDurableElasticity:
    def test_split_topology_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = make_cluster(data_dir=data_dir)
        load_rows(cluster)
        PartitionSplitter(cluster).split("ev", 0)
        load_rows(cluster)  # post-split writes, into child binlogs
        expected = window_answers(cluster)
        pids = cluster.table_info("ev").router.partition_ids()
        cluster.close()

        reborn = make_cluster(data_dir=data_dir)
        assert reborn.table_info("ev").router.partition_ids() == pids
        assert window_answers(reborn) == expected
        # New writes route to the restored children, not the retired
        # parent.
        for uid in range(16):
            reborn.put("ev", (f"user-{uid}", 9_000, 1.0))
            hit = reborn.get_latest("ev", f"user-{uid}")
            assert hit is not None and hit[0] == 9_000
        reborn.close()

    def test_restart_routing_regression(self, tmp_path):
        """The headline satellite: a durable cluster restarted in a
        fresh process (different PYTHONHASHSEED) must route every
        string key to the partition that holds its rows."""
        data_dir = str(tmp_path / "cluster")
        script = textwrap.dedent("""
            import sys
            from repro.cluster import NameServer, TabletServer
            from repro.schema import IndexDef, Schema
            schema = Schema.from_pairs([
                ("uid", "string"), ("ts", "timestamp"),
                ("amt", "double")])
            tablets = [TabletServer(f"t{i}") for i in range(3)]
            cluster = NameServer(tablets, data_dir=sys.argv[1])
            cluster.create_table("ev", schema,
                                 [IndexDef(("uid",), "ts")],
                                 partitions=4, replicas=2)
            if sys.argv[2] == "write":
                for uid in range(24):
                    cluster.put("ev", (f"user-{uid}", 1_000, float(uid)))
            else:
                for uid in range(24):
                    hit = cluster.get_latest("ev", f"user-{uid}")
                    assert hit is not None, f"user-{uid} unroutable"
                    assert hit[1][2] == float(uid)
            cluster.close()
            print("ok")
        """)
        for seed, mode in (("11", "write"), ("7777", "read")):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            result = subprocess.run(
                [sys.executable, "-c", script, data_dir, mode],
                env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "ok"


class TestTenantRegistry:
    def test_rate_budget_token_bucket(self):
        clock = [0.0]
        tenants = TenantRegistry(clock=lambda: clock[0])
        tenants.register("acme", rate_per_sec=10.0, burst=2)
        tenants.acquire("acme")
        tenants.acquire("acme")
        with pytest.raises(TenantBudgetError) as info:
            tenants.acquire("acme")
        assert info.value.reason == "tenant_rate"
        assert info.value.tenant == "acme"
        clock[0] += 0.1  # one token refills at 10/s
        tenants.acquire("acme")
        with pytest.raises(TenantBudgetError):
            tenants.acquire("acme")

    def test_unregistered_tenants_pass_through(self):
        tenants = TenantRegistry()
        tenants.acquire("unknown")
        tenants.charge("unknown", 1 << 30)
        tenants.acquire("")

    def test_memory_budget_on_cluster_put(self):
        cluster = make_cluster()
        tenants = TenantRegistry()
        tenants.register("smallco", memory_bytes=256)
        cluster.attach_tenants(tenants)
        with pytest.raises(TenantBudgetError) as info:
            for k in range(64):
                cluster.put("ev", (f"user-{k}", 1_000, 1.0),
                            tenant="smallco")
        assert info.value.reason == "tenant_memory"
        # Budget-less writes still flow; reads were never affected.
        cluster.put("ev", ("user-0", 2_000, 1.0))
        assert cluster.get_latest("ev", "user-0") is not None
        cluster.close()

    def test_failed_write_refunds_memory_charge(self):
        cluster = make_cluster()
        tenants = TenantRegistry()
        budget = tenants.register("acme", memory_bytes=10_000)
        cluster.attach_tenants(tenants)
        before = budget.used_bytes
        bad_row = ("user-1", "not-a-timestamp", 1.0)
        with pytest.raises(Exception):
            cluster.put("ev", bad_row, tenant="acme")
        assert budget.used_bytes == before
        cluster.close()

    def test_registration_validation(self):
        tenants = TenantRegistry()
        with pytest.raises(StorageError):
            tenants.register("", rate_per_sec=1.0)
        with pytest.raises(StorageError):
            tenants.register("x", rate_per_sec=0)
        with pytest.raises(StorageError):
            tenants.register("x", memory_bytes=-1)


class TestRebalancer:
    def test_plans_migration_off_the_busiest_tablet(self):
        obs = Observability(enabled=True)
        cluster = make_cluster(n_tablets=3, partitions=2, replicas=1,
                               obs=obs)
        load_rows(cluster, users=24, per_user=6)
        rebalancer = Rebalancer(cluster, split_threshold_bytes=1 << 30,
                                imbalance_ratio=1.2)
        loads = rebalancer.tablet_bytes()
        busiest = max(loads, key=lambda name: loads[name])
        plan = rebalancer.plan()
        migrations = [a for a in plan if isinstance(a, MigrateAction)]
        assert migrations and migrations[0].source == busiest
        reports = rebalancer.run_once()
        assert reports
        after = rebalancer.tablet_bytes()
        assert after[busiest] < loads[busiest]
        cluster.close()

    def test_plans_split_for_hot_partition(self):
        obs = Observability(enabled=True)
        cluster = make_cluster(obs=obs)
        # Skew everything onto the partition owning user-0.
        for k in range(200):
            cluster.put("ev", ("user-0", 1_000 + k, float(k)))
        hot = cluster.partition_for("ev", "user-0")
        rebalancer = Rebalancer(cluster, split_threshold_bytes=512,
                                imbalance_ratio=1.5)
        plan = rebalancer.plan()
        assert any(getattr(action, "partition_id", None) == hot
                   and not isinstance(action, MigrateAction)
                   for action in plan)
        rebalancer.run_once()
        assert hot in cluster.table_info("ev").retired
        assert cluster.get_latest("ev", "user-0") is not None
        cluster.close()

    def test_lagging_tablet_is_not_a_migration_target(self):
        # Real lag — deliveries to the chosen target dropped — is skipped
        # whether or not observability records a lag gauge: the
        # rebalancer reads replica state.
        for observed in (False, True):
            cluster = make_cluster(n_tablets=3, partitions=3, replicas=2,
                                   obs=Observability(enabled=observed))
            faults = FaultInjector(cluster)
            load_rows(cluster, users=24, per_user=6)
            for k in range(60):  # skew: one hot key
                cluster.put("ev", ("user-0", 2_000 + k, 1.0))
            rebalancer = Rebalancer(cluster,
                                    split_threshold_bytes=1 << 30,
                                    imbalance_ratio=1.2, max_target_lag=4)
            migrations = [a for a in rebalancer.plan()
                          if isinstance(a, MigrateAction)]
            assert migrations
            target = migrations[0].target
            faults.drop_replication(target)
            for uid in range(24):
                for k in range(6):
                    cluster.put("ev", (f"user-{uid}", 5_000 + k * 100,
                                       1.0))
            assert rebalancer.worst_lag(target) > 4
            replanned = [a for a in rebalancer.plan()
                         if isinstance(a, MigrateAction)]
            assert all(a.target != target for a in replanned), observed
            cluster.close()

