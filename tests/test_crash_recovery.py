"""Crash/restart recovery tests (paper Section 5 / 7.3).

Two layers of the same durability contract — *newest snapshot + binlog
tail* — are exercised here:

* **cluster**: :meth:`FaultInjector.crash_restart` wipes a tablet's
  process memory (not the simulator's polite ``kill``), fails its led
  shards over, and restarts it from its snapshot images plus the
  durable per-partition binlogs.  No acknowledged write may be lost,
  and the recovered replica must be byte-identical to its healthy
  peers.

* **single node**: a fresh :class:`OpenMLDB` over a crashed instance's
  ``data_dir`` re-runs DDL/deployments and calls :meth:`recover`.  The
  differential property test drives random out-of-order inserts across
  all four TTL kinds, crashes at a random snapshot cut, and asserts
  every observable — ``window_scan``, ``last_join_lookup``, deployment
  ``request`` answers over pre-aggregated and incremental state — is
  identical to an uninterrupted twin that never crashed.
"""

import random

import pytest

from repro.cluster import FaultInjector, NameServer, RetryPolicy, TabletServer
from repro.core.database import OpenMLDB
from repro.errors import StorageError
from repro.obs import Observability
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from tests.conftest import scanned

FAST = RetryPolicy(attempts=2, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=1.0, rpc_timeout_ms=20.0)


# ----------------------------------------------------------------------
# cluster: tablet crash/restart round trip


@pytest.fixture
def cluster_schema():
    # Int partition key: hash(int) is unsalted, so routing does not
    # depend on PYTHONHASHSEED.
    return Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("v", "double")])


def make_cluster(schema, data_dir, tablets=3, partitions=2, replicas=2,
                 obs=None):
    servers = [TabletServer(f"tablet-{i}") for i in range(tablets)]
    nameserver = NameServer(servers, retry_policy=FAST,
                            data_dir=str(data_dir), obs=obs)
    nameserver.create_table("t", schema, [IndexDef(("uid",), "ts")],
                            partitions=partitions, replicas=replicas)
    return nameserver


def assert_replica_matches_peers(cluster, tablet_name, table="t"):
    """Every shard on ``tablet_name`` is byte-identical to a peer."""
    tablet = cluster.tablets[tablet_name]
    for shard in tablet.shards():
        peer_name = next(
            name for name in cluster.tables[table].assignment[
                shard.partition_id] if name != tablet_name)
        peer = cluster.tablets[peer_name].shard(table, shard.partition_id)
        assert sorted(shard.store.rows()) == sorted(peer.store.rows())
        assert shard.applied_offset == peer.applied_offset


class TestClusterCrashRestart:
    def test_crash_restart_smoke(self, tmp_path, cluster_schema):
        """Kill-with-memory-loss -> snapshot + binlog-tail recovery.

        ``make smoke`` (``-k smoke``) selects this test: it is the
        cheap end-to-end gate that the durability substrate still
        round-trips a real crash.
        """
        cluster = make_cluster(cluster_schema, tmp_path)
        faults = FaultInjector(cluster)
        for i in range(200):
            cluster.put("t", (i % 7, i, float(i)))
        cluster.snapshot("t")
        for i in range(200, 260):
            cluster.put("t", (i % 7, i, float(i)))

        victim = cluster.leader_of("t", 0).name
        report = faults.crash_restart(victim)

        assert report.node == victim
        assert report.snapshot_rows > 0
        assert report.replayed_entries > 0
        assert report.seconds > 0.0
        assert_replica_matches_peers(cluster, victim)
        # The cluster keeps serving reads and writes afterwards.
        assert cluster.get_latest("t", 3) is not None
        cluster.put("t", (3, 999, 9.99))
        assert cluster.get_latest("t", 3)[1][1] == 999

    def test_wipe_actually_loses_memory(self, tmp_path, cluster_schema):
        cluster = make_cluster(cluster_schema, tmp_path)
        for i in range(50):
            cluster.put("t", (i, i, float(i)))
        tablet = next(iter(cluster.tablets.values()))
        assert any(shard.store.row_count for shard in tablet.shards())
        tablet.fail()
        tablet.wipe()
        assert all(shard.store.row_count == 0 for shard in tablet.shards())
        assert all(shard.applied_offset == -1 for shard in tablet.shards())

    def test_restart_without_snapshot_replays_whole_binlog(
            self, tmp_path, cluster_schema):
        cluster = make_cluster(cluster_schema, tmp_path)
        faults = FaultInjector(cluster)
        for i in range(120):
            cluster.put("t", (i % 5, i, float(i)))
        victim = cluster.leader_of("t", 1).name
        report = faults.crash_restart(victim)
        assert report.snapshot_rows == 0
        assert report.replayed_entries > 0
        assert_replica_matches_peers(cluster, victim)

    def test_restart_refuses_live_tablet(self, tmp_path, cluster_schema):
        cluster = make_cluster(cluster_schema, tmp_path)
        with pytest.raises(StorageError):
            cluster.restart_tablet("tablet-0")

    def test_crash_restart_records_observability(
            self, tmp_path, cluster_schema):
        obs = Observability()
        cluster = make_cluster(cluster_schema, tmp_path, obs=obs)
        faults = FaultInjector(cluster)
        for i in range(80):
            cluster.put("t", (i % 3, i, float(i)))
        cluster.snapshot()
        victim = cluster.leader_of("t", 0).name
        faults.crash_restart(victim)
        registry = obs.registry
        assert registry.get("cluster.recovery.restarts").value == 1
        assert registry.get("storage.snapshot.writes").value > 0
        assert registry.get("storage.binlog.appends").value > 0
        spans = [span["name"] for trace in obs.tracer.trace_ids()
                 for span in obs.tracer.export(trace)]
        assert "recovery.restart" in spans
        assert "snapshot.write" in spans

    def test_repeated_crashes_stay_consistent(self, tmp_path,
                                              cluster_schema):
        cluster = make_cluster(cluster_schema, tmp_path)
        faults = FaultInjector(cluster)
        for round_index in range(3):
            base = round_index * 50
            for i in range(base, base + 50):
                cluster.put("t", (i % 4, i, float(i)))
            if round_index == 1:
                cluster.snapshot()
            victim = cluster.leader_of("t", round_index % 2).name
            faults.crash_restart(victim)
            assert_replica_matches_peers(cluster, victim)


class TestDiskShardCrashRestart:
    """A tablet hosts a disk table's shards as it hosts memory ones, and
    restores them through the one body: newest snapshot — explicit
    flushes and compactions at the rows they landed on — then the binlog
    tail, its control frames re-applied in stream order."""

    SQL = ("SELECT uid, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
           "WINDOW w AS (PARTITION BY uid ORDER BY ts "
           "ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW)")
    UIDS = range(6)
    NOW = 200_000

    def build(self, data_dir, obs=None):
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(2)],
                             retry_policy=FAST, data_dir=str(data_dir),
                             obs=obs)
        ttl = TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=60_000)
        cluster.create_table(
            "t", Schema.from_pairs([("uid", "int"), ("ts", "timestamp"),
                                    ("v", "double")]),
            [IndexDef(("uid",), "ts", ttl=ttl)], partitions=2, replicas=1,
            storage="disk", flush_threshold=16)
        cluster.deploy("d", self.SQL)
        return cluster

    @staticmethod
    def stores(cluster):
        return [shard.store for tablet in cluster.tablets.values()
                for shard in tablet.shards()]

    def observe(self, cluster):
        state = {}
        for uid in self.UIDS:
            partition_id = cluster.partition_for("t", uid)
            store = cluster.leader_of("t", partition_id).shard(
                "t", partition_id).store
            state[(uid, "scan")] = scanned(store.window_scan_blocks(
                ("uid",), "ts", uid))
            state[(uid, "latest")] = store.last_join_lookup(("uid",), uid)
            state[(uid, "request")] = cluster.request(
                "d", (uid, self.NOW, 0.0))
        return repr(state)

    def load(self, cluster, start, count):
        for i in range(start, start + count):
            cluster.put("t", (i % len(self.UIDS), i * 1_000, i / 8))

    def crash_restart_each(self, cluster, entries):
        faults = FaultInjector(cluster)
        before = self.observe(cluster)
        for tablet_name in sorted(cluster.tablets):
            report = faults.crash_restart(tablet_name)
            assert report.snapshot_rows > 0
            assert 0 < report.replayed_entries < entries
            assert self.observe(cluster) == before
        return before

    def test_flush_compact_snapshot_crash_restart(self, tmp_path):
        cluster = self.build(tmp_path)
        self.load(cluster, 0, 90)
        for store in self.stores(cluster):
            store.flush()
        assert sum(store.compact(self.NOW - 100_000)
                   for store in self.stores(cluster)) > 0
        cluster.snapshot("t")
        self.load(cluster, 90, 60)
        for store in self.stores(cluster):
            store.flush()
        # The compaction the snapshot images carry.
        self.crash_restart_each(cluster, 150)

        assert sum(store.compact(self.NOW - 50_000)
                   for store in self.stores(cluster)) > 0
        self.load(cluster, 150, 20)
        # The compaction the binlog tail carries, past the images.
        before = self.crash_restart_each(cluster, 170)
        cluster.close()

        # Rebuilding over the directory restores the same way: the
        # snapshot images load, and only the tail past them replays.
        obs = Observability()
        rebuilt = self.build(tmp_path, obs=obs)
        binlog_entries = sum(
            binlog.last_offset + 1
            for binlog in rebuilt.table_info("t").binlogs.values())
        replayed = sum(
            obs.registry.get("tablet.rpc.replicated", tablet=name).value
            for name in rebuilt.tablets)
        assert binlog_entries == 170
        assert 0 < replayed < binlog_entries
        assert self.observe(rebuilt) == before
        rebuilt.close()


# ----------------------------------------------------------------------
# single node: differential crash recovery

DDL = {
    "t_abs": "CREATE TABLE t_abs (k string, ts timestamp, v double, "
             "INDEX(KEY=k, TS=ts, TTL=1d, TTL_TYPE=absolute))",
    "t_lat": "CREATE TABLE t_lat (k string, ts timestamp, v double, "
             "INDEX(KEY=k, TS=ts, TTL=8, TTL_TYPE=latest))",
}

WINDOW_SQL = ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c "
              "FROM t_abs WINDOW w AS (PARTITION BY k ORDER BY ts "
              "ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW)")
LONG_SQL = ("SELECT k, sum(v) OVER w AS s FROM t_abs WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)")

KEYS = [f"k{i}" for i in range(6)]


def build_catalog(db):
    """DDL + deployments; recovery re-runs this on the fresh instance.

    ``t_abs``/``t_lat`` come from SQL DDL; the combined TTL kinds take
    both bounds, which the SQL surface cannot spell, so they go through
    the programmatic catalog the same way every session does.
    """
    for ddl in DDL.values():
        db.execute(ddl)
    both = TTLSpec(kind=TTLKind.ABS_OR_LAT, abs_ttl_ms=3_600_000,
                   lat_ttl=6)
    db.create_table("t_or", Schema.from_pairs(
        [("k", "string"), ("ts", "timestamp"), ("v", "double")]),
        [IndexDef(("k",), "ts", ttl=both)])
    db.create_table("t_and", Schema.from_pairs(
        [("k", "string"), ("ts", "timestamp"), ("v", "double")]),
        [IndexDef(("k",), "ts",
                  ttl=TTLSpec(kind=TTLKind.ABS_AND_LAT,
                              abs_ttl_ms=3_600_000, lat_ttl=6))])
    db.deploy("win", WINDOW_SQL)
    db.deploy("long", LONG_SQL, long_windows="w:1m")


def random_inserts(rng, count):
    """Out-of-order timestamped inserts across all four TTL kinds."""
    tables = ["t_abs", "t_lat", "t_or", "t_and"]
    inserts = []
    for _ in range(count):
        table = rng.choice(tables)
        key = rng.choice(KEYS)
        ts = rng.randrange(0, 7_200_000)  # deliberately not monotone
        inserts.append((table, (key, ts, round(rng.uniform(0, 100), 3))))
    return inserts


def sync_binlogs(db):
    """The durability barrier: fsync every table's partition binlog."""
    for table in db.cluster.tables.values():
        for binlog in table.binlogs.values():
            binlog.sync()


def observe(db):
    """Every externally visible answer, as one comparable structure."""
    state = {}
    for name in ("t_abs", "t_lat", "t_or", "t_and"):
        table = db.table(name)
        for key in KEYS:
            state[(name, key, "scan")] = scanned(
                table.window_scan_blocks(("k",), "ts", key))
            state[(name, key, "latest")] = table.last_join_lookup(
                ("k",), key)
    for key in KEYS:
        request = (key, 7_300_000, 0.0)
        state[("win", key)] = db.request("win", request)
        state[("long", key)] = db.request("long", request)
    return state


class TestDifferentialCrashRecovery:
    @pytest.mark.parametrize("seed", [7, 23, 1729])
    def test_recovered_state_matches_uninterrupted_twin(
            self, tmp_path, seed):
        rng = random.Random(seed)
        inserts = random_inserts(rng, 400)
        snapshot_cut = rng.randrange(0, len(inserts))

        # The instance that will crash: snapshot at a random point,
        # then keep ingesting until the "crash".
        crashed = OpenMLDB(data_dir=str(tmp_path))
        build_catalog(crashed)
        for index, (table, row) in enumerate(inserts):
            crashed.insert(table, row)
            if index == snapshot_cut:
                crashed.snapshot()
        # Acknowledged == fsync'd: the durability barrier runs, then
        # the process is abandoned without any orderly close.
        sync_binlogs(crashed)

        # The twin never crashes; its answers define ground truth.
        twin = OpenMLDB()
        build_catalog(twin)
        for table, row in inserts:
            twin.insert(table, row)

        # Recovery: fresh instance, same data_dir, DDL re-run, replay.
        recovered = OpenMLDB(data_dir=str(tmp_path))
        build_catalog(recovered)
        report = recovered.recover()
        assert report.snapshot_rows + report.replayed_entries > 0

        assert observe(recovered) == observe(twin)
        twin.close()
        recovered.close()

    def test_recovery_continues_accepting_writes(self, tmp_path):
        first = OpenMLDB(data_dir=str(tmp_path))
        build_catalog(first)
        for i in range(40):
            first.insert("t_abs", (KEYS[i % 3], i * 1_000, float(i)))
        sync_binlogs(first)

        recovered = OpenMLDB(data_dir=str(tmp_path))
        build_catalog(recovered)
        recovered.recover()
        # Post-recovery inserts continue the durable offset sequence...
        recovered.insert("t_abs", ("k0", 99_000, 9.0))
        sync_binlogs(recovered)
        recovered.close()

        # ...so a second crash/recover round trip sees them too.
        again = OpenMLDB(data_dir=str(tmp_path))
        build_catalog(again)
        again.recover()
        assert again.table("t_abs").row_count == 41
        hit = again.table("t_abs").last_join_lookup(("k",), "k0")
        assert hit[0] == 99_000
        again.close()

    @staticmethod
    def _latest_two(data_dir):
        db = OpenMLDB(data_dir=str(data_dir))
        db.create_table("t", Schema.from_pairs(
            [("k", "string"), ("ts", "timestamp"), ("v", "bigint")]),
            [IndexDef(("k",), "ts",
                      ttl=TTLSpec(kind=TTLKind.LATEST, lat_ttl=2))])
        return db

    @staticmethod
    def _stamps(db):
        return [ts for ts, _row in scanned(db.table("t").window_scan_blocks(
            ("k",), "ts", "a"))]

    def test_ttl_eviction_survives_snapshot_and_recover(self, tmp_path):
        """An eviction before a snapshot is in the image: neither
        ``recover`` nor a fresh instance over the directory brings the
        evicted rows back."""
        db = self._latest_two(tmp_path)
        for ts in (10, 20, 30, 40, 50):
            db.insert("t", ("a", ts, ts))
        assert db.evict_expired(60) == 3
        assert self._stamps(db) == [50, 40]
        db.snapshot()
        db.recover()
        assert self._stamps(db) == [50, 40]
        sync_binlogs(db)
        fresh = self._latest_two(tmp_path)
        assert self._stamps(fresh) == [50, 40]
        fresh.close()
        db.close()

    def test_ttl_eviction_in_the_binlog_tail_replays(self, tmp_path):
        """An eviction after the snapshot is a control frame in the
        binlog tail, re-applied among the rows it landed between — the
        first one too, logged before any row follows the image's last."""
        db = self._latest_two(tmp_path)
        for ts in (10, 20, 30):
            db.insert("t", ("a", ts, ts))
        db.snapshot()
        assert db.evict_expired(60) == 1
        db.insert("t", ("a", 5, 5))  # late: behind the eviction
        db.recover()
        assert self._stamps(db) == [30, 20, 5]
        db.insert("t", ("a", 40, 40))
        assert db.evict_expired(60) == 2
        db.insert("t", ("a", 7, 7))
        assert self._stamps(db) == [40, 30, 7]
        db.recover()
        assert self._stamps(db) == [40, 30, 7]
        sync_binlogs(db)
        fresh = self._latest_two(tmp_path)
        assert self._stamps(fresh) == [40, 30, 7]
        fresh.close()
        db.close()

    def test_recover_requires_data_dir(self):
        db = OpenMLDB()
        with pytest.raises(StorageError):
            db.recover()
        with pytest.raises(StorageError):
            db.snapshot()
