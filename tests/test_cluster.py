"""Tests for the simulated cluster (tablets + nameserver)."""

import random
import tracemalloc

import pytest

from repro import OpenMLDB
from repro.ctlplane import PartitionSplitter, TenantRegistry, stable_hash
from repro.errors import (DeadlineExceededError, DeploymentError,
                          DeploymentNotFoundError,
                          MemoryLimitExceededError, PlanError,
                          ShardMovedError, StorageError)
from repro.obs import Observability
from repro.online.engine import OnlineEngine
from repro.schema import IndexDef, Schema
from repro.serving.deadline import Deadline, deadline_scope
from repro.serving.describe import DeploymentDescriptor
from repro.storage import skiplist
from repro.storage.memtable import MemTable
from repro.cluster import NameServer, TabletServer
from tests.conftest import (BAD_ROWS, CHECKED_INDEX, CHECKED_SCHEMA, GOOD_ROW,
                            scanned)


@pytest.fixture
def schema():
    return Schema.from_pairs([
        ("user", "string"), ("ts", "timestamp"), ("v", "double")])


@pytest.fixture
def cluster(schema):
    tablets = [TabletServer(f"tablet-{i}") for i in range(3)]
    nameserver = NameServer(tablets)
    nameserver.create_table("t", schema, [IndexDef(("user",), "ts")],
                            partitions=4, replicas=2)
    return nameserver


class TestPlacement:
    def test_every_partition_has_replica_group(self, cluster):
        table = cluster.tables["t"]
        for partition_id in range(4):
            assert len(table.assignment[partition_id]) == 2

    def test_replicas_on_distinct_tablets(self, cluster):
        table = cluster.tables["t"]
        for tablet_names in table.assignment.values():
            assert len(set(tablet_names)) == 2

    def test_leaders_assigned(self, cluster):
        for partition_id in range(4):
            cluster.leader_of("t", partition_id)  # must not raise

    def test_too_many_replicas_rejected(self, schema):
        nameserver = NameServer([TabletServer("only")])
        with pytest.raises(StorageError):
            nameserver.create_table("t", schema,
                                    [IndexDef(("user",), "ts")],
                                    replicas=2)

    def test_duplicate_table_rejected(self, cluster, schema):
        with pytest.raises(StorageError):
            cluster.create_table("t", schema, [IndexDef(("user",), "ts")])


class TestDataPath:
    def test_put_replicates_to_all_live_replicas(self, cluster):
        cluster.put("t", ("u1", 100, 1.0))
        table = cluster.tables["t"]
        partition_id = cluster.partition_for("t", "u1")
        for tablet_name in table.assignment[partition_id]:
            shard = cluster.tablets[tablet_name].shard("t", partition_id)
            assert shard.store.row_count == 1
            assert shard.applied_offset == 0

    def test_get_latest(self, cluster):
        cluster.put("t", ("u1", 100, 1.0))
        cluster.put("t", ("u1", 200, 2.0))
        hit = cluster.get_latest("t", "u1")
        assert hit[0] == 200
        assert hit[1][2] == 2.0

    def test_get_latest_miss(self, cluster):
        assert cluster.get_latest("t", "ghost") is None

    def test_get_latest_on_a_secondary_index_reads_every_partition(self):
        # Partitioned by ``a``: a ``b`` value's rows sit on every
        # partition, so the newest one is found only by asking them all.
        schema = Schema.from_pairs([("a", "string"), ("b", "string"),
                                    ("ts", "timestamp")])
        indexes = [IndexDef(("a",), "ts"), IndexDef(("b",), "ts")]
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)])
        cluster.create_table("t", schema, indexes, partitions=4)
        reference = MemTable("t", schema, indexes)
        for i in range(40):
            row = (f"a{i}", f"b{i % 5}", 1_000 + i)
            cluster.put("t", row)
            reference.insert(row)
        for b in [f"b{i}" for i in range(5)] + ["ghost"]:
            assert cluster.get_latest("t", b, keys=("b",)) \
                == reference.last_join_lookup(("b",), b)
        assert cluster.get_latest("t", "b4", keys=("b",))[0] == 1_039
        assert cluster.get_latest("t", "a7") == (1_007, ("a7", "b2", 1_007))
        cluster.close()

    def test_offsets_are_per_partition_monotone(self, cluster):
        for index in range(10):
            cluster.put("t", (f"u{index}", index, 0.0))
        table = cluster.tables["t"]
        assert sum(binlog.last_offset + 1
                   for binlog in table.binlogs.values()) == 10


class TestNullPartitionKey:
    def test_null_key_put_replicates_and_serves(self):
        """A NULL key routes, is indexed on leader and follower alike
        (the leader used to keep a row its binlog never got), and is
        served."""
        schema = Schema.from_pairs(
            [("k", "bigint"), ("ts", "timestamp"), ("v", "int")])
        nameserver = NameServer([TabletServer(f"tablet-{i}")
                                 for i in range(2)])
        nameserver.create_table("t", schema, [IndexDef(("k",), "ts")],
                                partitions=1, replicas=2)
        for ts in range(4):
            nameserver.put("t", (ts % 2, 1000 + ts, ts))
        nameserver.put("t", (None, 2000, 7))
        leader, follower = (
            nameserver.tablets[name].shard("t", 0).store
            for name in nameserver.tables["t"].assignment[0])
        assert list(leader.rows()) == list(follower.rows())
        assert leader.row_count == len(
            leader.structure(leader.indexes[0].name)) == 5
        nameserver.deploy("d", "SELECT k, sum(v) OVER w AS s FROM t "
                          "WINDOW w AS (PARTITION BY k ORDER BY ts "
                          "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)")
        assert nameserver.request("d", (None, 3000, 1)) \
            == {"k": None, "s": 8}


class TestOneCheckOneRow:
    """``NameServer.put`` validates a row once; the leader, the follower
    and the binlog entry all hold the tuple that check returned."""

    @staticmethod
    def checked_cluster(data_dir=None, storage="memory"):
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)],
                             data_dir=data_dir)
        cluster.create_table("c", CHECKED_SCHEMA, [CHECKED_INDEX],
                             partitions=4, replicas=2, storage=storage)
        return cluster

    @staticmethod
    def state(cluster, table_name):
        """Every binlog, every replica and every governor, by value."""
        table = cluster.tables[table_name]
        return ({pid: binlog.rows_from(0)
                 for pid, binlog in table.binlogs.items()},
                {(tablet.name, shard.partition_id):
                    (list(shard.store.rows()), shard.applied_offset)
                 for tablet in cluster.tablets.values()
                 for shard in tablet.shards()},
                {tablet.name: tablet.governor.used_bytes
                 for tablet in cluster.tablets.values()})

    def test_replicas_and_binlog_share_one_tuple(self, cluster):
        row = ("u1", 100, 1.0)
        cluster.put("t", row)
        table = cluster.tables["t"]
        partition_id = cluster.partition_for("t", "u1")
        held = [next(cluster.tablets[name].shard("t", partition_id)
                     .store.rows())
                for name in table.assignment[partition_id]]
        (logged,) = table.binlogs[partition_id].rows_from(0)
        assert len(held) == 2
        assert all(stored is row for stored in held)
        assert logged is row

    @pytest.mark.parametrize("durable", [False, True])
    def test_one_check_at_the_boundary_one_per_replica(
            self, validations, tmp_path, durable):
        cluster = self.checked_cluster(str(tmp_path) if durable else None)
        cluster.put("c", GOOD_ROW)
        # NameServer.put checks the row; the tablet RPCs, each replica's
        # store and the WAL encode take the checked tuple as it is.
        assert validations == [GOOD_ROW]
        cluster.close()

    def test_one_check_on_disk_shards(self, validations):
        cluster = self.checked_cluster(storage="disk")
        cluster.put("c", GOOD_ROW)
        assert validations == [GOOD_ROW]
        partition_id = cluster.partition_for("c", GOOD_ROW[0])
        held = [next(cluster.tablets[name].shard("c", partition_id)
                     .store.rows())
                for name in cluster.tables["c"].assignment[partition_id]]
        assert len(held) == 2 and all(row is GOOD_ROW for row in held)
        cluster.close()

    def test_expired_deadline_writes_nothing(self):
        cluster = self.checked_cluster()
        cluster.put("c", GOOD_ROW)
        before = self.state(cluster, "c")
        with deadline_scope(Deadline(0)):
            with pytest.raises(DeadlineExceededError):
                cluster.put("c", ("u2", 200, 5, 6, 2.0))
        assert self.state(cluster, "c") == before
        assert cluster.failovers == 0  # a spent budget fails no tablet
        cluster.close()

    def test_put_follows_a_split_between_route_and_lock(self, cluster,
                                                        monkeypatch):
        """The layout moves after the put routed and before it holds
        the partition lock: the put re-routes from the new layout and
        lands on the child that layout names."""
        cluster.put("t", ("u1", 100, 1.0))
        parent = cluster.partition_for("t", "u1")
        lock_of, split = cluster.partition_lock, []

        def partition_lock(table_name, partition_id):
            if not split:
                split.append(partition_id)
                PartitionSplitter(cluster).split(table_name, partition_id)
            return lock_of(table_name, partition_id)
        monkeypatch.setattr(cluster, "partition_lock", partition_lock)
        row = ("u1", 200, 2.0)
        offset = cluster.put("t", row)
        table = cluster.tables["t"]
        child = table.layout.router.route(stable_hash("u1"))
        assert split == [parent] and parent in table.retired
        assert child not in (parent, *range(4))
        assert offset == 1 and table.binlogs[child].rows_from(0) \
            == [("u1", 100, 1.0), row]
        assert all(cluster.tablets[name].shard("t", child).store
                   .last_join_lookup(("user",), "u1")[1] is row
                   for name in table.assignment[child])
        cluster.close()

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_row_raises_typed_and_writes_nothing(self, case):
        row, error = BAD_ROWS[case]
        cluster = self.checked_cluster()
        tenants = TenantRegistry()
        budget = tenants.register("acme", memory_bytes=1 << 20)
        cluster.attach_tenants(tenants)
        with pytest.raises(error):
            cluster.put("c", row, tenant="acme")
        table = cluster.tables["c"]
        assert all(binlog.last_offset == -1
                   for binlog in table.binlogs.values())
        assert all(shard.store.row_count == 0 and shard.applied_offset == -1
                   for tablet in cluster.tablets.values()
                   for shard in tablet.shards())
        assert budget.used_bytes == 0
        assert all(tablet.governor.used_bytes == 0
                   for tablet in cluster.tablets.values())
        cluster.close()


class TestFootprint:
    """What a put keeps alive once its row is built: two replicas' cells
    and time-list slots, and — in the partition binlog — list slots
    only, no entry object and no boxed offset per row."""

    def test_put_keeps_no_per_row_binlog_wrapper(self):
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)])
        cluster.create_table(
            "f", Schema.from_pairs([("k", "bigint"), ("ts", "timestamp"),
                                    ("a", "bigint"), ("b", "bigint"),
                                    ("c", "bigint")]),
            [IndexDef(("k",), "ts")], partitions=4, replicas=2)
        rng = random.Random(7)
        rows = [(index % 20, 1_000 + index // 20 * 10, rng.randrange(1000),
                 rng.randrange(1000), rng.randrange(1000))
                for index in range(4_000)]
        for row in rows[:40]:  # every key node exists before tracing
            cluster.put("f", row)
        tracemalloc.start(1)
        try:
            for row in rows[40:]:
                cluster.put("f", row)
            stats = tracemalloc.take_snapshot().statistics("filename")
        finally:
            tracemalloc.stop()
        traced = len(rows) - 40
        total = sum(stat.size for stat in stats) / traced
        # "<string>" is a named tuple's generated __new__.
        binlog = sum(stat.size for stat in stats
                     if stat.traceback[0].filename.endswith(
                         ("online/binlog.py", "<string>"))) / traced
        assert total <= 160, f"{total:.1f} B traced per row"
        assert binlog <= 24, f"{binlog:.1f} B per row in the binlog"
        cluster.close()

    def test_tail_keeps_one_reference_per_row(self):
        """A hot tail holds the tuple that was put, not a copy of its
        values: 20 keys of 199 rows (none seals) on two replicas cost the
        index a stamp and a list slot per row each, and LAST JOIN hands
        back the very tuple."""
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)])
        cluster.create_table(
            "f", Schema.from_pairs([("k", "bigint"), ("ts", "timestamp"),
                                    ("a", "bigint"), ("b", "bigint"),
                                    ("c", "bigint")]),
            [IndexDef(("k",), "ts")], partitions=4, replicas=2)
        rng = random.Random(11)
        rows = [(index % 20, 1_000 + index // 20 * 10, rng.randrange(1000),
                 rng.randrange(1000), rng.randrange(1000))
                for index in range(20 * 199)]
        for row in rows[:20]:  # every key's time list exists before tracing
            cluster.put("f", row)
        tracemalloc.start(1)
        try:
            for row in rows[20:]:
                cluster.put("f", row)
            stats = tracemalloc.take_snapshot().statistics("filename")
        finally:
            tracemalloc.stop()
        index = sum(stat.size for stat in stats
                    if stat.traceback[0].filename.endswith(
                        "storage/skiplist.py")) / (len(rows) - 20)
        assert index <= 48, f"{index:.1f} B per row in the index"
        for row in rows[-20:]:
            assert cluster.get_latest("f", row[0])[1] is row
        cluster.close()


class TestFailover:
    def test_failure_promotes_follower(self, cluster):
        cluster.put("t", ("u1", 100, 1.0))
        partition_id = cluster.partition_for("t", "u1")
        leader = cluster.leader_of("t", partition_id)
        transfers = cluster.handle_failure(leader.name)
        assert transfers >= 1
        new_leader = cluster.leader_of("t", partition_id)
        assert new_leader.name != leader.name
        assert new_leader.alive

    def test_reads_survive_failure(self, cluster):
        cluster.put("t", ("u1", 100, 1.0))
        partition_id = cluster.partition_for("t", "u1")
        leader = cluster.leader_of("t", partition_id)
        cluster.handle_failure(leader.name)
        assert cluster.get_latest("t", "u1")[0] == 100

    def test_writes_continue_after_failover(self, cluster):
        cluster.put("t", ("u1", 100, 1.0))
        partition_id = cluster.partition_for("t", "u1")
        cluster.handle_failure(cluster.leader_of("t", partition_id).name)
        cluster.put("t", ("u1", 200, 2.0))
        assert cluster.get_latest("t", "u1")[0] == 200

    def test_dead_tablet_rejects_io(self, cluster):
        tablet = next(iter(cluster.tablets.values()))
        tablet.fail()
        with pytest.raises(StorageError):
            tablet.write("t", 0, ("u", 1, 0.0), 0)

    def test_recovery(self, cluster):
        tablet = next(iter(cluster.tablets.values()))
        tablet.fail()
        tablet.recover()
        assert tablet.alive


class TestMemoryIsolation:
    def test_tablet_memory_limit_fails_writes_only(self, schema):
        tablet = TabletServer("small", max_memory_mb=1)
        nameserver = NameServer([tablet])
        nameserver.create_table("t", schema, [IndexDef(("user",), "ts")],
                                partitions=1, replicas=1)
        with pytest.raises(MemoryLimitExceededError):
            for index in range(100_000):
                nameserver.put("t", (f"user{index}", index, 1.0))
        # Reads still served.
        assert nameserver.get_latest("t", "user0") is not None


class TestServedPathDifferential:
    """The served path (tablet blocks handed through the cluster view to
    the fold) answers exactly like a local engine over ``MemTable``s."""

    SCHEMA = Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("amt", "int"),
        ("shop", "string")])
    # uid is the partition column; the shop index is scanned by fan-out.
    INDEXES = [IndexDef(("uid",), "ts"), IndexDef(("shop",), "ts")]
    SQL = (
        "SELECT uid, sum(amt) OVER w_range AS s, count(amt) OVER w_range "
        "AS c, min(amt) OVER w_range AS lo, max(amt) OVER w_range AS hi, "
        "avg(amt) OVER w_range AS mean, sum(amt) OVER w_rows AS rows_s, "
        "sum(amt) OVER w_shop AS shop_s, count(amt) OVER w_shop AS shop_c "
        "FROM t WINDOW "
        "w_range AS (PARTITION BY uid ORDER BY ts "
        "ROWS_RANGE BETWEEN 500 PRECEDING AND CURRENT ROW), "
        "w_rows AS (PARTITION BY uid ORDER BY ts "
        "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), "
        "w_shop AS (PARTITION BY shop ORDER BY ts "
        "ROWS_RANGE BETWEEN 800 PRECEDING AND CURRENT ROW)")

    def _twins(self, kind="cluster"):
        obs = Observability(enabled=True)
        if kind == "cluster":
            cluster = NameServer([TabletServer(f"tablet-{i}")
                                  for i in range(3)], obs=obs)
            cluster.create_table("t", self.SCHEMA, self.INDEXES,
                                 partitions=4, replicas=2)
            put = cluster.put
        else:
            cluster = OpenMLDB(observability=True)
            cluster.create_table("t", self.SCHEMA, self.INDEXES)
            put = cluster.insert
        local = MemTable("t", self.SCHEMA, self.INDEXES)
        rng = random.Random(5)
        for step in range(600):
            # Out-of-order arrivals and many duplicate timestamps: ties
            # decide which rows a ROWS frame keeps.
            row = (rng.randrange(8), rng.randrange(40) * 50,
                   rng.randrange(-20, 20), f"shop-{rng.randrange(3)}")
            put("t", row)
            local.insert(row)
        deployed = cluster.deploy("feat", self.SQL)
        # NameServer.deploy hands back the plan, OpenMLDB the Deployment.
        compiled = getattr(deployed, "compiled", deployed)
        engine = OnlineEngine({"t": local})
        requests = [(uid, ts, 1, f"shop-{uid % 3}")
                    for uid in range(9) for ts in (0, 950, 1_000, 2_500)]

        def expected(row):
            return dict(zip(compiled.output_names,
                            engine.execute_request(compiled, row)))
        return cluster, expected, requests, local

    def test_request_and_batch_match_local_engine(self, monkeypatch):
        # Blocks seal at 8 tuples (16 at most, with late rows), so every
        # key's history is mostly sealed blocks and the served folds
        # read their memoized summaries.
        monkeypatch.setattr(skiplist, "BLOCK_ROWS", 8)
        cluster, expected, requests, local = self._twins()
        want = [expected(row) for row in requests]
        got = [cluster.request("feat", row) for row in requests]
        assert got == want and repr(got) == repr(want)
        batch = cluster.request_batch("feat", requests)
        assert batch == want and repr(batch) == repr(want)
        # A single-partition scan hands over the tablet's own blocks,
        # which hold what a single table holding the same rows holds.
        view = cluster._views["t"]
        blocks = view.window_scan_blocks(("uid",), "ts", 3)
        assert len(blocks) > 1 and all(len(b) <= 16 for b in blocks)
        assert scanned(blocks) \
            == scanned(local.window_scan_blocks(("uid",), "ts", 3))
        cluster.close()

    @pytest.mark.parametrize("kind", ["single", "cluster"])
    def test_both_hosts_run_one_deployment_body(self, kind):
        host, expected, requests, _local = self._twins(kind)
        want = [expected(row) for row in requests]
        got = [host.request("feat", row) for row in requests]
        assert got == want and repr(got) == repr(want)
        assert host.request_batch("feat", requests) == want
        assert [host.request_row("feat", row) for row in requests] \
            == [tuple(features.values()) for features in want]
        assert host.describe_deployment("feat") == DeploymentDescriptor(
            name="feat", table="t", input_schema=self.SCHEMA,
            output_names=tuple(want[0]))
        # One set of typed errors.
        with pytest.raises(DeploymentError, match="already exists"):
            host.deploy("feat", self.SQL)
        row = requests[0]
        for unknown in (lambda: host.request("ghost", row),
                        lambda: host.request_row("ghost", row),
                        lambda: host.request_batch("ghost", [row]),
                        lambda: host.describe_deployment("ghost"),
                        lambda: host.undeploy("ghost")):
            with pytest.raises(DeploymentNotFoundError):
                unknown()
        # No index serves PARTITION BY amt: refused at deploy (§4.2),
        # not discovered by the first request.
        with pytest.raises(PlanError, match="no index"):
            host.deploy("unservable", self.SQL.replace(
                "PARTITION BY shop", "PARTITION BY amt"))
        # Long windows are served by storage summaries on both hosts.
        long_window = f'DEPLOY lw OPTIONS(long_windows="w_range:1s") ' \
                      f'{self.SQL}'
        host.deploy("lw", long_window)
        assert host.request("lw", requests[5]) == want[5]
        # A request that fails mid-plan is still a request.
        series = "cluster.request.ms" if kind == "cluster" \
            else "online.request.ms"
        histogram = host.obs.registry.get(series)
        seen = histogram.count
        with pytest.raises(DeadlineExceededError):
            host.request("feat", requests[0], timeout_ms=0.0)
        assert histogram.count == seen + 1
        # deploy -> undeploy -> redeploy.
        host.undeploy("feat")
        with pytest.raises(DeploymentNotFoundError):
            host.request("feat", requests[0])
        host.deploy("feat", self.SQL)
        assert host.request("feat", requests[3]) == want[3]
        host.close()

    def test_split_between_reads_re_resolves(self, monkeypatch):
        cluster, expected, requests, _local = self._twins()
        row = requests[5]
        assert cluster.request("feat", row) == expected(row)
        stale = cluster.partition_for("t", row[0])
        # The next read routes from the layout it read, then the split
        # lands before its block scan runs: the retired id raises
        # ShardMovedError inside the routed block scan and the view
        # re-resolves against the fresh directory.
        leader = cluster.leader_of("t", stale)
        scan, scanned = leader.window_scan_blocks, []

        def window_scan_blocks(table, partition_id, *args, **kwargs):
            scanned.append((table, partition_id))
            if scanned == [("t", stale)]:
                PartitionSplitter(cluster).split("t", stale)
            return scan(table, partition_id, *args, **kwargs)
        monkeypatch.setattr(leader, "window_scan_blocks",
                            window_scan_blocks)
        got = cluster.request("feat", row)
        with pytest.raises(ShardMovedError):
            cluster.leader_of("t", stale)
        assert got == expected(row) and repr(got) == repr(expected(row))
        assert scanned[0] == ("t", stale) and len(scanned) > 1
        want = [expected(r) for r in requests]
        assert cluster.request_batch("feat", requests) == want
        cluster.close()


class TestOneNodeServesTheClusterBits:
    """A single node and a cluster answer one deployment with the same
    bits: every window on every host is a block scan plus the fold.

    ``variance`` / ``stddev`` over doubles that include ±1e9 are where
    a second, running-state tier would part from the fold: removing a
    1e9 from a plain float Σx² does not restore it."""

    SCHEMA = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                                ("x", "double")])
    INDEXES = [IndexDef(("k",), "ts")]
    SQL = ("SELECT k, sum(x) OVER w AS s, avg(x) OVER w AS a, "
           "min(x) OVER w AS lo, max(x) OVER w AS hi, "
           "variance(x) OVER w AS var, stddev(x) OVER w AS sd "
           "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
           "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)")

    def test_single_node_matches_cluster_repr(self):
        node = OpenMLDB()
        node.create_table("t", self.SCHEMA, self.INDEXES)
        cluster = NameServer([TabletServer(f"tablet-{i}")
                              for i in range(3)])
        cluster.create_table("t", self.SCHEMA, self.INDEXES,
                             partitions=4, replicas=2)
        node.deploy("feat", self.SQL)
        cluster.deploy("feat", self.SQL)
        rng = random.Random(11)
        keys = [f"k{i}" for i in range(4)]

        def value():
            if rng.random() < 0.2:
                return rng.choice((1e9, -1e9))
            return rng.uniform(-1e3, 1e3)
        for ts in range(40):
            for key in keys:
                row = (key, ts * 10, value())
                node.insert("t", row)
                cluster.put("t", row)
        requests = [(key, 400 + step, value())
                    for key in keys for step in range(15)]
        for row in requests:
            got = node.request("feat", row)
            assert repr(got) == repr(cluster.request("feat", row)), row
        node.close()
        cluster.close()
