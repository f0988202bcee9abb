"""A table's layout is one value, replaced whole, one epoch at a time.

Routing, placement, the leader of every partition and the retired ids
live in one frozen :class:`~repro.cluster.layout.Layout`; every
control-plane operation swaps in the next one.  These tests drive a
cluster through every operation that changes a layout and check the
invariants a cluster history must keep, plus two races the one routed
call settles.
"""

import json
import os

import pytest

from repro.cluster import FaultInjector, NameServer, TabletServer
from repro.cluster.layout import Layout
from repro.ctlplane import PartitionSplitter, Rebalancer, ShardMigrator
from repro.schema import IndexDef, Schema

SCHEMA = Schema.from_pairs([
    ("uid", "string"), ("ts", "timestamp"), ("amt", "double")])
INDEXES = [IndexDef(("uid",), "ts")]
FEATURES = ("SELECT uid, sum(amt) OVER w AS s, avg(amt) OVER w AS a, "
            "count(amt) OVER w AS n FROM ev "
            "WINDOW w AS (PARTITION BY uid ORDER BY ts "
            "ROWS_RANGE BETWEEN 100000 PRECEDING AND CURRENT ROW)")
USERS = 12


def make_cluster(tablets=4, partitions=2, replicas=2, **kwargs):
    cluster = NameServer([TabletServer(f"tablet-{i}")
                          for i in range(tablets)], **kwargs)
    cluster.create_table("ev", SCHEMA, INDEXES, partitions=partitions,
                         replicas=replicas)
    return cluster


class _Recorder:
    """Every layout a cluster installs, in order, on a fake clock: the
    backoff sleeps are recorded instead of slept."""

    def __init__(self, cluster):
        self.installed = []
        self.slept = []
        install = cluster._install

        def recording_install(table, layout):
            self.installed.append(layout)
            install(table, layout)
        cluster._install = recording_install
        cluster._sleep = self.slept.append


def _check_invariants(cluster, twin, data_dir, recorder, seen):
    layout = cluster.table_info("ev").layout
    # The epoch moves by one on every layout installed, and only then:
    # each installed value differs from the one before it.
    fresh = recorder.installed[seen:]
    previous = None
    for installed in fresh:
        if previous is not None:
            assert installed.epoch == previous.epoch + 1
            assert _content(installed) != _content(previous)
        previous = installed
    assert not fresh or fresh[-1] is layout
    # Every placed partition has one leader among its replicas, and none
    # only when no replica is alive.
    for partition_id, replicas in layout.placement.items():
        leader = layout.leaders[partition_id]
        if leader is None:
            assert not any(cluster.tablets[name].alive for name in replicas)
        else:
            assert leader in replicas
            assert cluster.tablets[leader].alive
    assert set(layout.leaders) == set(layout.placement)
    # The routing entries tile the hash space: every residue of the
    # largest modulus falls in exactly one entry, and only placed
    # partitions are routed.
    entries = layout.router.state()["entries"]
    top = max(modulus for modulus, _, _ in entries)
    for hashed in range(top):
        owners = [pid for modulus, residue, pid in entries
                  if hashed % modulus == residue]
        assert len(owners) == 1
    assert set(layout.router.partition_ids()) == set(layout.placement)
    assert not set(layout.placement) & layout.retired
    # The persisted layout is the live one.
    with open(os.path.join(data_dir, "layout", "ev.json"),
              encoding="utf-8") as handle:
        assert json.load(handle) == layout.state()
    assert Layout.from_state(layout.state()).state() == layout.state()
    # Answers are byte-identical to an unfaulted twin's.
    for uid in range(USERS):
        request = (f"user-{uid}", 50_000, 0.5)
        assert repr(cluster.request("feat", request)) \
            == repr(twin.request("feat", request))
        assert repr(cluster.get_latest("ev", f"user-{uid}")) \
            == repr(twin.get_latest("ev", f"user-{uid}"))
    return len(recorder.installed)


def _content(layout):
    state = layout.state()
    del state["epoch"]
    return state


def test_layout_invariants_hold_through_every_control_plane_step(tmp_path):
    data_dir = str(tmp_path / "cluster")
    cluster = make_cluster(data_dir=data_dir)
    recorder = _Recorder(cluster)
    twin = make_cluster(tablets=1, partitions=1, replicas=1)
    for node in (cluster, twin):
        node.deploy("feat", FEATURES)
    faults = FaultInjector(cluster)
    stamp = [1_000]

    def puts(count=2):
        for uid in range(USERS):
            for _ in range(count):
                stamp[0] += 7
                row = (f"user-{uid}", stamp[0], stamp[0] / 3.0)
                cluster.put("ev", row)
                twin.put("ev", row)

    def epoch():
        return cluster.table_info("ev").layout.epoch

    def check():
        return _check_invariants(cluster, twin, data_dir, recorder, seen)

    seen = 0
    assert epoch() == 1
    seen = check()

    puts()  # writes alone never move the layout
    assert epoch() == 1
    seen = check()

    PartitionSplitter(cluster).split("ev", 0)
    assert epoch() > 1
    seen = check()
    puts()

    table = cluster.table_info("ev")
    pid = table.router.partition_ids()[0]
    leader = table.layout.leaders[pid]
    target = next(name for name in cluster.tablets
                  if name not in table.layout.placement[pid])
    before = epoch()
    report = ShardMigrator(cluster).migrate("ev", pid, leader, target)
    assert report.took_leadership
    assert epoch() == before + 1
    seen = check()
    puts()

    follower = next(name for name in table.layout.placement[pid]
                    if name != table.layout.leaders[pid])
    target = next(name for name in cluster.tablets
                  if name not in table.layout.placement[pid])
    before = epoch()
    assert not ShardMigrator(cluster).migrate(
        "ev", pid, follower, target).took_leadership
    assert epoch() == before + 1
    seen = check()
    puts()

    victim = table.layout.leaders[pid]
    faults.kill(victim)
    before = epoch()
    assert cluster.handle_failure(victim) >= 1
    assert epoch() == before + 1
    assert cluster.handle_failure(victim) == 0  # nothing left to move
    assert epoch() == before + 1
    seen = check()
    puts()

    before = epoch()
    faults.revive(victim)  # rejoins as a follower: no layout change
    assert epoch() == before
    seen = check()
    puts()

    cluster.snapshot()
    victim = table.layout.leaders[table.router.partition_ids()[-1]]
    faults.crash_restart(victim)
    seen = check()
    puts()
    assert recorder.slept == []  # no step needed a backoff

    final = cluster.table_info("ev").layout.state()
    cluster.close()
    reborn = NameServer([TabletServer(f"tablet-{i}") for i in range(4)],
                        data_dir=data_dir)
    reborn.create_table("ev", SCHEMA, INDEXES, partitions=2, replicas=2)
    reborn.deploy("feat", FEATURES)
    assert reborn.table_info("ev").layout.state() == final
    recorder = _Recorder(reborn)
    cluster, seen = reborn, 0
    check()
    reborn.close()
    twin.close()


def test_put_racing_a_migration_handoff_reroutes_without_a_failover():
    """A put routed to the leader just before a migration moves the
    partition off it: the write lands on the new leader, and the old
    one — healthy, merely no longer a replica — is not failed over."""
    cluster = make_cluster(tablets=3, partitions=1, replicas=2)
    for k in range(10):
        cluster.put("ev", ("user-0", 1_000 + k, float(k)))
    assert cluster.leader_of("ev", 0).name == "tablet-0"
    partition_lock = cluster.partition_lock
    moved = []

    def racing_lock(table_name, partition_id):
        # The put has routed; the migration completes before it writes.
        cluster.partition_lock = partition_lock
        moved.append(ShardMigrator(cluster).migrate(
            "ev", 0, "tablet-0", "tablet-2"))
        return partition_lock(table_name, partition_id)
    cluster.partition_lock = racing_lock

    offset = cluster.put("ev", ("user-0", 5_000, 9.0))
    assert moved[0].took_leadership
    assert offset == 10
    assert cluster.leader_of("ev", 0).name == "tablet-2"
    shard = cluster.tablets["tablet-2"].shard("ev", 0)
    assert shard.applied_offset == offset
    assert shard.store.last_join_lookup(("uid",), "user-0")[0] == 5_000
    assert all(tablet.alive for tablet in cluster.tablets.values())
    assert cluster.failovers == 0
    cluster.close()


def test_rebalancer_skips_a_leaderless_partition():
    cluster = make_cluster(tablets=3, partitions=3, replicas=1)
    for uid in range(30):
        cluster.put("ev", (f"user-{uid}", 1_000 + uid, float(uid)))
    FaultInjector(cluster).kill("tablet-0")
    rebalancer = Rebalancer(cluster)
    # The dead leader is still named (no failover ran yet), then gone.
    for _ in range(2):
        assert rebalancer.plan() == []
        assert rebalancer.run_once() == []
        cluster.handle_failure("tablet-0")
    assert cluster.table_info("ev").layout.leaders[0] is None
    cluster.close()


def test_a_layout_is_never_changed_in_place():
    layout = Layout.initial(["a", "b", "c"], partitions=2, replicas=2)
    with pytest.raises(TypeError):
        layout.placement[0] = ("c",)
    with pytest.raises(TypeError):
        layout.leaders[0] = "c"
    moved = layout.moved(0, "a", "c")
    assert layout.placement[0] == ("a", "b") and layout.leaders[0] == "a"
    assert moved.placement[0] == ("c", "b") and moved.leaders[0] == "c"
    assert moved.epoch == layout.epoch + 1
    assert layout.led({0: "a"}) is layout  # no change, no new epoch
