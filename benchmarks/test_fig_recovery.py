"""Crash-recovery time — snapshot + binlog-tail vs full replay.

The paper's durability design (Section 5 / 7.3) exists to bound
recovery time: a restarted tablet loads its newest snapshot and replays
only the binlog tail past the snapshot's pinned offset, instead of the
whole log.  This figure measures that trade on the simulated cluster:

* **full-replay recovery** — no snapshot was ever taken; the wiped
  tablet rebuilds every row from the durable binlog;
* **snapshot + tail recovery** — a snapshot covers most of the log, so
  restart loads the image and replays only the short tail.

Both paths must lose no acknowledged write (the recovered replica is
compared row-for-row against a healthy peer).  The shape assertion is
that the snapshot path replays a small fraction of the entries the
full-replay path does; recovery wall time for both lands in
``BENCH_online.json`` for regression tracking.
"""

from __future__ import annotations

import statistics

import pytest

from _util import record_bench
from repro.cluster import FaultInjector, NameServer, RetryPolicy, TabletServer
from repro.schema import IndexDef, Schema

ROWS = 3_000
TAIL_ROWS = 200
ROUNDS = 3

FAST = RetryPolicy(attempts=2, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=1.0, rpc_timeout_ms=20.0)


def build_cluster(data_dir):
    schema = Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
    cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)],
                         retry_policy=FAST, data_dir=str(data_dir))
    cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                         partitions=2, replicas=2)
    return cluster


def load(cluster, start, count):
    for i in range(start, start + count):
        cluster.put("t", (i % 31, i, float(i % 97)))


def crash_rounds(cluster, faults, rounds):
    """Crash/restart ``rounds`` leaders; returns their recovery reports."""
    reports = []
    for round_index in range(rounds):
        victim = cluster.leader_of("t", round_index % 2).name
        report = faults.crash_restart(victim)
        # Zero acknowledged-write loss: every shard matches a peer.
        tablet = cluster.tablets[victim]
        for shard in tablet.shards():
            peer_name = next(
                name for name in cluster.tables["t"].assignment[
                    shard.partition_id] if name != victim)
            peer = cluster.tablets[peer_name].shard(
                "t", shard.partition_id)
            assert sorted(shard.store.rows()) == sorted(peer.store.rows())
        reports.append(report)
    return reports


@pytest.mark.benchmark(group="fig_recovery")
def test_snapshot_bounds_recovery_replay(tmp_path):
    # Full-replay baseline: durable binlog only, never snapshotted.
    full = build_cluster(tmp_path / "full")
    full_faults = FaultInjector(full)
    load(full, 0, ROWS + TAIL_ROWS)
    full_reports = crash_rounds(full, full_faults, ROUNDS)

    # Snapshot + tail: image covers ROWS, tail is TAIL_ROWS long.
    snap = build_cluster(tmp_path / "snap")
    snap_faults = FaultInjector(snap)
    load(snap, 0, ROWS)
    snap.snapshot("t")
    load(snap, ROWS, TAIL_ROWS)
    snap_reports = crash_rounds(snap, snap_faults, ROUNDS)

    full_replayed = statistics.median(
        r.replayed_entries for r in full_reports)
    snap_replayed = statistics.median(
        r.replayed_entries for r in snap_reports)
    full_ms = statistics.median(r.seconds for r in full_reports) * 1_000.0
    snap_ms = statistics.median(r.seconds for r in snap_reports) * 1_000.0
    snap_rows = statistics.median(
        r.snapshot_rows for r in snap_reports)

    print(f"\nrecovery: full replay {full_replayed:.0f} entries "
          f"({full_ms:.1f} ms) vs snapshot+tail {snap_replayed:.0f} "
          f"entries + {snap_rows:.0f} image rows ({snap_ms:.1f} ms)")
    record_bench("fig_recovery",
                 full_replay_entries=full_replayed,
                 full_replay_ms=full_ms,
                 snapshot_tail_entries=snap_replayed,
                 snapshot_rows=snap_rows,
                 snapshot_tail_ms=snap_ms)

    # Snapshots exist to shrink the replay tail: the snapshot path must
    # replay well under half of what full replay does.
    assert snap_replayed > 0
    assert snap_replayed < full_replayed / 2
    for report in full_reports:
        assert report.snapshot_rows == 0
    for report in snap_reports:
        assert report.snapshot_rows > 0
