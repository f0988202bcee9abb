"""Live shard migration: move a partition replica between tablets.

The transfer protocol is the PR 5 crash-recovery machinery reused
verbatim — a migration *is* a recovery onto a different node:

1. **bulk phase** — if the source tablet has a
   :class:`~repro.storage.persist.SnapshotStore`, write a fresh shard
   image (pinned to the shard's ``applied_offset`` under the partition
   lock) and install it into the target's empty shard; otherwise the
   binlog replays from offset 0 (the binlog holds every acknowledged
   write, so a snapshot is an optimisation, never a correctness
   requirement);
2. **chase phase** — repeatedly replay the partition binlog tail into
   the target through :func:`~repro.cluster.failover.catch_up` (the
   same contiguous ``replicate`` path followers and promotions use)
   until the target's lag drops under ``handoff_threshold`` entries;
3. **handoff** — take the partition write lock (a brief write pause),
   replay the final sliver, swap in the next layout — the target in the
   source's place in the replica group, and in its place as leader if
   the source led — and release.
   Acknowledged writes are in the binlog and the target applied the
   full prefix before the swap, so zero acknowledged writes are lost;
4. **cleanup** — drop the source's shard outside the lock.

A failure in phases 1–2 (target died, source vanished) unwinds the
target's half-built shard and leaves the replica group untouched; the
cluster keeps serving as if the migration was never attempted.  A
*source* failure never blocks the move — the binlog, not the source,
is the transfer source of truth — so migration doubles as the repair
path for a dead replica's data.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional, TYPE_CHECKING

from ..errors import StorageError
from ..obs import Observability

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..cluster.nameserver import NameServer

__all__ = ["MigrationReport", "ShardMigrator"]


@dataclasses.dataclass
class MigrationReport:
    """What one completed migration did."""

    table: str
    partition_id: int
    source: str
    target: str
    snapshot_rows: int = 0
    chased_entries: int = 0
    took_leadership: bool = False
    handoff_ms: float = 0.0
    seconds: float = 0.0


class ShardMigrator:
    """Online shard mover over one cluster.

    Args:
        cluster: the :class:`~repro.cluster.NameServer` to operate on.
        handoff_threshold: maximum binlog-entry lag the target may
            still have when the final write-pause handoff begins; the
            chase phase loops until under it, keeping the pause short
            and bounded regardless of shard size.
        obs: observability handle; defaults to the cluster's.
    """

    def __init__(self, cluster: "NameServer",
                 handoff_threshold: int = 64,
                 obs: Optional[Observability] = None) -> None:
        if handoff_threshold < 1:
            raise StorageError("handoff_threshold must be >= 1")
        self._cluster = cluster
        self._threshold = handoff_threshold
        self._obs = obs if obs is not None else cluster.obs
        registry = self._obs.registry
        self._m_moves = registry.counter("cluster.migration.moves")
        self._m_entries = registry.counter("cluster.migration.moved_entries")
        self._m_snapshot_rows = registry.counter(
            "cluster.migration.snapshot_rows")
        self._m_failed = registry.counter("cluster.migration.failed")
        self._h_handoff = registry.histogram("cluster.migration.handoff.ms")

    def migrate(self, table_name: str, partition_id: int,
                source: str, target: str,
                max_chase_rounds: int = 64) -> MigrationReport:
        """Move one partition replica from ``source`` to ``target``.

        Writes and reads keep flowing throughout; only the final
        handoff pauses writes to the one partition, for the time it
        takes to replay at most ``handoff_threshold`` entries and swap
        the replica group.  Raises :class:`StorageError` (after
        unwinding the target) if the target cannot be built or the
        chase never converges.
        """
        from ..cluster.failover import catch_up

        ns = self._cluster
        table = ns.table_info(table_name)
        # The move the handoff will swap in must be valid now.
        table.layout.moved(partition_id, source, target)
        source_tablet = ns.tablets[source]
        target_tablet = ns.tablets[target]
        if not target_tablet.alive:
            raise StorageError(f"migration target {target} is down")
        binlog = table.binlogs[partition_id]
        report = MigrationReport(table=table_name,
                                 partition_id=partition_id,
                                 source=source, target=target)
        start = time.perf_counter()
        with self._obs.tracer.span("ctl.migrate", table=table_name,
                                   partition=partition_id, source=source,
                                   target=target) as span:
            ns.host_replica(target_tablet, table, partition_id)
            try:
                report.snapshot_rows = self._bulk_load(
                    ns, table_name, partition_id, source_tablet,
                    target_tablet)
                # Chase the binlog tail until the remaining lag fits
                # inside the handoff pause.
                for _ in range(max_chase_rounds):
                    report.chased_entries += catch_up(
                        target_tablet, table_name, partition_id, binlog)
                    lag = binlog.last_offset - target_tablet.shard(
                        table_name, partition_id).applied_offset
                    if lag <= self._threshold:
                        break
                else:
                    raise StorageError(
                        f"migration of {table_name}[{partition_id}] "
                        f"never converged: writes outpace the chase")
            except StorageError:
                self._m_failed.inc()
                self._unwind_target(target_tablet, table_name,
                                    partition_id)
                raise
            report.handoff_ms, report.took_leadership = self._handoff(
                ns, table_name, partition_id, source, target, report)
            span.set_tag(chased=report.chased_entries,
                         snapshot_rows=report.snapshot_rows,
                         leader=report.took_leadership)
        # Cleanup outside the lock: in-flight reads that already routed
        # to the source finish against its still-hosted shard first.
        if source_tablet.alive \
                and source_tablet.has_shard(table_name, partition_id):
            source_tablet.drop_shard(table_name, partition_id)
        report.seconds = time.perf_counter() - start
        self._m_moves.inc()
        self._m_entries.inc(report.chased_entries)
        self._m_snapshot_rows.inc(report.snapshot_rows)
        self._h_handoff.observe(report.handoff_ms)
        return report

    # ------------------------------------------------------------------

    def _bulk_load(self, ns: "NameServer", table_name: str,
                   partition_id: int, source_tablet, target_tablet) -> int:
        """Phase 1: ship a snapshot image if the source can produce one.

        Returns rows installed from the image (0 when the binlog replay
        covers everything).  Snapshot failures are not fatal — the
        chase phase replays from offset 0 instead.
        """
        if not source_tablet.alive or source_tablet.snapshots is None \
                or not source_tablet.has_shard(table_name, partition_id):
            return 0
        with ns.partition_lock(table_name, partition_id):
            # Pin a fresh image to the source's applied offset; the
            # partition lock keeps the offset consistent with the rows.
            try:
                source_tablet.snapshot_shard(table_name, partition_id)
            except StorageError:
                return 0
        image = source_tablet.snapshots.load_latest(
            f"{table_name}-p{partition_id}")
        if image is None:
            return 0
        return target_tablet.install_shard_image(table_name, partition_id,
                                                 image)

    def _handoff(self, ns: "NameServer", table_name: str,
                 partition_id: int, source: str, target: str,
                 report: MigrationReport):
        """Phase 3: final catch-up and layout swap, writes paused."""
        from ..cluster.failover import catch_up

        target_tablet = ns.tablets[target]
        binlog = ns.table_info(table_name).binlogs[partition_id]
        handoff_start = time.perf_counter()
        with ns.partition_lock(table_name, partition_id):
            try:
                report.chased_entries += catch_up(
                    target_tablet, table_name, partition_id, binlog)
                # A racing split may have retired the partition, or a
                # racing migration moved the source away: the move is no
                # longer valid, so the swap fails typed and the target
                # unwinds.  A source that died still leading (not yet
                # failed over) hands over too, or the swap would leave
                # no leader.
                layout = ns.update_layout(
                    table_name, lambda current: current.moved(
                        partition_id, source, target))
            except StorageError:
                self._m_failed.inc()
                self._unwind_target(target_tablet, table_name,
                                    partition_id)
                raise
        return ((time.perf_counter() - handoff_start) * 1_000.0,
                layout.leaders.get(partition_id) == target)

    def _unwind_target(self, target_tablet, table_name: str,
                       partition_id: int) -> None:
        if target_tablet.alive \
                and target_tablet.has_shard(table_name, partition_id):
            try:
                target_tablet.drop_shard(table_name, partition_id)
            except StorageError:
                pass  # already gone: unwind is best-effort
