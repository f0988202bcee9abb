"""Tablet servers: the storage/serving nodes of the simulated cluster.

Production OpenMLDB shards each table into partitions hosted by tablet
servers, with per-partition replica groups; ZooKeeper coordinates
membership and the nameserver assigns leadership.  This in-process
simulation keeps the same structure — shards, replicas, heartbeat
liveness, per-tablet memory governance — so cluster behaviours
(failover, replica reads, memory isolation per Section 8.2) are testable
without a network.  Which replica leads is not the tablet's to know: it
is the table's :class:`~repro.cluster.layout.Layout`.

Every serving method passes through one RPC guard: a dead tablet raises
:class:`~repro.errors.StorageError`, and an attached
:class:`~repro.cluster.faults.FaultInjector` can turn the call into a
timeout (partitioned tablet) or delay it (slow tablet) against the
caller's per-RPC timeout.  Replication applies binlog entries through
:meth:`TabletServer.replicate`, which enforces offset contiguity — a
follower never silently skips an entry, so ``applied_offset`` is always
the length of the prefix it truly holds (what leader election relies
on).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import DeadlineExceededError, StorageError
from ..memory.governor import MemoryGovernor
from ..obs import NULL_OBS, NULL_SPAN, Observability
from ..schema import IndexDef, Row, Schema
from ..serving.deadline import current_deadline
from ..storage.disk import DiskTable
from ..storage.memtable import MemTable
from ..storage.persist import Snapshot, SnapshotStore
from ..storage.skiplist import ColumnBlock

__all__ = ["Shard", "TabletServer"]


@dataclasses.dataclass
class Shard:
    """One partition replica of a table hosted on a tablet.

    ``applied_offset`` is the highest *contiguously* applied binlog
    offset — the replica holds exactly the entries
    ``0..applied_offset``.  ``new_store`` builds an empty store of the
    shard's engine: the first one, and the one a wipe starts over from.
    ``apply_lock`` makes a replicated entry's offset check and its apply
    one step, so a ``put``'s delivery and a failover's catch-up never
    both apply one offset.
    """

    table: str
    partition_id: int
    new_store: Callable[[], Union[MemTable, DiskTable]]
    store: Union[MemTable, DiskTable] = dataclasses.field(init=False)
    applied_offset: int = -1
    apply_lock: threading.Lock = dataclasses.field(
        init=False, repr=False, compare=False,
        default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self.store = self.new_store()


class TabletServer:
    """One simulated tablet server.

    Args:
        name: tablet id (e.g. ``"tablet-0"``).
        max_memory_mb: per-tablet write limit (Section 8.2).
        obs: observability handle; RPC counters are labelled
            ``tablet=<name>`` so per-node series merge cleanly.
    """

    def __init__(self, name: str,
                 max_memory_mb: Optional[int] = None,
                 obs: Optional[Observability] = None) -> None:
        self.name = name
        self.governor = MemoryGovernor(name, max_memory_mb=max_memory_mb)
        self._shards: Dict[Tuple[str, int], Shard] = {}
        self._lock = threading.Lock()
        self.alive = True
        self.faults = None  # set via NameServer.attach_faults
        #: durable snapshot directory (the nameserver sets one per
        #: tablet when built with ``data_dir``)
        self.snapshots: Optional[SnapshotStore] = None
        self.bind_obs(obs or NULL_OBS)

    def bind_obs(self, obs: Observability) -> None:
        """(Re)attach observability — the nameserver calls this on join."""
        self._obs = obs
        metrics = obs.registry.labels(tablet=self.name)
        self._m_writes = metrics.counter("tablet.rpc.writes")
        self._m_reads = metrics.counter("tablet.rpc.reads")
        self._m_scans = metrics.counter("tablet.rpc.scans")
        self._m_replicated = metrics.counter("tablet.rpc.replicated")

    # ------------------------------------------------------------------
    # the simulated RPC guard

    def _check_serving(self, timeout_ms: Optional[float] = None) -> None:
        """Reject the call if this tablet is down, partitioned, or slow.

        The guard is deadline-aware: an RPC whose ambient request
        deadline (see :mod:`repro.serving.deadline`) already expired is
        rejected before any work — a server should not spend cycles on
        an answer the caller stopped waiting for.

        Raises:
            DeadlineExceededError: the request's deadline budget ran
                out before this RPC was dispatched.
            StorageError: the tablet crashed (is not ``alive``).
            RpcTimeoutError: an injected partition/slow fault exceeds the
                caller's per-RPC timeout.
        """
        deadline = current_deadline()
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError(
                f"{self.name}: request deadline expired before RPC "
                f"dispatch")
        if not self.alive:
            raise StorageError(f"{self.name} is down")
        if self.faults is not None:
            self.faults.on_rpc(self.name, timeout_ms)

    def heartbeat(self) -> bool:
        """One liveness probe: True iff the beat reaches the nameserver.

        A dead tablet sends nothing; a partitioned one sends beats that
        never arrive — both look identical to the monitor, which is the
        point: failover keys off *silence*, not cause of death.
        """
        if not self.alive:
            return False
        if self.faults is not None and not self.faults.heartbeat_ok(
                self.name):
            return False
        return True

    # ------------------------------------------------------------------
    # shard hosting

    def host_shard(self, table: str, partition_id: int, schema: Schema,
                   indexes: Sequence[IndexDef], storage: str = "memory",
                   flush_threshold: int = 4096,
                   events: Optional[Callable[[str], None]] = None) -> Shard:
        """Host one partition replica in a ``storage`` engine store
        (``"memory"`` or ``"disk"``) sending its storage events (TTL
        evictions, explicit flushes and compactions) to ``events(text)``."""
        def new_store() -> Union[MemTable, DiskTable]:
            if storage == "memory":
                return MemTable(table, schema, indexes, obs=self._obs,
                                event_log=events)
            return DiskTable(table, schema, indexes,
                             flush_threshold=flush_threshold, obs=self._obs,
                             event_log=events)

        key = (table, partition_id)
        with self._lock:
            if key in self._shards:
                raise StorageError(
                    f"{self.name} already hosts {table}[{partition_id}]")
            shard = Shard(table=table, partition_id=partition_id,
                          new_store=new_store)
            self._shards[key] = shard
            return shard

    def drop_shard(self, table: str, partition_id: int) -> Shard:
        """Stop hosting a shard, returning the memory it held.

        Raises:
            StorageError: if the shard is not hosted here (e.g. a
                concurrent drop won the race).
        """
        key = (table, partition_id)
        with self._lock:
            try:
                shard = self._shards.pop(key)
            except KeyError:
                raise StorageError(
                    f"{self.name} does not host {table}[{partition_id}]"
                ) from None
        self.governor.release(shard.store.memory_bytes)
        return shard

    def install_shard_image(self, table: str, partition_id: int,
                            image: Snapshot) -> int:
        """Bulk-load a snapshot image into a freshly hosted shard.

        A restore's and the migration transfer's bulk phase: decode each
        snapshot payload through the shard codec, charge the memory
        governor, and resume the shard at the image's pinned
        ``applied_offset`` so the binlog tail replay starts exactly
        where the image ends.  The store's storage events (the
        manifest's ``events``) re-apply at the row positions they landed
        on.  Returns rows installed.

        Raises:
            StorageError: the tablet is down, the shard is not hosted,
                or the shard already applied entries (an image may only
                land on a fresh shard — anything else would double-apply
                rows the chase will replay).
        """
        if not self.alive:
            raise StorageError(f"{self.name} is down")
        shard = self.shard(table, partition_id)
        if shard.applied_offset != -1:
            raise StorageError(
                f"{self.name}: {table}[{partition_id}] already applied "
                f"offset {shard.applied_offset}; images install on "
                f"fresh shards only")
        store = shard.store
        codec = store.codec
        due: Dict[int, List[str]] = {}
        for position, event in image.manifest.get("events", ()):
            due.setdefault(position, []).append(event)
        for position, payload in enumerate(image.rows):
            for event in due.pop(position, ()):
                store.apply_event(event)
            size = len(payload)
            self.governor.charge(size)
            store.insert(codec.decode(payload), size)
        for event in due.pop(len(image.rows), ()):
            store.apply_event(event)
        shard.applied_offset = image.applied_offset
        return len(image.rows)

    def shard(self, table: str, partition_id: int) -> Shard:
        try:
            return self._shards[(table, partition_id)]
        except KeyError:
            raise StorageError(
                f"{self.name} does not host {table}[{partition_id}]"
            ) from None

    def has_shard(self, table: str, partition_id: int) -> bool:
        return (table, partition_id) in self._shards

    def shards(self) -> Iterator[Shard]:
        return iter(list(self._shards.values()))

    # ------------------------------------------------------------------
    # write path

    def write(self, table: str, partition_id: int, row: Row,
              offset: int, timeout_ms: Optional[float] = None) -> None:
        """Apply one row to a hosted shard (the leader write path).

        Raises:
            StorageError: if the tablet is down.
            RpcTimeoutError: if a fault makes the RPC exceed its timeout.
            MemoryLimitExceededError: past the tablet's memory limit
                (reads keep working — the isolation contract).
        """
        self._check_serving(timeout_ms)
        self._store(self.shard(table, partition_id), row, offset)
        self._m_writes.inc()

    def replicate(self, table: str, partition_id: int, row: Row,
                  offset: int, timeout_ms: Optional[float] = None) -> int:
        """Apply one replicated binlog entry; returns ``applied_offset``.

        Delivery is idempotent (a duplicate offset is a no-op) and
        contiguous: an entry past ``applied_offset + 1`` is rejected, so
        a dropped entry shows up as lag rather than a silent gap — the
        catch-up path then replays the missing suffix in order.  The
        check and the apply hold the shard's ``apply_lock``, so two
        deliveries of one offset apply it once.

        Raises:
            StorageError: tablet down, shard not hosted, or a replication
                gap (``offset > applied_offset + 1``).
            RpcTimeoutError: injected partition/slow fault.
            MemoryLimitExceededError: past the tablet's memory limit.
        """
        self._check_serving(timeout_ms)
        shard = self.shard(table, partition_id)
        with shard.apply_lock:
            if offset <= shard.applied_offset:
                return shard.applied_offset
            if offset != shard.applied_offset + 1:
                raise StorageError(
                    f"{self.name}: replication gap on "
                    f"{table}[{partition_id}] (offset {offset}, "
                    f"applied {shard.applied_offset})")
            self._store(shard, row, offset)
        self._m_replicated.inc()
        return shard.applied_offset

    def _store(self, shard: Shard, row: Row, offset: int) -> None:
        """Charge, insert and advance ``applied_offset`` for one row.

        The row arrives checked — the host validated it once at its
        boundary, and every replica stores that same tuple — so the
        store takes it as it is: handed the size, it checks nothing
        again.  The size charged is the one the store records, computed
        once; a row the store refuses hands its charge back.
        """
        store = shard.store
        size = store.codec.encoded_size(row)
        self.governor.charge(size)
        try:
            store.insert(row, size)
        except BaseException:
            self.governor.release(size)
            raise
        shard.applied_offset = offset

    # ------------------------------------------------------------------
    # serving-path reads (trace-context aware — the simulated RPC surface)

    def window_scan_blocks(self, table: str, partition_id: int,
                           keys: Sequence[str], ts_column: str,
                           key_value: Any,
                           start_ts: Optional[int] = None,
                           end_ts: Optional[int] = None,
                           limit: Optional[int] = None,
                           trace_ctx: Optional[Dict[str, int]] = None,
                           timeout_ms: Optional[float] = None
                           ) -> List[ColumnBlock]:
        """Scan one partition's window rows, resuming the caller's trace.

        Returns the store's newest-first
        :class:`~repro.storage.skiplist.ColumnBlock` s as they are (the
        store picks the index).  ``trace_ctx`` is what the nameserver's
        :meth:`Tracer.inject` produced — the same trace-context
        propagation a real RPC carries, which stitches the tablet-side
        ``window.scan`` span into the request trace; its ``rows`` tag is
        counted only when the span records.
        """
        self._check_serving(timeout_ms)
        self._m_scans.inc()
        store = self.shard(table, partition_id).store
        with self._obs.tracer.start_from(
                trace_ctx, "window.scan", tablet=self.name, table=table,
                partition=partition_id) as span:
            blocks = store.window_scan_blocks(
                keys, ts_column, key_value, start_ts=start_ts,
                end_ts=end_ts, limit=limit)
            if span is not NULL_SPAN:
                span.set_tag(rows=sum(map(len, blocks)))
        return blocks

    def last_join_lookup(self, table: str, partition_id: int,
                         keys: Sequence[str], key_value: Any,
                         ts_column: Optional[str] = None,
                         trace_ctx: Optional[Dict[str, int]] = None,
                         timeout_ms: Optional[float] = None
                         ) -> Optional[Tuple[int, Row]]:
        """LAST JOIN point lookup on one partition, trace-context aware."""
        self._check_serving(timeout_ms)
        self._m_reads.inc()
        store = self.shard(table, partition_id).store
        with self._obs.tracer.start_from(
                trace_ctx, "index.seek", tablet=self.name, table=table,
                partition=partition_id) as span:
            hit = store.last_join_lookup(keys, key_value,
                                         ts_column=ts_column)
            span.set_tag(hit=hit is not None)
        return hit

    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Simulate a crash: the tablet stops serving."""
        self.alive = False

    def recover(self) -> None:
        """Come back after a crash.  Rejoining a cluster goes through
        :meth:`NameServer.reintegrate` (stores kept) or
        :meth:`NameServer.restart_tablet` (memory lost), so hosted shards
        catch up."""
        self.alive = True

    # ------------------------------------------------------------------
    # durability: snapshots and crash-restart

    def _snapshot_name(self, table: str, partition_id: int) -> str:
        return f"{table}-p{partition_id}"

    def snapshot_shard(self, table: str, partition_id: int) -> int:
        """Write one shard's snapshot image; returns rows written.

        The image pins the shard's rows to its ``applied_offset``, so
        restart replays only the binlog frames past it.  The image
        carries the store's manifest: its storage events.
        """
        if self.snapshots is None:
            raise StorageError(f"{self.name} has no snapshot store")
        shard = self.shard(table, partition_id)
        store = shard.store
        codec = store.codec
        payloads = [codec.encode(row) for row in store.rows()]
        self.snapshots.write(
            self._snapshot_name(table, partition_id), payloads,
            shard.applied_offset,
            manifest=store.manifest())
        return len(payloads)

    def load_snapshot(self, table: str, partition_id: int) -> int:
        """Install a fresh shard's newest intact snapshot image, if any
        (:meth:`install_shard_image`); returns rows loaded."""
        if self.snapshots is None:
            return 0
        snapshot = self.snapshots.load_latest(
            self._snapshot_name(table, partition_id))
        return 0 if snapshot is None else self.install_shard_image(
            table, partition_id, snapshot)

    def wipe(self) -> None:
        """Lose all in-memory state — the process-death half of a crash.

        Every shard keeps its hosting slot but drops to an empty store
        at ``applied_offset = -1``; :meth:`NameServer.restart_tablet`
        restores each from its snapshot and the binlog tail.
        """
        with self._lock:
            for shard in self._shards.values():
                self.governor.release(shard.store.memory_bytes)
                shard.store = shard.new_store()
                shard.applied_offset = -1
