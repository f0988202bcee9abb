"""Nameserver: placement, leadership, replication, failover, routing.

Stands in for OpenMLDB's nameserver + ZooKeeper pair (Section 3.1's
high-availability layer).  The control plane and the data plane meet
in one value per table, its :class:`~repro.cluster.layout.Layout`:

* **layout** — routing directory, replica placement, leader per
  partition, retired ids and an epoch, replaced whole: create, split,
  migration, failover, reintegration and restart each build the next
  value and swap it in under one lock (:meth:`NameServer.update_layout`),
  persisted under ``data_dir`` and shown as the
  ``cluster.layout.epoch{table}`` gauge;
* **routing** — every ``put`` and every read is one routed call
  (:meth:`NameServer._routed`): it reads one layout, hashes the key to
  its partition and calls that partition's leader.  A layout that moved
  underneath the call is re-read at once; a timeout or a failed tablet
  fails the tablet over and retries under a
  :class:`~repro.cluster.failover.RetryPolicy`;
* **replication** — each partition owns a
  :class:`~repro.online.binlog.Replicator` binlog.  A ``put`` is
  acknowledged once the leader applied it, the entry is in the binlog
  and every reachable follower was handed it, inline; a follower that
  missed entries (down, partitioned, delivery dropped) shows as the
  ``cluster.replication.lag`` gauge and is caught up from the binlog.
  The cluster starts no thread;
* **failover** — a tablet that crashes, partitions away, or misses
  heartbeats past the timeout is declared dead; for every partition it
  led, the most caught-up live follower replays the binlog suffix it is
  missing and takes over.  Because acknowledged writes are always in
  the binlog, a leadership change never loses one.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import threading
import time
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)

from ..core.deployment import DeploymentHost
from ..ctlplane.split import HashRouter, SplitPlan, stable_hash
from ..errors import (DeadlineExceededError, IndexNotFoundError,
                      MemoryLimitExceededError, RpcTimeoutError,
                      SchemaError, ShardMovedError, StorageError,
                      TableExistsError, TableNotFoundError)
from ..obs import NULL_OBS, Observability
from ..online.binlog import Replicator
from ..online.engine import OnlineEngine
from ..schema import IndexDef, Row, Schema
from ..serving.deadline import current_deadline
from ..sql.compiler import CompilationCache, CompiledQuery
from ..storage.encoding import RowCodec
from ..storage.persist import (FileBinlog, RecoveryReport, SnapshotStore)
from .failover import HeartbeatMonitor, RetryPolicy, catch_up, elect_leader
from .layout import Layout
from .tablet import TabletServer
from .view import ClusterTableView

__all__ = ["ClusterTable", "NameServer"]

# How many newer layouts one routed call follows before it gives up.
# Layouts only move forward; the bound exists so a programming error
# cannot spin forever.
_LAYOUTS_FOLLOWED = 8


@dataclasses.dataclass
class ClusterTable:
    """Placement metadata for one distributed table."""

    name: str
    schema: Schema
    indexes: Tuple[IndexDef, ...]
    # partition id → that partition's binlog (the replication source of
    # truth: an acknowledged write is always in here)
    binlogs: Dict[int, Replicator]
    # routing, placement and leaders; swapped whole, never edited
    layout: Layout
    # every replica's store engine ("memory" / "disk") and a disk
    # store's flush threshold
    storage: str = "memory"
    flush_threshold: int = 4096

    def __post_init__(self) -> None:
        self.codec = RowCodec(self.schema)
        #: the partition key's position in a row: the first index's
        #: first key column
        self.key_position = self.schema.position(
            self.indexes[0].key_columns[0])

    @property
    def assignment(self) -> Mapping[int, Tuple[str, ...]]:
        """Partition id → its replica tablets (read-only)."""
        return self.layout.placement

    @property
    def router(self) -> HashRouter:
        """Key hash → live partition id."""
        return self.layout.router

    @property
    def retired(self) -> FrozenSet[int]:
        """Partition ids a split retired."""
        return self.layout.retired


class NameServer(DeploymentHost):
    """Coordinates a set of tablet servers.

    Args:
        tablets: the cluster's tablet servers.
        obs: shared observability handle (one registry/tracer across
            nameserver and tablets, so traces stitch and series merge).
        retry_policy: bounded-retry/backoff/timeout policy for every
            routed RPC.
        data_dir: root directory for durability.  When set, every
            partition binlog is backed by a
            :class:`~repro.storage.persist.FileBinlog` under
            ``<data_dir>/binlog/<table>/p<id>/`` and every tablet gets a
            :class:`~repro.storage.persist.SnapshotStore` under
            ``<data_dir>/tablets/<name>/`` — the substrate
            :meth:`snapshot` and :meth:`restart_tablet` recover from.
            A pre-existing directory is restored as a restart is: each
            shard loads its newest snapshot, then replays the binlog
            tail past it.  Each shard keeps its two newest snapshots.

    A dead tablet is always failed over; :meth:`check_liveness` declares
    one dead after three seconds without a heartbeat.
    """

    def __init__(self, tablets: Sequence[TabletServer],
                 obs: Optional[Observability] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 data_dir: Optional[str] = None) -> None:
        if not tablets:
            raise StorageError("cluster needs at least one tablet")
        self.tablets: Dict[str, TabletServer] = {
            tablet.name: tablet for tablet in tablets}
        self.tables: Dict[str, ClusterTable] = {}
        self.failovers = 0
        self.retry_policy = retry_policy or RetryPolicy()
        self.heartbeats = HeartbeatMonitor()
        self.faults = None  # set via attach_faults (FaultInjector)
        self._obs = obs or NULL_OBS
        self.data_dir = data_dir
        for tablet in self.tablets.values():
            tablet.bind_obs(self._obs)
            if data_dir is not None:
                tablet.snapshots = SnapshotStore(
                    os.path.join(data_dir, "tablets", tablet.name),
                    obs=self._obs)
        registry = self._obs.registry
        self._m_puts = registry.counter("ns.rpc.puts")
        self._m_gets = registry.counter("ns.rpc.gets")
        self._m_routes = registry.counter("ns.rpc.routes")
        self._m_failovers = registry.counter("ns.failovers")
        self._m_retries = registry.counter("ns.rpc.retries")
        self._m_timeouts = registry.counter("ns.rpc.timeouts")
        self._m_replayed = registry.counter("cluster.failover.replayed")
        self._m_repl_errors = registry.counter(
            "cluster.replication.errors")
        self._m_catchups = registry.counter(
            "cluster.replication.catchups")
        self._m_restarts = registry.counter("cluster.recovery.restarts")
        self._m_recovery_replayed = registry.counter(
            "cluster.recovery.replayed")
        self._m_snapshot_rows = registry.counter(
            "cluster.recovery.snapshot_rows")
        self._h_recovery = registry.histogram("cluster.recovery.ms")
        self._lag_gauges: Dict[Tuple[str, int, str], Any] = {}
        self._part_locks: Dict[Tuple[str, int], threading.Lock] = {}
        # Serializes every layout change (and the replica work each one
        # rests on); no read or write takes it.
        self._control_lock = threading.RLock()
        self._views: Dict[str, ClusterTableView] = {}
        self._tenants: Optional[Any] = None  # TenantRegistry
        # Deploy/request/undeploy come from DeploymentHost: the cluster
        # serves routed table views.
        self._host_deployments(
            self._views, OnlineEngine(self._views, obs=self._obs),
            CompilationCache(obs=self._obs), self._obs,
            latency_series="cluster.request.ms",
            requests_series="ns.requests")
        self._closed = False

    def attach_faults(self, injector: Any) -> None:
        """Wire a :class:`FaultInjector` into every RPC and replication
        hook (called by the injector's constructor)."""
        self.faults = injector
        for tablet in self.tablets.values():
            tablet.faults = injector

    # ------------------------------------------------------------------
    # DDL / placement

    def create_table(self, name: str, schema: Schema,
                     indexes: Sequence[IndexDef], partitions: int = 4,
                     replicas: int = 2, storage: str = "memory",
                     flush_threshold: int = 4096) -> ClusterTable:
        """Place a table's partitions and host every replica in a
        ``storage`` engine store (``"memory"`` or ``"disk"``); over a
        ``data_dir`` that holds the table, each is restored."""
        if name in self.tables:
            raise TableExistsError(name)
        if partitions < 1:
            raise StorageError(
                f"partitions must be >= 1, got {partitions}")
        if replicas < 1 or replicas > len(self.tablets):
            raise StorageError(
                f"replicas={replicas} must be between 1 and tablet "
                f"count {len(self.tablets)}")
        if storage not in ("memory", "disk"):
            raise SchemaError(f"unknown storage engine {storage!r}")
        layout = None if self.data_dir is None \
            else Layout.load(self._layout_path(name))
        if layout is None:
            layout = Layout.initial(list(self.tablets), partitions,
                                    replicas)
        table = ClusterTable(
            name=name, schema=schema, indexes=tuple(indexes),
            binlogs={partition_id: self._build_binlog(name, schema,
                                                      partition_id)
                     for partition_id in sorted(layout.placement)},
            layout=layout, storage=storage,
            flush_threshold=flush_threshold)
        for partition_id, chosen in layout.placement.items():
            for tablet_name in chosen:
                tablet = self.tablets.get(tablet_name)
                if tablet is None:
                    raise StorageError(
                        f"layout for {name!r} names unknown tablet "
                        f"{tablet_name!r}")
                self.host_replica(tablet, table, partition_id)
                self._restore_shard(tablet, table, partition_id)
            self.partition_lock(name, partition_id)
        self.tables[name] = table
        self._views[name] = ClusterTableView(self, table)
        self._install(table, layout)
        return table

    def host_replica(self, tablet: TabletServer, table: ClusterTable,
                     partition_id: int) -> None:
        """Host a replica of ``table``'s partition on ``tablet``: a store
        of the table's engine, its storage events on the partition WAL."""
        binlog = table.binlogs[partition_id]
        tablet.host_shard(
            table.name, partition_id, table.schema, table.indexes,
            storage=table.storage, flush_threshold=table.flush_threshold,
            events=binlog.log_control if binlog.wal is not None else None)

    def _build_binlog(self, name: str, schema: Schema,
                      partition_id: int,
                      fresh: bool = False) -> Replicator:
        """One partition's replicator; file-backed when durable.

        With ``data_dir`` set, the partition binlog appends through a
        :class:`FileBinlog`; a pre-existing WAL (the cluster was rebuilt
        over an old directory) is restored into the in-memory entry
        list, so the acknowledged prefix survives the nameserver too.
        ``fresh=True`` (a partition newly minted by a split) discards
        any stale WAL left by an earlier aborted topology change first.
        """
        if self.data_dir is None:
            return Replicator(name)
        directory = os.path.join(self.data_dir, "binlog", name,
                                 f"p{partition_id}")
        if fresh and os.path.isdir(directory):
            shutil.rmtree(directory)
        replicator = Replicator(name, RowCodec(schema),
                                FileBinlog(directory, obs=self._obs))
        replicator.restore()
        return replicator

    def _restore_shard(self, tablet: TabletServer, table: ClusterTable,
                       partition_id: int) -> Tuple[int, int]:
        """The one restore body, for a rebuild over ``data_dir`` and
        for :meth:`restart_tablet`: the fresh shard loads its newest
        snapshot, then the binlog past it replays — the *durable* WAL
        frames when there is a WAL (rows through
        :meth:`TabletServer.replicate`, storage events — evictions,
        flushes, compactions — in stream order), else the in-memory entries.
        Returns ``(snapshot rows, replayed entries)``."""
        loaded = tablet.load_snapshot(table.name, partition_id)
        binlog = table.binlogs[partition_id]
        if binlog.wal is None:
            return loaded, catch_up(tablet, table.name, partition_id,
                                    binlog)
        shard = tablet.shard(table.name, partition_id)
        applied, replayed = shard.applied_offset, 0
        # From the image's last row: a storage event logged after it
        # carries its offset (re-applying one the image holds is a no-op).
        for frame in binlog.wal.replay(applied):
            if not frame.is_row:
                shard.store.apply_event(frame.control_text())
            elif frame.offset > applied:
                tablet.replicate(table.name, partition_id,
                                 table.codec.decode(frame.payload),
                                 frame.offset)
                replayed += 1
        return loaded, replayed

    # ------------------------------------------------------------------
    # routing

    def partition_for(self, table_name: str, key_value: Any) -> int:
        """Key → live partition id, via the table's routing directory.

        Hashing is :func:`~repro.ctlplane.split.stable_hash` — process-
        and PYTHONHASHSEED-independent — so a durable cluster restarted
        over its ``data_dir`` routes every key exactly as the process
        that wrote it did.  The router maps the hash through the
        linear-hashing directory, which online splits replace.
        """
        return self._table(table_name).layout.router.route(
            stable_hash(key_value))

    def leader_of(self, table_name: str,
                  partition_id: int) -> TabletServer:
        """The current live leader, with *no* failover side effects."""
        table = self._table(table_name)
        layout = table.layout
        name = layout.leaders.get(partition_id)
        if name is None or not self.tablets[name].alive:
            raise self._no_leader(table, layout, partition_id)
        return self.tablets[name]

    @staticmethod
    def _no_leader(table: ClusterTable, layout: Layout,
                   partition_id: int) -> StorageError:
        """Why ``layout`` names no live leader for the partition."""
        if partition_id in layout.placement:
            return StorageError(
                f"no live leader for {table.name}[{partition_id}]")
        if partition_id in layout.retired:
            return ShardMovedError(
                f"{table.name}[{partition_id}] was retired by a split; "
                f"re-resolve the key")
        return StorageError(f"{table.name} has no partition {partition_id}")

    def _table(self, name: str) -> ClusterTable:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    # ------------------------------------------------------------------
    # control-plane hooks (repro.ctlplane)

    @property
    def obs(self) -> Observability:
        """The shared observability handle (control plane attaches
        its ``ctl.*`` series to the same registry)."""
        return self._obs

    def table_info(self, name: str) -> ClusterTable:
        """Public placement metadata accessor for the control plane."""
        return self._table(name)

    def partition_lock(self, table_name: str,
                       partition_id: int) -> threading.Lock:
        """The per-partition write lock (created on demand).

        Holding it pauses acknowledged writes to that partition — the
        split freeze and the migration handoff both serialize against
        the write path through it.
        """
        key = (table_name, partition_id)
        lock = self._part_locks.get(key)
        if lock is None:
            lock = self._part_locks.setdefault(key, threading.Lock())
        return lock

    def update_layout(self, table_name: str,
                      build: Callable[[Layout], Layout]) -> Layout:
        """Swap in ``build(current)`` as the table's next layout.

        The one way a layout changes: under the control-plane lock, so
        two operations never lose each other's change.  A build that
        returns the current value changes nothing and moves no epoch.
        Returns the layout now in force.
        """
        table = self._table(table_name)
        with self._control_lock:
            current = table.layout
            layout = build(current)
            if layout is not current:
                self._install(table, layout)
            return layout

    def _install(self, table: ClusterTable, layout: Layout) -> None:
        table.layout = layout
        self._obs.registry.gauge("cluster.layout.epoch",
                                 table=table.name).set(layout.epoch)
        if self.data_dir is not None:
            layout.save(self._layout_path(table.name))

    def register_partition(self, table_name: str, partition_id: int,
                           placement: Sequence[str],
                           leader: str) -> Replicator:
        """Bring a new (split-minted) partition online.

        Hosts the shard on every placement tablet, builds its binlog
        (file-backed when durable, discarding any stale WAL a previous
        aborted split left under the same id), and places it in the
        next layout.  The partition serves once the router maps keys to
        it — which happens later, at the split's commit.
        """
        table = self._table(table_name)
        with self._control_lock:
            layout = table.layout.placed(partition_id, placement, leader)
            binlog = self._build_binlog(table_name, table.schema,
                                        partition_id, fresh=True)
            table.binlogs[partition_id] = binlog
            for tablet_name in placement:
                self.host_replica(self.tablets[tablet_name], table,
                                  partition_id)
            self.partition_lock(table_name, partition_id)
            self._install(table, layout)
        return binlog

    def retire_partition(self, table_name: str, partition_id: int,
                         split: Optional[SplitPlan] = None) -> None:
        """Take a partition out of service: an aborted split child, or —
        with ``split`` — a parent whose keys the children take over in
        the same layout.

        Drops the shard from its replicas and closes (and, when durable,
        deletes) its binlog; the id stays retired, so stale routes
        raise :class:`ShardMovedError` instead of failing.  Idempotent.
        """
        table = self._table(table_name)
        with self._control_lock:
            placement = table.layout.placement.get(partition_id)
            self.update_layout(table_name, lambda layout: layout.retiring(
                partition_id, split))
        if placement is None:
            return
        binlog = table.binlogs.pop(partition_id, None)
        if binlog is not None:
            wal = binlog.wal
            binlog.close()
            if wal is not None and os.path.isdir(wal.directory):
                shutil.rmtree(wal.directory)
        for tablet_name in placement:
            tablet = self.tablets[tablet_name]
            if tablet.alive and tablet.has_shard(table_name,
                                                 partition_id):
                tablet.drop_shard(table_name, partition_id)

    def _layout_path(self, table_name: str) -> str:
        return os.path.join(self.data_dir, "layout",
                            f"{table_name}.json")

    def attach_tenants(self, registry: Any) -> None:
        """Enforce a :class:`~repro.ctlplane.TenantRegistry`'s memory
        budgets on the write path (``put(..., tenant=...)``)."""
        self._tenants = registry

    # ------------------------------------------------------------------
    # replication lag

    def _lag_gauge(self, table_name: str, partition_id: int,
                   tablet_name: str) -> Any:
        key = (table_name, partition_id, tablet_name)
        gauge = self._lag_gauges.get(key)
        if gauge is None:
            gauge = self._obs.registry.gauge(
                "cluster.replication.lag", table=table_name,
                partition=partition_id, tablet=tablet_name)
            self._lag_gauges[key] = gauge
        return gauge

    def replication_lag(self, table_name: str, partition_id: int,
                        tablet_name: str) -> int:
        """Entries the replica is missing vs the partition binlog."""
        table = self._table(table_name)
        shard = self.tablets[tablet_name].shard(table_name, partition_id)
        return table.binlogs[partition_id].last_offset \
            - shard.applied_offset

    # ------------------------------------------------------------------
    # data path

    def put(self, table_name: str, row: Row, tenant: str = "") -> int:
        """Write one row through the partition leader, replicating it.

        The partition key is the first index's first key column — the
        column every read routes by.  The write is acknowledged — and
        its partition-local offset returned — once the leader applied
        it, the entry is in the partition binlog and every reachable
        follower was handed it.
        It is one routed call (:meth:`_routed`): a dead or unreachable
        leader is failed over and the write retried, and a layout that
        moved (a split, a migration handoff, a failover) is re-resolved.

        ``tenant`` charges the row's encoded size against that tenant's
        memory budget (see :meth:`attach_tenants`); an over-budget
        tenant is shed with
        :class:`~repro.errors.TenantBudgetError` before anything is
        written, and a write that ultimately fails refunds its charge.

        Each step runs once: the row is validated here — the leader,
        every follower and the binlog entry all hold the tuple this
        check returns, and no store checks it again — its key is hashed
        here, and the partition comes from the layout the routed call
        hands in, the one the partition lock re-checks.
        """
        self._check_open()
        table = self._table(table_name)
        self._m_puts.inc()
        row = table.schema.validate_row(row)
        hashed = stable_hash(row[table.key_position])
        charged = 0
        if tenant and self._tenants is not None:
            charged = table.codec.encoded_size(row)
            self._tenants.charge(tenant, charged, table=table_name)
        try:
            return self._routed(
                table, hashed,
                lambda leader, partition_id, timeout_ms, layout:
                    self._put_on_leader(table, layout, partition_id,
                                        leader, row, timeout_ms))
        except BaseException:
            if charged:
                self._tenants.release(tenant, charged)
            raise

    def _put_on_leader(self, table: ClusterTable, layout: Layout,
                       partition_id: int, leader: TabletServer, row: Row,
                       timeout_ms: float) -> int:
        with self.partition_lock(table.name, partition_id):
            if table.layout.epoch != layout.epoch:
                # The layout moved between routing and the lock (a split
                # retired the partition, a handoff moved its leader):
                # redirect, don't write.
                raise ShardMovedError(
                    f"{table.name} layout moved past epoch "
                    f"{layout.epoch}; re-resolve the key")
            binlog = table.binlogs[partition_id]
            offset = binlog.last_offset + 1
            # Leader applies first: if it rejects (down, timeout, memory
            # limit) nothing reaches the binlog and nothing was
            # acknowledged.
            leader.write(table.name, partition_id, row, offset,
                         timeout_ms=timeout_ms)
            binlog.append_entry(table.name, row)
            self._replicate_entry(table, layout, partition_id, offset)
        return offset

    def _replicate_entry(self, table: ClusterTable, layout: Layout,
                         partition_id: int, offset: int) -> None:
        """Deliver the binlog entry at ``offset`` to every follower.

        Each reachable follower is caught up from the binlog
        (:func:`~repro.cluster.failover.catch_up`): one that missed
        earlier entries (dropped delivery, was down) replays them first,
        so application stays contiguous.  Per-follower failures are
        recorded as metrics and left as lag — never raised into the
        write path; the binlog holds the entry, and catch-up or
        failover repairs the replica later.
        """
        binlog = table.binlogs[partition_id]
        leader = layout.leaders[partition_id]
        for tablet_name in layout.placement[partition_id]:
            if tablet_name == leader:
                continue
            tablet = self.tablets[tablet_name]
            try:
                shard = tablet.shard(table.name, partition_id)
            except StorageError:
                continue  # a migration dropped this replica
            gauge = self._lag_gauge(table.name, partition_id, tablet_name)
            if tablet.alive and (self.faults is None
                                 or self.faults.on_replicate(tablet_name)):
                if offset > shard.applied_offset + 1:
                    self._m_catchups.inc()
                try:
                    catch_up(tablet, table.name, partition_id, binlog)
                except (StorageError, MemoryLimitExceededError):
                    # Only delivery failures (dead/partitioned/slow
                    # tablet, follower past its memory limit) become
                    # lag; programming errors propagate.
                    self._m_repl_errors.inc()
            gauge.set(offset - shard.applied_offset)

    def _routed(self, table: ClusterTable, hashed: Optional[int],
                call: Callable[[TabletServer, int, float, Layout], Any]
                ) -> Any:
        """The one routed call: every ``put`` and every read runs here.

        Reads one layout, and runs ``call(leader, partition_id,
        timeout_ms, layout)`` on the leader of the partition owning the
        key hash ``hashed``, returning its answer — or, with ``hashed``
        None, on the leader of every partition in id order, returning
        the list of answers.  Each outcome is classified once:

        * the layout moved — a :class:`ShardMovedError`, a dead leader
          just failed over, or a live tablet that no longer hosts the
          shard: re-read the layout and re-resolve at once, with no
          backoff and no retry charged, following at most
          ``_LAYOUTS_FOLLOWED`` layouts;
        * an RPC timeout or a failed tablet: fail the tablet over, back
          off under the :class:`RetryPolicy` (an ``rpc.retry`` span) and
          retry, at most ``attempts`` times;
        * an :class:`IndexNotFoundError` is the caller's: it propagates.

        An ambient request deadline (installed by the serving frontend,
        see :mod:`repro.serving.deadline`) clamps every per-RPC timeout
        and every backoff to the remaining budget, and the tablet's RPC
        guard refuses a call once it is spent — a call never retries
        past its own deadline.
        """
        policy = self.retry_policy
        deadline = current_deadline()
        retries = moves = 0
        while True:
            layout = table.layout
            tablet: Optional[TabletServer] = None
            partition_id = -1
            timeout_ms = policy.rpc_timeout_ms if deadline is None \
                else deadline.clamp_ms(policy.rpc_timeout_ms)
            try:
                if hashed is not None:
                    partition_id = layout.router.route(hashed)
                    tablet = self._leader(table, layout, partition_id)
                    return call(tablet, partition_id, timeout_ms, layout)
                answers = []
                for partition_id in layout.router.partition_ids():
                    tablet = None  # not the last partition's, on a raise
                    tablet = self._leader(table, layout, partition_id)
                    answers.append(call(tablet, partition_id, timeout_ms,
                                        layout))
                return answers
            except IndexNotFoundError:
                raise
            except StorageError as exc:
                error = exc
            if isinstance(error, RpcTimeoutError):
                self._m_timeouts.inc()
                if timeout_ms < policy.rpc_timeout_ms:
                    # The deadline, not the tablet, cut this call short:
                    # don't declare the tablet dead for it.
                    raise DeadlineExceededError(
                        f"call on {table.name}[{partition_id}] exceeded "
                        f"its deadline budget mid-RPC") from error
            elif tablet is not None and tablet.alive \
                    and not tablet.has_shard(table.name, partition_id):
                # A migration dropped this replica's shard after we
                # routed to it: the layout moved, the tablet is fine.
                error = ShardMovedError(
                    f"{table.name}[{partition_id}] moved off "
                    f"{tablet.name}; re-resolve")
            if isinstance(error, ShardMovedError):
                moves += 1
                if moves == _LAYOUTS_FOLLOWED:
                    raise error
                continue
            if tablet is not None:
                self.handle_failure(tablet.name)
            retries += 1
            if retries > policy.attempts:
                raise error
            self._m_retries.inc()
            backoff_ms = policy.backoff_ms(retries)
            if deadline is not None:
                backoff_ms = deadline.clamp_ms(backoff_ms)
            with self._obs.tracer.span(
                    "rpc.retry", table=table.name, partition=partition_id,
                    attempt=retries, error=type(error).__name__):
                self._sleep(backoff_ms)

    def _leader(self, table: ClusterTable, layout: Layout,
                partition_id: int) -> TabletServer:
        """The live leader of ``partition_id`` in ``layout``; raises
        (inside :meth:`_routed`) for none or a dead one."""
        self._m_routes.inc()
        name = layout.leaders.get(partition_id)
        if name is None:
            raise self._no_leader(table, layout, partition_id)
        tablet = self.tablets[name]
        if not tablet.alive:
            # It died unnoticed: failing it over moves the layout.
            self.handle_failure(name)
            raise ShardMovedError(
                f"{table.name}[{partition_id}] failed over off {name}; "
                "re-resolve")
        return tablet

    def _sleep(self, backoff_ms: float) -> None:
        """The backoff between attempts — the data path's one sleep (a
        test replaces it to run on a fake clock)."""
        time.sleep(backoff_ms / 1_000.0)

    def get_latest(self, table_name: str, key_value: Any,
                   keys: Optional[Sequence[str]] = None
                   ) -> Optional[Tuple[int, Row]]:
        """The newest ``(ts, row)`` for a key on the first index over
        ``keys`` (default: the first index's): the table view's routed
        :meth:`~repro.cluster.view.ClusterTableView.last_join_lookup` —
        one partition for a partition-column key, every partition
        otherwise."""
        table = self._table(table_name)
        self._m_gets.inc()
        return self._views[table_name].last_join_lookup(
            tuple(keys) if keys else table.indexes[0].key_columns, key_value)

    # ------------------------------------------------------------------
    # liveness / failover

    def check_liveness(self, now_ms: Optional[float] = None) -> List[str]:
        """One heartbeat sweep: poll every tablet, fail over the silent.

        A tablet is declared dead once it has not delivered a heartbeat
        for the monitor's timeout (three seconds) — whether it crashed
        or is merely partitioned away.  Returns the tablets failed over
        this sweep.  Pass ``now_ms`` explicitly for deterministic tests;
        it defaults to the wall clock.
        """
        now = time.monotonic() * 1_000.0 if now_ms is None else now_ms
        expired: List[str] = []
        for name, tablet in self.tablets.items():
            if self.heartbeats.observe(name, tablet.heartbeat(), now):
                expired.append(name)
        for name in expired:
            self.handle_failure(name)
        return expired

    def handle_failure(self, tablet_name: str) -> int:
        """Fail a tablet over: a new leader for every partition it led.

        Each promotion replays the binlog suffix the chosen follower has
        not yet applied (most caught-up live follower wins; ties break
        on name), so no acknowledged write is lost; a partition with no
        live follower is left leaderless.  Returns the number of
        leadership transfers (the simulation's analogue of ZooKeeper
        watches firing).  Idempotent: failing an already-failed tablet
        transfers nothing.
        """
        with self._control_lock:
            self.tablets[tablet_name].fail()
            before = self.failovers
            for table in list(self.tables.values()):
                layout = table.layout
                leaders = {
                    partition_id: self._elect(table, partition_id, [
                        name for name in layout.placement[partition_id]
                        if name != tablet_name])
                    for partition_id, leader in layout.leaders.items()
                    if leader == tablet_name}
                self.update_layout(table.name,
                                   lambda current: current.led(leaders))
            return self.failovers - before

    def _elect(self, table: ClusterTable, partition_id: int,
               candidates: Sequence[str]) -> Optional[str]:
        """:func:`elect_leader` among ``candidates``; None when no
        candidate is alive."""
        best, replayed = elect_leader(
            [self.tablets[name] for name in candidates], table.name,
            partition_id, table.binlogs[partition_id])
        if best is None:
            return None
        self._m_replayed.inc(replayed)
        self._lag_gauge(table.name, partition_id, best.name).set(0)
        self.failovers += 1
        self._m_failovers.inc()
        return best.name

    def reintegrate(self, tablet_name: str) -> int:
        """Bring a recovered tablet back as a follower, caught up.

        Every shard it hosts replays the binlog suffix it missed while
        down.  Leadership is *not* handed back: it rejoins as a follower
        of every partition that failed over, and leads only where no
        failover happened or no replica was left to lead.  Returns
        entries replayed.
        """
        tablet = self.tablets[tablet_name]
        replayed = self._rejoin(tablet, lambda table, partition_id: (
            0, catch_up(tablet, table.name, partition_id,
                        table.binlogs[partition_id]))).replayed_entries
        if replayed:
            self._m_catchups.inc()
        return replayed

    def _rejoin(self, tablet: TabletServer,
                restore: Callable[[ClusterTable, int], Tuple[int, int]]
                ) -> RecoveryReport:
        """The one rejoin body, for :meth:`reintegrate` and
        :meth:`restart_tablet`: ``restore(table, partition_id)`` each
        shard the tablet hosts (returning ``(snapshot rows, replayed
        entries)``), then elect a leader for every partition left with
        no live one (e.g. every replica crashed and this one came
        back)."""
        report = RecoveryReport(node=tablet.name)
        with self._control_lock:
            tablet.recover()
            self.heartbeats.forget(tablet.name)
            for table in list(self.tables.values()):
                layout = table.layout
                for partition_id, names in layout.placement.items():
                    if tablet.name not in names:
                        continue
                    loaded, replayed = restore(table, partition_id)
                    report.snapshot_rows += loaded
                    report.replayed_entries += replayed
                    applied = tablet.shard(table.name,
                                           partition_id).applied_offset
                    report.applied_offsets[(table.name, partition_id)] = \
                        applied
                    self._lag_gauge(table.name, partition_id,
                                    tablet.name).set(
                        table.binlogs[partition_id].last_offset - applied)
                leaders = {
                    partition_id: self._elect(
                        table, partition_id, layout.placement[partition_id])
                    for partition_id, leader in layout.leaders.items()
                    if leader is None or not self.tablets[leader].alive}
                self.update_layout(table.name,
                                   lambda current: current.led(leaders))
        return report

    # ------------------------------------------------------------------
    # durability: snapshots + crash-restart recovery

    def snapshot(self, table_name: Optional[str] = None) -> int:
        """Snapshot every hosted shard (of one table, or all tables).

        Each shard's image is written under its partition lock, so the
        pinned ``applied_offset`` is consistent with the rows in the
        image.  Binlogs are fsync'd afterwards: snapshot + synced tail
        is the full recovery contract.  Returns total rows written.
        """
        tables = [self._table(table_name)] if table_name is not None \
            else list(self.tables.values())
        rows = 0
        for table in tables:
            for partition_id, tablet_names in \
                    table.layout.placement.items():
                with self.partition_lock(table.name, partition_id):
                    for name in tablet_names:
                        tablet = self.tablets[name]
                        if (tablet.alive and tablet.snapshots is not None
                                and tablet.has_shard(table.name,
                                                     partition_id)):
                            rows += tablet.snapshot_shard(table.name,
                                                          partition_id)
                table.binlogs[partition_id].sync()
        return rows

    def restart_tablet(self, tablet_name: str) -> RecoveryReport:
        """Bring a crashed (memory-lost) tablet back: snapshot + replay.

        The restart protocol, per shard the tablet hosts:

        1. start over from empty stores (:meth:`TabletServer.wipe`);
        2. restore it (:meth:`_restore_shard`): load the newest intact
           snapshot image, then replay the *durable* binlog tail past
           its pinned offset;
        3. rejoin as a caught-up follower — unless the partition lost
           its leader entirely, in which case the most caught-up live
           replica (usually the restarted one) is elected.

        Returns a :class:`RecoveryReport`; zero acknowledged writes are
        lost because every acknowledged write is in the binlog and the
        snapshot only ever pins a prefix of it.
        """
        tablet = self.tablets[tablet_name]
        if tablet.alive:
            raise StorageError(
                f"{tablet_name} is alive; restart_tablet() recovers a "
                f"crashed tablet")
        start = time.perf_counter()
        with self._control_lock, self._obs.tracer.span(
                "recovery.restart", tablet=tablet_name):
            tablet.wipe()
            report = self._rejoin(tablet, lambda table, partition_id:
                                  self._restore_shard(tablet, table,
                                                      partition_id))
        report.seconds = time.perf_counter() - start
        self._m_restarts.inc()
        self._m_recovery_replayed.inc(report.replayed_entries)
        self._m_snapshot_rows.inc(report.snapshot_rows)
        self._h_recovery.observe(report.seconds * 1_000.0)
        return report

    # ------------------------------------------------------------------
    # online serving (request mode over the cluster)

    def deploy(self, name: str, sql: str) -> CompiledQuery:
        """Deploy a feature script against the cluster catalog and
        return its compiled plan (``DeploymentHost.deploy``'s
        ``.compiled``)."""
        return super().deploy(name, sql).compiled

    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("cluster closed")

    def close(self) -> None:
        """Close every partition binlog's WAL.  Idempotent;
        ``put``/``request`` after close raise ``StorageError``."""
        if self._closed:
            return
        self._closed = True
        for table in list(self.tables.values()):
            for binlog in list(table.binlogs.values()):
                binlog.close()
