"""Nameserver: shard placement, leadership, replication, and failover.

Stands in for OpenMLDB's nameserver + ZooKeeper pair (Section 3.1's
high-availability layer).  Responsibilities:

* **placement** — assign each table partition's replica group across
  tablets (round-robin, leader on the first replica);
* **routing** — hash a partition key to its partition and return the
  current leader; every routed call runs under a
  :class:`~repro.cluster.failover.RetryPolicy` (bounded retries,
  exponential backoff, per-RPC timeout), re-routing after failover;
* **replication** — each partition owns a
  :class:`~repro.online.binlog.Replicator` binlog.  A ``put`` is
  acknowledged once the leader applied it, the entry is in the binlog
  and every reachable follower was handed it, inline; a follower that
  missed entries (down, partitioned, delivery dropped) shows as the
  ``cluster.replication.lag`` gauge and is caught up from the binlog.
  The cluster starts no thread;
* **failover** — a tablet that crashes, partitions away, or misses
  heartbeats past the timeout is declared dead; for every shard it led,
  the most caught-up live follower replays the binlog suffix it is
  missing and takes over.  Because acknowledged writes are always in
  the binlog, a leadership change never loses one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import threading
import time
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..core.deployment import DeploymentHost
from ..ctlplane.split import HashRouter, stable_hash
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
from ..storage.skiplist import ColumnBlock
from .failover import HeartbeatMonitor, RetryPolicy, catch_up, elect_leader
from .tablet import TabletServer

__all__ = ["ClusterTable", "NameServer"]

# Bounded re-resolution retries after a ShardMovedError redirect.  Each
# retry re-reads the routing directory, which only ever moves forward;
# the bound exists so a programming error cannot spin forever.
_REROUTE_ATTEMPTS = 8


@dataclasses.dataclass
class ClusterTable:
    """Placement metadata for one distributed table."""

    name: str
    schema: Schema
    indexes: Tuple[IndexDef, ...]
    partitions: int
    replicas: int
    # partition id → ordered tablet names (first = initial leader)
    assignment: Dict[int, List[str]]
    # partition id → that partition's binlog (the replication source of
    # truth: an acknowledged write is always in here)
    binlogs: Dict[int, Replicator]
    # key hash → live partition id; splits/merges rewrite this while
    # the table keeps serving (``partitions`` stays the base count)
    router: HashRouter = dataclasses.field(
        default_factory=lambda: HashRouter(1))
    # partition ids retired by a split/merge; routing to one raises
    # ShardMovedError so callers re-resolve instead of failing
    retired: Set[int] = dataclasses.field(default_factory=set)
    # every replica's store engine ("memory" / "disk") and a disk
    # store's flush threshold
    storage: str = "memory"
    flush_threshold: int = 4096

    def __post_init__(self) -> None:
        self.codec = RowCodec(self.schema)

    @property
    def next_offset(self) -> Dict[int, int]:
        """Partition id → the offset the next acknowledged write gets."""
        return {partition_id: binlog.last_offset + 1
                for partition_id, binlog in self.binlogs.items()}


class _ClusterTableView:
    """Routed read adapter exposing the ``MemTable`` read API.

    The online engine is storage-agnostic: it calls ``find_index`` /
    ``window_scan`` / ``last_join_lookup`` on whatever "table" it is
    given.  This view implements those against the cluster — each call
    hashes the key to its partition, routes to the partition leader
    through the nameserver's retry layer, and issues the (simulated)
    RPC with the active trace context attached, so tablet-side spans
    stitch into the request trace.  Scans on a non-partition index fan
    out to every partition and merge newest-first, as a real
    distributed executor must.
    """

    def __init__(self, nameserver: "NameServer",
                 table: ClusterTable) -> None:
        self._ns = nameserver
        self._table = table

    @property
    def name(self) -> str:
        return self._table.name

    @property
    def schema(self) -> Schema:
        return self._table.schema

    @property
    def indexes(self) -> Tuple[IndexDef, ...]:
        return self._table.indexes

    def find_index(self, keys: Sequence[str],
                   ts: Optional[str] = None) -> IndexDef:
        for index in self._table.indexes:
            if index.matches(keys, ts):
                return index
        raise IndexNotFoundError(
            f"cluster table {self.name!r} has no index on "
            f"keys={tuple(keys)} ts={ts!r}")

    def _partitions_for(self, keys: Sequence[str],
                        key_value: Any) -> List[int]:
        partition_column = self._table.indexes[0].key_columns[0]
        if tuple(keys)[0] == partition_column:
            routing = key_value[0] if isinstance(key_value, tuple) \
                else key_value
            return [self._ns.partition_for(self.name, routing)]
        return self._table.router.partition_ids()

    def _rerouting(self, fn: Any) -> Any:
        """Run ``fn`` with bounded re-resolution on topology redirects.

        A split/merge/migration that lands mid-read raises
        :class:`ShardMovedError`; re-running ``fn`` re-resolves every
        partition against the fresh routing directory.
        """
        for _ in range(_REROUTE_ATTEMPTS - 1):
            try:
                return fn()
            except ShardMovedError:
                continue
        return fn()

    def window_scan(self, keys: Sequence[str], ts_column: str,
                    key_value: Any, start_ts: Optional[int] = None,
                    end_ts: Optional[int] = None,
                    limit: Optional[int] = None
                    ) -> Iterator[Tuple[int, Row]]:
        return itertools.chain.from_iterable(self.window_scan_blocks(
            keys, ts_column, key_value, start_ts=start_ts, end_ts=end_ts,
            limit=limit))

    def window_scan_blocks(self, keys: Sequence[str], ts_column: str,
                           key_value: Any, start_ts: Optional[int] = None,
                           end_ts: Optional[int] = None,
                           limit: Optional[int] = None) -> List[ColumnBlock]:
        """Chunked window scan over the cluster, newest-first.

        A key that routes to one partition (every scan on the partition
        column) gets that tablet's :class:`ColumnBlock` s back as they
        are — no copy, sort or re-chunking between the store and the
        fold.  Only the fan-out over a non-partition index merges, and
        lays the merged rows out as a single block.
        """
        return self._rerouting(
            lambda: self._window_scan_blocks_once(
                keys, ts_column, key_value, start_ts, end_ts, limit))

    def _window_scan_blocks_once(self, keys: Sequence[str], ts_column: str,
                                 key_value: Any, start_ts: Optional[int],
                                 end_ts: Optional[int],
                                 limit: Optional[int]) -> List[ColumnBlock]:
        ns = self._ns
        ctx = ns._obs.tracer.inject()
        scans: List[List[ColumnBlock]] = []
        for partition_id in self._partitions_for(keys, key_value):
            ns._m_routes.inc()
            scans.append(ns.routed_read(
                self.name, partition_id,
                lambda tablet, timeout_ms, pid=partition_id:
                    tablet.window_scan_blocks(
                        self.name, pid, keys, ts_column, key_value,
                        start_ts=start_ts, end_ts=end_ts, limit=limit,
                        trace_ctx=ctx,
                        timeout_ms=timeout_ms)))
        if len(scans) == 1:
            return scans[0]
        # Rows with equal timestamps keep partition order.
        merged = ColumnBlock.merged(scans, len(self.schema), limit)
        return [merged] if len(merged) else []

    def last_join_lookup(self, keys: Sequence[str], key_value: Any,
                         before_ts: Optional[int] = None
                         ) -> Optional[Tuple[int, Row]]:
        return self._rerouting(
            lambda: self._last_join_lookup_once(keys, key_value,
                                                before_ts))

    def _last_join_lookup_once(self, keys: Sequence[str], key_value: Any,
                               before_ts: Optional[int]
                               ) -> Optional[Tuple[int, Row]]:
        ns = self._ns
        ctx = ns._obs.tracer.inject()
        best: Optional[Tuple[int, Row]] = None
        for partition_id in self._partitions_for(keys, key_value):
            ns._m_routes.inc()
            hit = ns.routed_read(
                self.name, partition_id,
                lambda tablet, timeout_ms, pid=partition_id:
                    tablet.last_join_lookup(
                        self.name, pid, keys, key_value,
                        before_ts=before_ts, trace_ctx=ctx,
                        timeout_ms=timeout_ms))
            if hit is not None and (best is None or hit[0] > best[0]):
                best = hit
        return best

    def rows(self) -> Iterator[Row]:
        """Full scan across leader shards (offline-mode access path)."""
        def scan() -> List[Row]:
            rows: List[Row] = []
            for partition_id in self._table.router.partition_ids():
                leader = self._ns.route_to_leader(self.name,
                                                  partition_id)
                rows.extend(leader.shard(self.name,
                                         partition_id).store.rows())
            return rows
        return iter(self._rerouting(scan))


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
        self._failover_lock = threading.Lock()
        self._views: Dict[str, _ClusterTableView] = {}
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
        layout = self._load_layout(name)
        if layout is not None:
            router = HashRouter.from_state(layout["router"])
            assignment = {int(pid): list(names) for pid, names
                          in layout["assignment"].items()}
            leaders = {int(pid): leader for pid, leader
                       in layout["leaders"].items()}
            retired = set(layout.get("retired", ()))
        else:
            router = HashRouter(partitions)
            tablet_names = list(self.tablets)
            assignment = {}
            leaders = {}
            for partition_id in range(partitions):
                chosen = [tablet_names[(partition_id + replica)
                                       % len(tablet_names)]
                          for replica in range(replicas)]
                assignment[partition_id] = chosen
                leaders[partition_id] = chosen[0]
            retired = set()
        table = ClusterTable(
            name=name, schema=schema, indexes=tuple(indexes),
            partitions=partitions, replicas=replicas,
            assignment=assignment,
            binlogs={partition_id: self._build_binlog(name, schema,
                                                      partition_id)
                     for partition_id in sorted(assignment)},
            router=router, retired=retired, storage=storage,
            flush_threshold=flush_threshold)
        for partition_id, chosen in assignment.items():
            for tablet_name in chosen:
                tablet = self.tablets.get(tablet_name)
                if tablet is None:
                    raise StorageError(
                        f"layout for {name!r} names unknown tablet "
                        f"{tablet_name!r}")
                self.host_replica(
                    tablet, table, partition_id,
                    is_leader=(tablet_name == leaders[partition_id]))
                self._restore_shard(tablet, table, partition_id)
            self._part_locks[(name, partition_id)] = threading.Lock()
        self.tables[name] = table
        self._views[name] = _ClusterTableView(self, table)
        return table

    def host_replica(self, tablet: TabletServer, table: ClusterTable,
                     partition_id: int, is_leader: bool) -> None:
        """Host a replica of ``table``'s partition on ``tablet``: a store
        of the table's engine, its storage events on the partition WAL."""
        binlog = table.binlogs[partition_id]
        tablet.host_shard(
            table.name, partition_id, table.schema, table.indexes,
            is_leader=is_leader, storage=table.storage,
            flush_threshold=table.flush_threshold,
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
        linear-hashing directory, which online splits/merges rewrite.
        """
        table = self._table(table_name)
        return table.router.route(stable_hash(key_value))

    def leader_of(self, table_name: str,
                  partition_id: int) -> TabletServer:
        """The current live leader, with *no* failover side effects."""
        table = self._table(table_name)
        placement = table.assignment.get(partition_id)
        if placement is None:
            if partition_id in table.retired:
                raise ShardMovedError(
                    f"{table_name}[{partition_id}] was retired by a "
                    f"split/merge; re-resolve the key")
            raise StorageError(
                f"{table_name} has no partition {partition_id}")
        for tablet_name in placement:
            tablet = self.tablets[tablet_name]
            if tablet.alive \
                    and tablet.has_shard(table_name, partition_id) \
                    and tablet.shard(table_name,
                                     partition_id).is_leader:
                return tablet
        raise StorageError(
            f"no live leader for {table_name}[{partition_id}]")

    def route_to_leader(self, table_name: str,
                        partition_id: int) -> TabletServer:
        """Like :meth:`leader_of`, but repairs leadership on the way.

        If the recorded leader is dead, the dead tablet's shards fail
        over first (the detection a ZooKeeper watch would have
        delivered), then routing is retried once.
        A :class:`ShardMovedError` (the partition was split away)
        propagates untouched — it is a redirect, not a failure.
        """
        try:
            return self.leader_of(table_name, partition_id)
        except ShardMovedError:
            raise
        except StorageError:
            if not self._failover_dead_replicas(table_name, partition_id):
                raise
            return self.leader_of(table_name, partition_id)

    def _failover_dead_replicas(self, table_name: str,
                                partition_id: int) -> int:
        """Fail over every dead tablet in one partition's replica group."""
        transfers = 0
        placement = self._table(table_name).assignment.get(partition_id,
                                                           ())
        for tablet_name in list(placement):
            if not self.tablets[tablet_name].alive:
                transfers += self.handle_failure(tablet_name)
        return transfers

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
            with self._failover_lock:
                lock = self._part_locks.setdefault(key, threading.Lock())
        return lock

    def register_partition(self, table_name: str, partition_id: int,
                           placement: Sequence[str],
                           leader: str) -> Replicator:
        """Bring a new (split-minted) partition online.

        Hosts the shard on every placement tablet, builds its binlog
        (file-backed when durable, discarding any stale WAL a previous
        aborted split left under the same id), and registers placement.
        The partition serves as soon as the router maps keys to it —
        which happens later, at the split's atomic commit.
        """
        table = self._table(table_name)
        if partition_id in table.assignment:
            raise StorageError(
                f"{table_name} already has partition {partition_id}")
        binlog = self._build_binlog(table_name, table.schema,
                                    partition_id, fresh=True)
        table.binlogs[partition_id] = binlog
        for tablet_name in placement:
            self.host_replica(self.tablets[tablet_name], table,
                              partition_id,
                              is_leader=(tablet_name == leader))
        table.assignment[partition_id] = list(placement)
        table.retired.discard(partition_id)
        self.partition_lock(table_name, partition_id)
        return binlog

    def retire_partition(self, table_name: str,
                         partition_id: int) -> None:
        """Take a partition out of service after a split/merge.

        Drops the shard from its replicas, closes (and, when durable,
        deletes) its binlog, and marks the id retired so stale routes
        raise :class:`ShardMovedError` instead of failing.  Idempotent.
        """
        table = self._table(table_name)
        placement = table.assignment.pop(partition_id, None)
        table.retired.add(partition_id)
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

    def save_layout(self, table_name: str) -> None:
        """Persist the table's routing directory and placement.

        No-op without ``data_dir``.  Written atomically (tmp +
        ``os.replace``) so a crash mid-save leaves the previous layout,
        which is always a consistent topology: the split/merge commit
        saves *after* the router swap, so an older layout simply means
        the change replays from the parent's still-complete binlog.
        """
        if self.data_dir is None:
            return
        table = self._table(table_name)
        leaders: Dict[str, str] = {}
        for partition_id, names in list(table.assignment.items()):
            leader = names[0]
            for tablet_name in names:
                tablet = self.tablets[tablet_name]
                if tablet.alive \
                        and tablet.has_shard(table_name, partition_id) \
                        and tablet.shard(table_name,
                                         partition_id).is_leader:
                    leader = tablet_name
                    break
            leaders[str(partition_id)] = leader
        state = {
            "router": table.router.state(),
            "assignment": {str(pid): list(names) for pid, names
                           in table.assignment.items()},
            "leaders": leaders,
            "retired": sorted(table.retired),
        }
        path = self._layout_path(table_name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        os.replace(tmp, path)

    def _load_layout(self, table_name: str) -> Optional[Dict[str, Any]]:
        if self.data_dir is None:
            return None
        path = self._layout_path(table_name)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

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

    def put(self, table_name: str, row: Row,
            key_column: Optional[str] = None,
            tenant: str = "") -> int:
        """Write one row through the partition leader, replicating it.

        The partition key defaults to the first index's first key
        column.  The write is acknowledged — and its partition-local
        offset returned — once the leader applied it, the entry is in
        the partition binlog and every reachable follower was handed it.
        A dead or unreachable leader is
        failed over and the write retried under the retry policy; a
        partition split away mid-flight is transparently re-resolved
        (the :class:`ShardMovedError` redirect).

        ``tenant`` charges the row's encoded size against that tenant's
        memory budget (see :meth:`attach_tenants`); an over-budget
        tenant is shed with
        :class:`~repro.errors.TenantBudgetError` before anything is
        written, and a write that ultimately fails refunds its charge.

        The row is validated here, once: the leader, every follower and
        the binlog entry all hold the tuple this check returns.
        """
        self._check_open()
        table = self._table(table_name)
        self._m_puts.inc()
        row = table.schema.validate_row(row)
        column = key_column or table.indexes[0].key_columns[0]
        key_value = row[table.schema.position(column)]
        charged = 0
        if tenant and self._tenants is not None:
            charged = table.codec.encoded_size(row)
            self._tenants.charge(tenant, charged, table=table_name)
        policy = self.retry_policy
        last_error: Optional[Exception] = None
        partition_id = -1
        try:
            for attempt in range(policy.attempts + 1):
                if attempt:
                    self._m_retries.inc()
                    time.sleep(policy.backoff_ms(attempt) / 1_000.0)
                # Re-resolve each attempt: a split/merge may have
                # rewritten the routing directory since the last one.
                partition_id = self.partition_for(table_name, key_value)
                try:
                    leader = self.route_to_leader(table_name,
                                                  partition_id)
                except ShardMovedError as exc:
                    last_error = exc
                    continue
                except StorageError as exc:
                    last_error = exc
                    continue
                try:
                    return self._put_on_leader(table, partition_id,
                                               leader, row)
                except ShardMovedError as exc:
                    # Routed before the topology change committed: the
                    # redirect is not the tablet's fault — just re-route.
                    last_error = exc
                except RpcTimeoutError as exc:
                    self._m_timeouts.inc()
                    last_error = exc
                    self._suspect(leader.name)
                except StorageError as exc:
                    last_error = exc
                    self._suspect(leader.name)
        except BaseException:
            if charged:
                self._tenants.release(tenant, charged)
            raise
        if charged:
            self._tenants.release(tenant, charged)
        raise last_error if last_error is not None else StorageError(
            f"put to {table_name}[{partition_id}] failed")

    def _put_on_leader(self, table: ClusterTable, partition_id: int,
                       leader: TabletServer, row: Row) -> int:
        binlog = table.binlogs[partition_id]
        timeout_ms = self.retry_policy.rpc_timeout_ms
        with self.partition_lock(table.name, partition_id):
            if partition_id not in table.assignment:
                # Split/merge retired this partition between routing
                # and lock acquisition: redirect, don't write.
                raise ShardMovedError(
                    f"{table.name}[{partition_id}] was retired by a "
                    f"split/merge; re-resolve the key")
            offset = binlog.last_offset + 1
            # Leader applies first: if it rejects (down, timeout, memory
            # limit) nothing reaches the binlog and nothing was
            # acknowledged.
            leader.write(table.name, partition_id, row, offset,
                         timeout_ms=timeout_ms)
            binlog.append_entry(table.name, row)
            self._replicate_entry(table, partition_id, offset, row)
        return offset

    def _replicate_entry(self, table: ClusterTable, partition_id: int,
                         offset: int, row: Row) -> None:
        """Deliver the binlog entry at ``offset`` to every follower.

        A follower that missed earlier entries (dropped delivery, was
        down) is caught up from the binlog first, so application stays
        contiguous.  Per-follower failures are recorded as metrics and
        left as lag — never raised into the write path; the binlog holds
        the entry, and catch-up or failover repairs the replica later.
        """
        binlog = table.binlogs[partition_id]
        for tablet_name in table.assignment[partition_id]:
            tablet = self.tablets[tablet_name]
            shard = tablet.shard(table.name, partition_id) \
                if tablet.has_shard(table.name, partition_id) else None
            if shard is None or shard.is_leader:
                continue
            gauge = self._lag_gauge(table.name, partition_id, tablet_name)
            if not tablet.alive:
                gauge.set(binlog.last_offset - shard.applied_offset)
                continue
            if self.faults is not None \
                    and not self.faults.on_replicate(tablet_name):
                gauge.set(binlog.last_offset - shard.applied_offset)
                continue
            try:
                if offset > shard.applied_offset + 1:
                    # Repair the gap: replay the missed prefix in order.
                    self._m_catchups.inc()
                    for missed in binlog.entries_from(
                            shard.applied_offset + 1, offset):
                        tablet.replicate(table.name, partition_id,
                                         missed.row, missed.offset)
                tablet.replicate(table.name, partition_id, row, offset)
            except (StorageError, MemoryLimitExceededError):
                # Only delivery failures (dead/partitioned/slow tablet,
                # replication gap, follower past its memory limit)
                # become lag; programming errors propagate.
                self._m_repl_errors.inc()
            gauge.set(binlog.last_offset - shard.applied_offset)

    def routed_read(self, table_name: str, partition_id: int,
                    call: Any) -> Any:
        """Run ``call(tablet, timeout_ms)`` against the partition leader.

        The read backbone: routes to the leader (repairing leadership if
        needed) and retries with exponential backoff on tablet failure
        or RPC timeout.  A retry is visible in the active trace as an
        ``rpc.retry`` span.

        An ambient request deadline (installed by the serving frontend,
        see :mod:`repro.serving.deadline`) clamps every per-RPC timeout
        to the remaining budget and stops the retry loop the moment the
        budget is spent — a request never retries past its own
        deadline.
        """
        policy = self.retry_policy
        deadline = current_deadline()
        last_error: Optional[Exception] = None
        for attempt in range(policy.attempts + 1):
            if attempt:
                self._m_retries.inc()
                backoff_ms = policy.backoff_ms(attempt)
                if deadline is not None:
                    backoff_ms = deadline.clamp_ms(backoff_ms)
                with self._obs.tracer.span(
                        "rpc.retry", table=table_name,
                        partition=partition_id, attempt=attempt,
                        error=type(last_error).__name__):
                    time.sleep(backoff_ms / 1_000.0)
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    f"read on {table_name}[{partition_id}] ran out of "
                    f"deadline budget after {attempt} attempt(s)"
                ) from last_error
            try:
                tablet = self.route_to_leader(table_name, partition_id)
            except ShardMovedError:
                # The partition was split/merged away: the caller must
                # re-resolve its key — retrying the same id is futile.
                raise
            except StorageError as exc:
                last_error = exc
                continue
            timeout_ms = policy.rpc_timeout_ms
            if deadline is not None:
                timeout_ms = deadline.clamp_ms(timeout_ms)
            try:
                return call(tablet, timeout_ms)
            except RpcTimeoutError as exc:
                self._m_timeouts.inc()
                last_error = exc
                if deadline is not None \
                        and timeout_ms < policy.rpc_timeout_ms:
                    # The deadline, not the tablet, cut this call short:
                    # don't declare the tablet dead for it.
                    raise DeadlineExceededError(
                        f"read on {table_name}[{partition_id}] exceeded "
                        f"its deadline budget mid-RPC") from exc
                self._suspect(tablet.name)
            except (ShardMovedError, IndexNotFoundError):
                # A redirect, or the caller asked for an access path no
                # declared index serves: the live tablet that said so
                # is not at fault — no suspicion, no retry.
                raise
            except StorageError as exc:
                last_error = exc
                if tablet.alive and not tablet.has_shard(table_name,
                                                         partition_id):
                    # A live migration dropped this replica's shard
                    # after we routed to it: a topology redirect, not a
                    # tablet failure — re-route without a failover.
                    raise ShardMovedError(
                        f"{table_name}[{partition_id}] moved off "
                        f"{tablet.name} mid-read; re-resolve") from exc
                self._suspect(tablet.name)
        raise last_error if last_error is not None else StorageError(
            f"read on {table_name}[{partition_id}] failed")

    def _suspect(self, tablet_name: str) -> None:
        """A routed RPC failed against this tablet: declare it dead.

        Timeouts (partition/slow faults) and crashes look the same from
        the caller's side; the simulation mirrors a lease-less system
        and fails the tablet over so the retry can land elsewhere.
        """
        self.handle_failure(tablet_name)

    def get_latest(self, table_name: str, key_value: Any,
                   keys: Optional[Sequence[str]] = None
                   ) -> Optional[Tuple[int, Row]]:
        """Read the newest row for a key through the partition leader."""
        table = self._table(table_name)
        self._m_gets.inc()
        key_columns = tuple(keys) if keys else table.indexes[0].key_columns
        last_moved: Optional[ShardMovedError] = None
        for _ in range(_REROUTE_ATTEMPTS):
            partition_id = self.partition_for(table_name, key_value)
            try:
                return self.routed_read(
                    table_name, partition_id,
                    lambda tablet, timeout_ms, pid=partition_id:
                        tablet.read_latest(
                            table_name, pid, key_columns, key_value,
                            timeout_ms=timeout_ms))
            except ShardMovedError as exc:
                last_moved = exc  # topology changed: re-resolve the key
        raise last_moved

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
        """Fail a tablet over: promote followers for every shard it led.

        Each promotion replays the binlog suffix the chosen follower has
        not yet applied (most caught-up live follower wins; ties break
        on name), so no acknowledged write is lost.  Returns the number
        of leadership transfers (the simulation's analogue of ZooKeeper
        watches firing).  Idempotent: failing an already-failed tablet
        transfers nothing.
        """
        with self._failover_lock:
            failed = self.tablets[tablet_name]
            failed.fail()
            transfers = 0
            replayed_total = 0
            for table in list(self.tables.values()):
                for partition_id, tablet_names in list(
                        table.assignment.items()):
                    if tablet_name not in tablet_names:
                        continue
                    shard = failed.shard(table.name, partition_id)
                    if not shard.is_leader:
                        continue
                    shard.is_leader = False
                    candidates = [self.tablets[other]
                                  for other in tablet_names
                                  if other != tablet_name]
                    binlog = table.binlogs[partition_id]
                    while True:
                        best = elect_leader(candidates, table.name,
                                            partition_id)
                        if best is None:
                            break
                        try:
                            replayed_total += catch_up(
                                best, table.name, partition_id, binlog)
                        except (StorageError, MemoryLimitExceededError):
                            # Candidate died (or cannot absorb the
                            # suffix) mid-replay: elect the next.
                            # Programming errors propagate.
                            candidates = [c for c in candidates
                                          if c is not best]
                            continue
                        best.promote(table.name, partition_id)
                        self._lag_gauge(table.name, partition_id,
                                        best.name).set(0)
                        transfers += 1
                        break
            self.failovers += transfers
            if transfers:
                self._m_failovers.inc(transfers)
            if replayed_total:
                self._m_replayed.inc(replayed_total)
            return transfers

    def reintegrate(self, tablet_name: str) -> int:
        """Bring a recovered tablet back as a follower, caught up.

        Every shard it hosts replays the binlog suffix it missed while
        down (leadership is *not* restored — it rejoins as a follower
        unless no failover happened).  Returns entries replayed.
        """
        tablet = self.tablets[tablet_name]
        tablet.recover()
        self.heartbeats.forget(tablet_name)
        replayed = 0
        for table in list(self.tables.values()):
            for partition_id, tablet_names in list(
                    table.assignment.items()):
                if tablet_name not in tablet_names:
                    continue
                replayed += catch_up(tablet, table.name, partition_id,
                                     table.binlogs[partition_id])
                self._lag_gauge(table.name, partition_id,
                                tablet_name).set(0)
        if replayed:
            self._m_catchups.inc()
        return replayed

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
            for partition_id, tablet_names in list(
                    table.assignment.items()):
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
           replica (usually the restarted one) is promoted.

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
        report = RecoveryReport(node=tablet_name)
        with self._failover_lock:
            with self._obs.tracer.span("recovery.restart",
                                       tablet=tablet_name):
                tablet.wipe()
                tablet.recover()
                self.heartbeats.forget(tablet_name)
                for table in list(self.tables.values()):
                    for partition_id, names in list(
                            table.assignment.items()):
                        if tablet_name not in names:
                            continue
                        loaded, replayed = self._restore_shard(
                            tablet, table, partition_id)
                        report.snapshot_rows += loaded
                        report.replayed_entries += replayed
                        shard = tablet.shard(table.name, partition_id)
                        report.applied_offsets[
                            (table.name, partition_id)] = \
                            shard.applied_offset
                        self._lag_gauge(table.name, partition_id,
                                        tablet_name).set(
                            table.binlogs[partition_id].last_offset
                            - shard.applied_offset)
                        self._repair_leadership(table, partition_id)
        report.seconds = time.perf_counter() - start
        self._m_restarts.inc()
        self._m_recovery_replayed.inc(report.replayed_entries)
        self._m_snapshot_rows.inc(report.snapshot_rows)
        self._h_recovery.observe(report.seconds * 1_000.0)
        return report

    def _repair_leadership(self, table: ClusterTable,
                           partition_id: int) -> None:
        """Promote a leader if the partition has none (e.g. every
        replica crashed and one just restarted)."""
        try:
            self.leader_of(table.name, partition_id)
            return
        except StorageError:
            pass
        candidates = [self.tablets[name]
                      for name in table.assignment[partition_id]]
        best = elect_leader(candidates, table.name, partition_id)
        if best is None:
            return
        binlog = table.binlogs[partition_id]
        catch_up(best, table.name, partition_id, binlog)
        best.promote(table.name, partition_id)
        self._lag_gauge(table.name, partition_id, best.name).set(0)
        self.failovers += 1
        self._m_failovers.inc()

    # ------------------------------------------------------------------
    # online serving (request mode over the cluster)

    def deploy(self, name: str, sql: str) -> CompiledQuery:
        """Deploy a feature script against the cluster catalog and
        return its compiled plan (``DeploymentHost.deploy``'s
        ``.compiled``)."""
        return super().deploy(name, sql).compiled

    def request_partition(self, name: str,
                          row: Sequence[Any]) -> Optional[int]:
        """Partition hint for micro-batch grouping.

        The partition the request row's primary-table key routes to, or
        None when it cannot be derived (unknown deployment, short row).
        The serving frontend sorts each batch by this so storage reads
        group by partition leader.
        """
        deployment = self._deployments.get(name)
        if deployment is None:
            return None
        table = self.tables[deployment.compiled.plan.table]
        column = table.indexes[0].key_columns[0]
        try:
            key_value = row[table.schema.position(column)]
        except (IndexError, KeyError, SchemaError):
            return None
        return self.partition_for(table.name, key_value)

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
