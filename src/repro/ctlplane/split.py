"""Stable routing and online partition split.

Two pieces live here:

* :func:`stable_hash` / :class:`HashRouter` — the cluster's routing
  directory.  Keys hash with CRC-32 over a type-tagged byte encoding
  (stable across processes and ``PYTHONHASHSEED``, unlike the builtin
  ``hash`` the nameserver used before), and the router maps the hash
  space to partition ids through *residue classes*: entry ``(m, r)``
  owns every key with ``hash % m == r``.  Splitting is linear hashing's
  move — entry ``(m, r)`` forks into ``(2m, r)`` and ``(2m, r + m)`` —
  so any single partition can split without touching its siblings.

* :class:`PartitionSplitter` — the online split protocol over a live
  :class:`~repro.cluster.NameServer`:

  1. take the partition's write lock (writes pause; reads continue);
  2. freeze the partition binlog at its current offset — the fork
     point: every acknowledged write is at or before it;
  3. host child shards on the parent's replica group, append each
     frozen binlog entry to its child's binlog by the new ``(2m, ...)``
     residue, then catch each child's replicas up from that binlog,
     leader first — the one replay loop
     (:func:`~repro.cluster.failover.catch_up`) replication, failover
     and recovery use, so the children's binlogs are immediately
     failover- and crash-safe; a follower that cannot apply is left
     lagging;
  4. swap in the next layout, whose router holds the children and
     whose retired ids hold the parent.  A request that already
     resolved the parent id gets
     :class:`~repro.errors.ShardMovedError` and re-routes — installed
     routing never drops an in-flight request.

  A failure before step 4 unwinds the half-built children and leaves
  the parent serving — a split either commits or never happened.
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from typing import (Any, Dict, List, Optional, Tuple, TYPE_CHECKING)

from ..errors import MemoryLimitExceededError, StorageError
from ..obs import Observability

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..cluster.nameserver import NameServer

__all__ = ["HashRouter", "PartitionSplitter", "SplitPlan", "SplitReport",
           "stable_hash"]

#: Upper bound on routing-entry moduli: ``base << MAX_SPLIT_DEPTH``.
#: 32 doublings of any starting layout is far beyond any real split
#: schedule and bounds the router's lookup loop.
MAX_SPLIT_DEPTH = 32


def stable_hash(value: Any) -> int:
    """A process-stable 32-bit hash for partition routing.

    The builtin ``hash`` is randomized per process for strings
    (``PYTHONHASHSEED``), so a durable cluster restarted over its
    ``data_dir`` would route every string key to a different partition
    than the one its rows live in.  This hash is CRC-32 over a
    type-tagged byte encoding: deterministic everywhere, and shared by
    the nameserver's routing and the split protocol's child fan-out.
    """
    kind = type(value)
    if kind is int:  # the common keys first; bool is not an exact int
        payload = b"i%d" % value
    elif kind is str:
        payload = b"s" + value.encode("utf-8")
    elif value is None:
        payload = b"\x00"
    elif isinstance(value, bool):
        payload = b"b1" if value else b"b0"
    elif isinstance(value, int):
        payload = b"i%d" % value
    elif isinstance(value, float):
        payload = b"f" + repr(value).encode("ascii")
    elif isinstance(value, str):
        payload = b"s" + value.encode("utf-8")
    elif isinstance(value, bytes):
        payload = b"y" + value
    else:
        payload = b"o" + repr(value).encode("utf-8")
    return zlib.crc32(payload) & 0xFFFFFFFF


@dataclasses.dataclass(frozen=True)
class SplitPlan:
    """A planned (not yet committed) fork of one routing entry."""

    parent: int
    left: int
    right: int
    modulus: int        # the children's modulus (2x the parent's)
    left_residue: int
    right_residue: int

    def child_for(self, hashed: int) -> int:
        """Which child a hash value lands in under the new routing."""
        return self.left if hashed % self.modulus == self.left_residue \
            else self.right


class HashRouter:
    """Residue-class routing directory with linear-hashing splits.

    The initial layout is modulo hashing: ``partitions`` entries
    ``(partitions, r) -> r``.  Lookup walks moduli upward from the base
    until it finds the entry owning ``hash % m`` — after ``d`` splits
    of one lineage that is ``d`` dictionary probes, and the table always
    tiles the hash space exactly (an invariant of the split move).

    A router inside a cluster's :class:`~repro.cluster.layout.Layout`
    is never changed: :meth:`split` and :meth:`reserve` build the next
    one, which the nameserver swaps in with the rest of the layout.
    """

    def __init__(self, partitions: int) -> None:
        if partitions < 1:
            raise StorageError(
                f"router needs at least one partition, got {partitions}")
        self.base = partitions
        # (modulus, residue) -> partition id, and the inverse.
        self._entries: Dict[Tuple[int, int], int] = {
            (partitions, residue): residue
            for residue in range(partitions)}
        self._homes: Dict[int, Tuple[int, int]] = {
            residue: (partitions, residue)
            for residue in range(partitions)}
        self._next_id = partitions

    # ------------------------------------------------------------------
    # lookup

    def route(self, hashed: int) -> int:
        """Partition id owning a hash value."""
        modulus = self.base
        for _ in range(MAX_SPLIT_DEPTH + 1):
            pid = self._entries.get((modulus, hashed % modulus))
            if pid is not None:
                return pid
            modulus <<= 1
        raise StorageError(
            f"routing table has no entry for hash {hashed}")

    def partition_ids(self) -> List[int]:
        """Live partition ids, sorted (deterministic fan-out order)."""
        return sorted(self._homes)

    @property
    def next_id(self) -> int:
        """The first partition id no split has planned yet."""
        return self._next_id

    # ------------------------------------------------------------------
    # split

    def plan_split(self, partition_id: int) -> SplitPlan:
        """Compute the fork of one entry into two fresh child ids.

        Planning changes nothing; :meth:`commit_split` installs it.
        """
        home = self._homes.get(partition_id)
        if home is None:
            raise StorageError(
                f"cannot split partition {partition_id}: not in the "
                f"routing table")
        modulus, residue = home
        if modulus >= self.base << MAX_SPLIT_DEPTH:
            raise StorageError(
                f"partition {partition_id} reached the maximum "
                f"split depth")
        left = self._next_id
        return SplitPlan(parent=partition_id, left=left, right=left + 1,
                         modulus=modulus * 2, left_residue=residue,
                         right_residue=residue + modulus)

    def commit_split(self, plan: SplitPlan) -> None:
        """Replace the parent entry with its two children."""
        parent_home = (plan.modulus // 2, plan.left_residue)
        if self._homes.get(plan.parent) != parent_home:
            raise StorageError(
                f"split of partition {plan.parent} lost a race: its "
                f"routing entry changed underneath the plan")
        del self._entries[parent_home]
        del self._homes[plan.parent]
        self._entries[(plan.modulus, plan.left_residue)] = plan.left
        self._entries[(plan.modulus, plan.right_residue)] = plan.right
        self._homes[plan.left] = (plan.modulus, plan.left_residue)
        self._homes[plan.right] = (plan.modulus, plan.right_residue)
        self._next_id = max(self._next_id, plan.right + 1)

    def split(self, plan: SplitPlan) -> "HashRouter":
        """A new router with ``plan`` committed; this one is unchanged."""
        router = HashRouter.from_state(self.state())
        router.commit_split(plan)
        return router

    def reserve(self, partition_id: int) -> "HashRouter":
        """A new router whose next plan cannot reuse ``partition_id``."""
        router = HashRouter.from_state(self.state())
        router._next_id = max(self._next_id, partition_id + 1)
        return router

    # ------------------------------------------------------------------
    # durability (the nameserver persists this with the table layout)

    def state(self) -> Dict[str, Any]:
        """Plain-data snapshot, JSON-serialisable."""
        return {"base": self.base, "next_id": self._next_id,
                "entries": sorted(
                    [modulus, residue, pid]
                    for (modulus, residue), pid in self._entries.items())}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HashRouter":
        router = cls(int(state["base"]))
        entries = {(int(m), int(r)): int(pid)
                   for m, r, pid in state["entries"]}
        router._entries = entries
        router._homes = {pid: key for key, pid in entries.items()}
        router._next_id = int(state["next_id"])
        return router


@dataclasses.dataclass
class SplitReport:
    """What one committed split did."""

    table: str
    parent_ids: Tuple[int, ...]
    child_ids: Tuple[int, ...]
    freeze_offsets: Dict[int, int] = dataclasses.field(default_factory=dict)
    moved_entries: Dict[int, int] = dataclasses.field(default_factory=dict)
    seconds: float = 0.0


class PartitionSplitter:
    """Online split executor over one cluster."""

    def __init__(self, cluster: "NameServer",
                 obs: Optional[Observability] = None) -> None:
        self._cluster = cluster
        self._obs = obs if obs is not None else cluster.obs
        registry = self._obs.registry
        self._m_splits = registry.counter("ctl.splits")
        self._m_moved = registry.counter("ctl.split.moved_entries")
        self._h_split = registry.histogram("ctl.split.ms")

    # ------------------------------------------------------------------

    def split(self, table_name: str, partition_id: int) -> SplitReport:
        """Fork one live partition into two children, online.

        Writes to the partition pause for the duration (they hold the
        same per-partition lock every ``put`` takes); reads keep being
        served by the parent until the child routing is installed, then
        re-route.  Returns a :class:`SplitReport`.
        """
        ns = self._cluster
        table = ns.table_info(table_name)
        start = time.perf_counter()
        with self._obs.tracer.span("ctl.split", table=table_name,
                                   partition=partition_id) as span:
            with ns.partition_lock(table_name, partition_id):
                layout = table.layout
                plan = layout.router.plan_split(partition_id)
                binlog = table.binlogs[partition_id]
                freeze_offset = binlog.last_offset
                placement = list(layout.placement[partition_id])
                leader = self._leader_name(table_name, partition_id,
                                           layout, placement)
                key_position = table.schema.position(
                    table.indexes[0].key_columns[0])
                children = {}
                try:
                    for child in (plan.left, plan.right):
                        children[child] = ns.register_partition(
                            table_name, child, placement, leader)
                    moved = self._fork_entries(
                        ns, table_name, placement, leader, binlog, plan,
                        key_position, children)
                except BaseException:
                    # Any failure of the child build (a dead tablet, a
                    # leader past its memory limit) unwinds the
                    # half-built children; the parent never stopped
                    # serving, so the split simply didn't happen.
                    for child in children:
                        ns.retire_partition(table_name, child)
                    raise
                ns.retire_partition(table_name, partition_id, split=plan)
            span.set_tag(left=plan.left, right=plan.right,
                         moved=sum(moved.values()))
        seconds = time.perf_counter() - start
        self._m_splits.inc()
        self._m_moved.inc(sum(moved.values()))
        self._h_split.observe(seconds * 1_000.0)
        return SplitReport(
            table=table_name, parent_ids=(partition_id,),
            child_ids=(plan.left, plan.right),
            freeze_offsets={partition_id: freeze_offset},
            moved_entries=moved, seconds=seconds)

    # ------------------------------------------------------------------

    def _leader_name(self, table_name: str, partition_id: int,
                     layout: Any, placement: List[str]) -> str:
        """The replica to lead the children: the parent's live leader,
        else the first live replica (the parent had no leader — the
        children start in the same degraded state)."""
        tablets = self._cluster.tablets
        leader = layout.leaders.get(partition_id)
        if leader is not None and tablets[leader].alive:
            return leader
        for name in placement:
            if tablets[name].alive:
                return name
        raise StorageError(
            f"cannot split {table_name}[{partition_id}]: no live replica")

    def _fork_entries(self, ns: "NameServer", table_name: str,
                      placement: List[str], leader: str, binlog: Any,
                      plan: SplitPlan, key_position: int,
                      children: Dict[int, Any]) -> Dict[int, int]:
        """Fork the frozen parent binlog into the child binlogs, then
        catch each child's replicas up from its binlog, leader first.

        The leader must apply (a child whose leader cannot hold the data
        is a failed split); a follower that cannot is left lagging, to
        be repaired by catch-up or failover, like the normal write path.
        """
        from ..cluster.failover import catch_up
        moved = {plan.left: 0, plan.right: 0}
        for row in binlog.rows_from(0):
            child = plan.child_for(stable_hash(row[key_position]))
            children[child].append_entry(table_name, row)
            moved[child] += 1
        for child, child_binlog in children.items():
            catch_up(ns.tablets[leader], table_name, child, child_binlog)
            for name in placement:
                if name != leader:
                    try:
                        catch_up(ns.tablets[name], table_name, child,
                                 child_binlog)
                    except (StorageError, MemoryLimitExceededError):
                        pass  # left lagging, as a put's delivery leaves it
        return moved
