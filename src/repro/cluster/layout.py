"""A table's layout: its routing, placement and leaders as one value.

The control plane decides where each partition lives and who leads it;
the data plane routes every call to that leader.  The two meet in one
frozen :class:`Layout` per table: the routing directory, each
partition's replica tablets, its leader, the ids a split retired, and
an ``epoch``.  No field changes in place.  Create, split, migration,
failover, reintegration and restart each build the next value with one
of the transitions below, and the nameserver swaps it in whole, one
epoch later, under its control-plane lock
(:meth:`~repro.cluster.NameServer.update_layout`).

So the two invariants a cluster history must keep are checkable on
every value: the epoch only moves forward, and at each epoch every
partition has at most one leader, one of its own replicas.  A request
reads one layout and resolves every partition against it; a write
checks, under its partition lock, that the epoch has not moved since.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..ctlplane.split import HashRouter, SplitPlan
from ..errors import StorageError

__all__ = ["Layout"]


def _frozen(mapping: Dict[int, Any]) -> Mapping[int, Any]:
    return types.MappingProxyType(mapping)


@dataclasses.dataclass(frozen=True)
class Layout:
    """One table's routing, placement and leaders at one epoch.

    ``placement`` maps a partition to its replica tablets (the first led
    it at creation); ``leaders`` maps it to the replica taking its
    writes, ``None`` once no replica is alive to take them.  A partition
    is placed before the router sends keys to it (a split's children
    are built there), and leaves placement for ``retired`` when a split
    replaces it.
    """

    router: HashRouter
    placement: Mapping[int, Tuple[str, ...]]
    leaders: Mapping[int, Optional[str]]
    retired: FrozenSet[int] = frozenset()
    epoch: int = 1

    @classmethod
    def initial(cls, tablets: Sequence[str], partitions: int,
                replicas: int) -> "Layout":
        """Round-robin placement, each partition led by its first
        replica."""
        placement = {
            pid: tuple(tablets[(pid + replica) % len(tablets)]
                       for replica in range(replicas))
            for pid in range(partitions)}
        return cls(HashRouter(partitions), _frozen(placement),
                   _frozen({pid: names[0]
                            for pid, names in placement.items()}))

    def _next(self, **changes: Any) -> "Layout":
        for name in ("placement", "leaders"):
            if name in changes:
                changes[name] = _frozen(changes[name])
        return dataclasses.replace(self, epoch=self.epoch + 1, **changes)

    # ------------------------------------------------------------------
    # transitions: each returns the next layout (or this one, unchanged)

    def led(self, leaders: Mapping[int, Optional[str]]) -> "Layout":
        """Leadership changes: partition → its new leader (or None)."""
        if all(self.leaders.get(pid) == name
               for pid, name in leaders.items()):
            return self
        return self._next(leaders={**self.leaders, **leaders})

    def placed(self, partition_id: int, replicas: Sequence[str],
               leader: str) -> "Layout":
        """A new partition (a split child) on ``replicas``, its id
        reserved in the router so no later plan reuses it."""
        if partition_id in self.placement \
                or partition_id < self.router.next_id:
            raise StorageError(
                f"partition id {partition_id} is taken: a concurrent "
                f"split planned it first")
        return self._next(
            router=self.router.reserve(partition_id),
            placement={**self.placement, partition_id: tuple(replicas)},
            leaders={**self.leaders, partition_id: leader},
            retired=self.retired - {partition_id})

    def retiring(self, partition_id: int,
                 split: Optional[SplitPlan] = None) -> "Layout":
        """Take a partition out of service; with a ``split`` plan, the
        router hands its keys to the children in the same step."""
        if partition_id not in self.placement and split is None:
            return self
        placement = dict(self.placement)
        leaders = dict(self.leaders)
        placement.pop(partition_id, None)
        leaders.pop(partition_id, None)
        router = self.router if split is None else self.router.split(split)
        return self._next(router=router, placement=placement,
                          leaders=leaders,
                          retired=self.retired | {partition_id})

    def moved(self, partition_id: int, source: str,
              target: str) -> "Layout":
        """A migration's handoff: ``target`` replaces ``source`` in the
        replica group, and takes over its leadership if it had it."""
        replicas = self.placement.get(partition_id)
        if replicas is None:
            raise StorageError(f"no live partition {partition_id}")
        if source not in replicas or target in replicas:
            raise StorageError(
                f"cannot move partition {partition_id} from {source} to "
                f"{target}: its replicas are {', '.join(replicas)}")
        leader = self.leaders.get(partition_id)
        return self._next(
            placement={**self.placement, partition_id: tuple(
                target if name == source else name for name in replicas)},
            leaders={**self.leaders,
                     partition_id: target if leader == source else leader})

    # ------------------------------------------------------------------
    # durability: ``<data_dir>/layout/<table>.json``

    def state(self) -> Dict[str, Any]:
        """Plain-data form, JSON-serialisable (and equal to its own JSON
        round trip)."""
        return {"epoch": self.epoch,
                "router": self.router.state(),
                "assignment": {str(pid): list(names)
                               for pid, names in self.placement.items()},
                "leaders": {str(pid): name
                            for pid, name in self.leaders.items()},
                "retired": sorted(self.retired)}

    def save(self, path: str) -> None:
        """Write atomically (tmp + ``os.replace``): a crash mid-save
        leaves the previous layout, whose partitions' binlogs are all
        still complete."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.state(), handle)
        os.replace(path + ".tmp", path)

    @classmethod
    def load(cls, path: str) -> Optional["Layout"]:
        """The layout saved at ``path``, or None if there is none."""
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_state(json.load(handle))

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Layout":
        return cls(
            router=HashRouter.from_state(state["router"]),
            placement=_frozen({int(pid): tuple(names) for pid, names
                               in state["assignment"].items()}),
            leaders=_frozen({int(pid): name for pid, name
                             in state["leaders"].items()}),
            retired=frozenset(state.get("retired", ())),
            epoch=int(state.get("epoch", 1)))
