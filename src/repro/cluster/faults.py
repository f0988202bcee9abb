"""Fault injection for the simulated cluster (tests + bench harness).

A :class:`FaultInjector` attaches to a :class:`~repro.cluster.NameServer`
and lets a test or benchmark script break the cluster in controlled,
deterministic ways:

* ``kill`` / ``revive`` — crash a tablet (it stops serving) and bring it
  back, catching its shards up from the partition binlogs;
* ``partition`` — the tablet stays up but becomes unreachable: RPCs to
  it raise :class:`~repro.errors.RpcTimeoutError` and its heartbeats are
  lost, so the nameserver's liveness sweep declares it dead;
* ``slow`` — RPCs to the tablet are delayed; a delay at or past the
  caller's per-RPC timeout becomes a timeout error;
* ``drop_replication`` — suppress binlog entry delivery to one
  follower, making replication lag visible (the
  ``cluster.replication.lag`` gauge) and exercising the catch-up path
  when delivery resumes.

The injector is consulted from two hook points: every tablet RPC guard
(:meth:`on_rpc`, :meth:`heartbeat_ok`) and the nameserver's replication
fan-out (:meth:`on_replicate`).  All state is plain and inspectable; no
randomness is involved.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Set, TYPE_CHECKING

from ..errors import RpcTimeoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..storage.persist import RecoveryReport
    from .nameserver import NameServer

__all__ = ["FaultInjector"]


class FaultInjector:
    """Deterministic fault injection over one simulated cluster."""

    def __init__(self, cluster: "NameServer") -> None:
        self._cluster = cluster
        self._lock = threading.Lock()
        self._partitioned: Set[str] = set()
        self._slow_ms: Dict[str, float] = {}
        # follower name -> entries still to drop (None = until healed)
        self._drop_replication: Dict[str, Optional[int]] = {}
        self.dropped_entries = 0
        cluster.attach_faults(self)

    # ------------------------------------------------------------------
    # fault controls

    def kill(self, tablet_name: str) -> None:
        """Crash a tablet: it stops serving until :meth:`revive`."""
        self._cluster.tablets[tablet_name].fail()

    def revive(self, tablet_name: str) -> int:
        """Restart a crashed tablet and catch its shards up.

        Returns the number of binlog entries replayed while rejoining.
        """
        self.heal(tablet_name)
        return self._cluster.reintegrate(tablet_name)

    def crash_restart(self, tablet_name: str) -> "RecoveryReport":
        """Full crash/restart round trip with real memory loss.

        Unlike :meth:`kill`/:meth:`revive` (where the dead tablet's
        stores survive in the simulation's process memory), this
        scenario wipes the tablet's in-memory state entirely — what an
        actual process crash does — fails its led shards over, then
        restarts it from its snapshot images plus the durable binlog
        tail via :meth:`NameServer.restart_tablet`.  Returns that
        restart's :class:`~repro.storage.persist.RecoveryReport`.
        """
        cluster = self._cluster
        tablet = cluster.tablets[tablet_name]
        tablet.fail()
        tablet.wipe()
        cluster.handle_failure(tablet_name)
        self.heal(tablet_name)
        return cluster.restart_tablet(tablet_name)

    def partition(self, tablet_name: str) -> None:
        """Network-partition a tablet: up, but unreachable."""
        with self._lock:
            self._partitioned.add(tablet_name)

    def slow(self, tablet_name: str, delay_ms: float) -> None:
        """Delay every RPC to a tablet by ``delay_ms``."""
        with self._lock:
            self._slow_ms[tablet_name] = delay_ms

    def drop_replication(self, tablet_name: str,
                         count: Optional[int] = None) -> None:
        """Drop the next ``count`` replicated entries to a follower.

        With ``count=None`` every entry is dropped until :meth:`heal` —
        the follower's lag grows monotonically, which is the scenario
        leader promotion must repair from the binlog.
        """
        with self._lock:
            self._drop_replication[tablet_name] = count

    def heal(self, tablet_name: Optional[str] = None) -> None:
        """Clear injected faults for one tablet (or every tablet)."""
        with self._lock:
            if tablet_name is None:
                self._partitioned.clear()
                self._slow_ms.clear()
                self._drop_replication.clear()
            else:
                self._partitioned.discard(tablet_name)
                self._slow_ms.pop(tablet_name, None)
                self._drop_replication.pop(tablet_name, None)

    # ------------------------------------------------------------------
    # hook points (called by tablets and the nameserver)

    def on_rpc(self, tablet_name: str,
               timeout_ms: Optional[float]) -> None:
        """Apply partition/slow faults to one RPC; may raise or sleep."""
        with self._lock:
            partitioned = tablet_name in self._partitioned
            delay_ms = self._slow_ms.get(tablet_name, 0.0)
        if partitioned:
            raise RpcTimeoutError(
                f"rpc to {tablet_name} timed out (network partition)")
        if delay_ms:
            if timeout_ms is not None and delay_ms >= timeout_ms:
                raise RpcTimeoutError(
                    f"rpc to {tablet_name} exceeded {timeout_ms:g} ms "
                    f"timeout (injected {delay_ms:g} ms delay)")
            time.sleep(delay_ms / 1_000.0)

    def heartbeat_ok(self, tablet_name: str) -> bool:
        """Whether a heartbeat from this tablet reaches the nameserver."""
        with self._lock:
            return tablet_name not in self._partitioned

    def on_replicate(self, tablet_name: str) -> bool:
        """Gate one binlog entry's delivery to a follower.

        Returns False to drop the entry.
        """
        with self._lock:
            if tablet_name in self._drop_replication:
                remaining = self._drop_replication[tablet_name]
                if remaining is None:
                    self.dropped_entries += 1
                    return False
                if remaining > 0:
                    remaining -= 1
                    if remaining:
                        self._drop_replication[tablet_name] = remaining
                    else:
                        del self._drop_replication[tablet_name]
                    self.dropped_entries += 1
                    return False
                del self._drop_replication[tablet_name]
        return True
