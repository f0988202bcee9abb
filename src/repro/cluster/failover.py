"""Failover protocol pieces: retry policy, heartbeat monitor, election.

The nameserver composes three small mechanisms into the availability
story of Section 3.1 / 8.2:

* :class:`RetryPolicy` — bounded retries with exponential backoff and a
  per-RPC timeout.  A routed call that fails (dead, partitioned, or slow
  tablet) is retried against whatever replica the *re-run* routing step
  picks, so a retry after failover lands on the new leader.
* :class:`HeartbeatMonitor` — the ZooKeeper-session stand-in.  Tablets
  are polled for heartbeats; one that stays silent past the timeout is
  declared dead, which triggers leadership transfers.
* :func:`elect_leader` / :func:`catch_up` — election of the most
  caught-up live follower, which first replays the binlog suffix it
  has not yet applied, so an acknowledged write is never lost by a
  leadership change.

Everything here is deterministic: time is passed in explicitly where it
matters, so tests can drive detection without sleeping.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import MemoryLimitExceededError, StorageError
from ..online.binlog import Replicator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .tablet import TabletServer

__all__ = ["RetryPolicy", "HeartbeatMonitor", "elect_leader", "catch_up"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and per-RPC timeout.

    ``attempts`` counts *retries*, i.e. a call is issued at most
    ``attempts + 1`` times.  Backoff for retry ``n`` (1-based) is
    ``base_delay_ms * multiplier ** (n - 1)`` capped at
    ``max_delay_ms``.  ``rpc_timeout_ms`` is handed to every routed
    tablet call; the fault injector turns partitioned/slowed tablets
    into :class:`~repro.errors.RpcTimeoutError` against it.
    """

    attempts: int = 2
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    max_delay_ms: float = 50.0
    rpc_timeout_ms: float = 100.0

    def backoff_ms(self, retry: int) -> float:
        """Delay before the ``retry``-th retry (1-based)."""
        if retry <= 0:
            return 0.0
        delay = self.base_delay_ms * (self.multiplier ** (retry - 1))
        return min(delay, self.max_delay_ms)


#: Silence after which a tablet is declared dead.
HEARTBEAT_TIMEOUT_MS = 3_000.0


class HeartbeatMonitor:
    """Tracks per-tablet heartbeat recency and declares expiries.

    The nameserver calls :meth:`observe` for every tablet on each
    liveness sweep; a tablet whose last successful heartbeat is older
    than :data:`HEARTBEAT_TIMEOUT_MS` is reported expired.  Time is an
    explicit ``now_ms`` argument so tests drive the clock.
    """

    def __init__(self) -> None:
        self._last_beat: Dict[str, float] = {}

    def observe(self, tablet_name: str, beat_ok: bool,
                now_ms: float) -> bool:
        """Record one heartbeat poll; returns True if the tablet expired."""
        last = self._last_beat.setdefault(tablet_name, now_ms)
        if beat_ok:
            self._last_beat[tablet_name] = now_ms
            return False
        return (now_ms - last) >= HEARTBEAT_TIMEOUT_MS

    def forget(self, tablet_name: str) -> None:
        """Reset a tablet's record (on rejoin, so old silence is erased)."""
        self._last_beat.pop(tablet_name, None)


def elect_leader(candidates: Sequence["TabletServer"], table_name: str,
                 partition_id: int, binlog: Replicator
                 ) -> Tuple[Optional["TabletServer"], int]:
    """Promote the most caught-up live candidate, after it replays the
    binlog suffix it has not applied (:func:`catch_up`).

    Ties break on tablet name so elections are deterministic; a
    candidate that dies (or cannot absorb the suffix) mid-replay yields
    to the next.  Returns the new leader — None when no live candidate
    hosts the shard — and the entries it replayed.
    """
    live: List["TabletServer"] = [
        tablet for tablet in candidates
        if tablet.alive and tablet.has_shard(table_name, partition_id)]
    while live:
        best = max(live, key=lambda tablet: (
            tablet.shard(table_name, partition_id).applied_offset,
            tablet.name))
        try:
            return best, catch_up(best, table_name, partition_id, binlog)
        except (StorageError, MemoryLimitExceededError):
            # Programming errors propagate.
            live.remove(best)
    return None, 0


def catch_up(tablet: "TabletServer", table_name: str, partition_id: int,
             binlog: Replicator) -> int:
    """Replay the binlog suffix a replica has not yet applied.

    This is the promotion (and rejoin) path: every acknowledged write is
    in the partition binlog, so applying ``rows_from(applied + 1)``
    makes the replica exactly as complete as the acknowledged prefix.
    Returns the number of entries replayed.

    Raises:
        StorageError: if the tablet dies mid-replay (the caller should
            elect a different candidate).
    """
    start = tablet.shard(table_name, partition_id).applied_offset + 1
    rows = binlog.rows_from(start)
    for offset, row in enumerate(rows, start):
        if tablet.replicate(table_name, partition_id, row, offset) < offset:
            raise StorageError(
                f"{tablet.name} could not apply binlog offset "
                f"{offset} for {table_name}[{partition_id}]")
    return len(rows)
