"""Runtime memory management (paper Section 8.2).

Two mechanisms keep tablets from being OOM-killed:

* **Memory resource isolation** — a per-tablet ``max_memory_mb``; once
  usage crosses it, *writes fail but reads continue*, keeping the service
  online while operators scale or migrate shards.
* **Memory alerting** — callbacks fire when usage crosses a configurable
  fraction of the limit.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from ..errors import MemoryLimitExceededError

__all__ = ["MemoryGovernor"]

AlertCallback = Callable[[str, int, int], None]  # (tablet, used, limit)


class MemoryGovernor:
    """Tracks one tablet's memory and enforces its write limit.

    Args:
        tablet: tablet name (for alerts).
        max_memory_mb: hard write limit; ``None`` disables isolation.
        alert_fraction: usage fraction at which alerts fire.
    """

    def __init__(self, tablet: str, max_memory_mb: Optional[int] = None,
                 alert_fraction: float = 0.8) -> None:
        if max_memory_mb is not None and max_memory_mb <= 0:
            raise ValueError("max_memory_mb must be positive")
        if not 0.0 < alert_fraction <= 1.0:
            raise ValueError("alert_fraction must be in (0, 1]")
        self.tablet = tablet
        self.max_memory_bytes = (max_memory_mb * 1024 * 1024
                                 if max_memory_mb is not None else None)
        self.alert_fraction = alert_fraction
        self._used = 0
        self._lock = threading.Lock()
        self._alerts: List[AlertCallback] = []
        self._alerted = False
        self.rejected_writes = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def on_alert(self, callback: AlertCallback) -> None:
        """Register an alert callback (fires once per threshold crossing)."""
        self._alerts.append(callback)

    def charge(self, nbytes: int) -> None:
        """Account ``nbytes`` of incoming data for a write.

        Raises:
            MemoryLimitExceededError: when the write would cross the
                limit; the caller must leave the data unwritten (reads are
                unaffected — the isolation contract of Section 8.2).
        """
        with self._lock:
            if self.max_memory_bytes is not None \
                    and self._used + nbytes > self.max_memory_bytes:
                self.rejected_writes += 1
                raise MemoryLimitExceededError(
                    f"tablet {self.tablet!r}: write of {nbytes} B would "
                    f"exceed max_memory ({self._used} / "
                    f"{self.max_memory_bytes} B used); writes fail, reads "
                    "continue")
            self._used += nbytes
            crossed = (self.max_memory_bytes is not None
                       and self._used >= self.alert_fraction
                       * self.max_memory_bytes)
        if crossed and not self._alerted:
            self._alerted = True
            limit = self.max_memory_bytes or 0
            for callback in self._alerts:
                callback(self.tablet, self._used, limit)

    def release(self, nbytes: int) -> None:
        """Return memory after eviction/compaction."""
        with self._lock:
            self._used = max(self._used - nbytes, 0)
            if self.max_memory_bytes is not None and self._used \
                    < self.alert_fraction * self.max_memory_bytes:
                self._alerted = False
