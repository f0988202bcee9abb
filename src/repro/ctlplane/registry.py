"""Tenant registry: per-tenant rate and memory budgets.

Production feature platforms multiplex many teams over one cluster
(FeatInsight runs this way over OpenMLDB), so one tenant's burst must
not consume another tenant's latency budget.  The registry gives each
tenant two budgets and a shared enforcement point:

* a **rate budget** — a token bucket (``rate_per_sec`` sustained,
  ``burst`` instantaneous) charged by
  :meth:`TenantRegistry.acquire` at the serving frontend *before*
  admission control, so an over-rate tenant is shed at the door and
  never occupies a queue slot;
* a **memory budget** — a byte ceiling charged by
  :meth:`TenantRegistry.charge` on the cluster write path with the
  row's encoded size, the same accounting unit the per-tablet
  :class:`~repro.memory.governor.MemoryGovernor` uses.

Both violations raise :class:`~repro.errors.TenantBudgetError`, an
:class:`~repro.errors.OverloadError` subclass, so the shed crosses
``repro.netserve`` as a retryable class-53 SQLSTATE (``53400``) and
the frontend's shed counters pick it up like any other admission
rejection.  Unregistered tenants (and the empty tenant ``""``, i.e.
budget-less callers) pass through unmetered — budgets are opt-in per
tenant, not a global admission switch.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Dict, Optional

from ..errors import StorageError, TenantBudgetError
from ..obs import NULL_OBS, Observability

__all__ = ["TenantBudget", "TenantRegistry"]


@dataclasses.dataclass
class TenantBudget:
    """One tenant's budgets and live accounting.

    ``rate_per_sec``/``memory_bytes`` of ``None`` mean that budget is
    unlimited.  ``tokens`` and ``used_bytes`` are live state owned by
    the registry; read them for introspection, don't write them.
    """

    name: str
    rate_per_sec: Optional[float] = None
    burst: int = 0
    memory_bytes: Optional[int] = None
    tokens: float = 0.0
    refilled_at: float = 0.0
    used_bytes: int = 0


class TenantRegistry:
    """Thread-safe budget registry shared by frontend and cluster.

    Args:
        obs: observability handle; per-tenant counters/gauges land in
            its registry under ``tenant.*`` series.
        clock: monotonic-seconds source, injectable for deterministic
            token-bucket tests.
    """

    def __init__(self, obs: Optional[Observability] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._obs = obs if obs is not None else NULL_OBS
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantBudget] = {}

    def register(self, name: str, rate_per_sec: Optional[float] = None,
                 burst: Optional[int] = None,
                 memory_bytes: Optional[int] = None) -> TenantBudget:
        """Create or replace a tenant's budgets.

        ``burst`` defaults to one second's worth of tokens (at least 1)
        so a registered rate is usable without tuning two knobs.
        """
        if not name:
            raise StorageError("tenant name must be non-empty")
        if rate_per_sec is not None and rate_per_sec <= 0:
            raise StorageError("rate_per_sec must be > 0 (or None)")
        if memory_bytes is not None and memory_bytes <= 0:
            raise StorageError("memory_bytes must be > 0 (or None)")
        if burst is None:
            burst = max(1, int(rate_per_sec)) if rate_per_sec else 0
        budget = TenantBudget(name=name, rate_per_sec=rate_per_sec,
                              burst=burst, memory_bytes=memory_bytes,
                              tokens=float(burst),
                              refilled_at=self._clock())
        with self._lock:
            self._tenants[name] = budget
        return budget

    # ------------------------------------------------------------------
    # rate budget (request path)

    def acquire(self, tenant: str, deployment: str = "") -> None:
        """Charge one request token; raise if the tenant is over rate.

        Raises:
            TenantBudgetError: token bucket empty
                (``reason="tenant_rate"``).
        """
        if not tenant:
            return
        with self._lock:
            budget = self._tenants.get(tenant)
            if budget is None or budget.rate_per_sec is None:
                self._count(tenant, "tenant.requests")
                return
            now = self._clock()
            elapsed = max(0.0, now - budget.refilled_at)
            budget.tokens = min(float(budget.burst),
                                budget.tokens
                                + elapsed * budget.rate_per_sec)
            budget.refilled_at = now
            if budget.tokens < 1.0:
                self._count(tenant, "tenant.shed", reason="tenant_rate")
                raise TenantBudgetError(
                    f"tenant {tenant!r} over rate budget "
                    f"({budget.rate_per_sec:g}/s, burst {budget.burst})",
                    tenant=tenant, deployment=deployment,
                    reason="tenant_rate")
            budget.tokens -= 1.0
            self._count(tenant, "tenant.requests")

    # ------------------------------------------------------------------
    # memory budget (write path)

    def charge(self, tenant: str, nbytes: int, table: str = "") -> None:
        """Charge ``nbytes`` against the tenant's memory budget.

        Raises:
            TenantBudgetError: the charge would exceed the budget
                (``reason="tenant_memory"``); nothing is charged.
        """
        if not tenant or nbytes <= 0:
            return
        with self._lock:
            budget = self._tenants.get(tenant)
            if budget is None:
                return
            if budget.memory_bytes is not None \
                    and budget.used_bytes + nbytes > budget.memory_bytes:
                self._count(tenant, "tenant.shed",
                            reason="tenant_memory")
                raise TenantBudgetError(
                    f"tenant {tenant!r} over memory budget "
                    f"({budget.used_bytes + nbytes} > "
                    f"{budget.memory_bytes} bytes)",
                    tenant=tenant, deployment=table,
                    reason="tenant_memory")
            budget.used_bytes += nbytes
            self._obs.registry.gauge(
                "tenant.memory.bytes",
                tenant=tenant).set(budget.used_bytes)

    def release(self, tenant: str, nbytes: int) -> None:
        """Return ``nbytes`` to the tenant's memory budget (e.g. TTL
        eviction or a failed write unwinding its charge)."""
        if not tenant or nbytes <= 0:
            return
        with self._lock:
            budget = self._tenants.get(tenant)
            if budget is None:
                return
            budget.used_bytes = max(0, budget.used_bytes - nbytes)
            self._obs.registry.gauge(
                "tenant.memory.bytes",
                tenant=tenant).set(budget.used_bytes)

    # ------------------------------------------------------------------

    def _count(self, tenant: str, series: str, **labels) -> None:
        self._obs.registry.counter(series, tenant=tenant, **labels).inc()
