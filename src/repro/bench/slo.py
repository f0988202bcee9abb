"""SLO-driven closed-loop benchmarking: paced clients + target-QPS search.

The closed-loop harness in :mod:`repro.bench.harness` measures *capacity*
(clients issue the next request the moment the previous returns), which
answers "how fast can the system go" but not the question an operator
asks: **how much traffic can it sustain while staying inside a latency
budget?**  This module answers that one:

* :func:`paced_loop` drives clients at a *target* aggregate rate.  Each
  client fires on a fixed schedule; a request's latency is measured from
  its **scheduled** start, not from when the client got around to
  sending it, so queueing delay caused by the system falling behind is
  charged to the system (the coordinated-omission correction — a
  saturated server cannot hide its backlog by slowing the load
  generator down).
* :func:`slo_search` steps the target rate up geometrically until the
  p99 leaves the budget (or errors exceed the tolerance), then binary
  searches the bracket — reporting the highest sustained QPS whose p99
  stays inside a fixed budget.  Run against a
  :class:`~repro.serving.FrontendServer` with ``timeout_ms`` set to the
  budget, overload sheds typed errors (PR 3's deadlines + shedding)
  instead of letting the queue absorb the tail; the search reads those
  errors as "over capacity".

``benchmarks/test_fig_slo.py`` records the result as ``fig_slo`` in
``BENCH_online.json`` — the standard headline number for scale PRs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, List, Optional

from .harness import LatencyStats, _notify_observers, _run_clients

__all__ = ["PacedResult", "paced_loop", "SLOStep", "SLOReport",
           "slo_search"]


@dataclasses.dataclass
class PacedResult:
    """Outcome of one :func:`paced_loop` run at a fixed target rate."""

    target_qps: float
    offered: int                    # requests scheduled (and attempted)
    #: Scheduled-start → completion, seconds.  Includes the time a
    #: request spent waiting for its client to catch up with the
    #: schedule — the coordinated-omission correction.
    latencies: List[float]
    errors: List[BaseException]     # exceptions raised by ``call``
    #: Barrier release to the last client finishing its schedule.
    wall_seconds: float
    timed_out: bool = False

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def achieved_qps(self) -> float:
        if self.wall_seconds <= 0:
            raise ValueError(
                f"achieved_qps undefined: wall_seconds="
                f"{self.wall_seconds} (no measured wall-clock interval)")
        return self.completed / self.wall_seconds

    @property
    def error_rate(self) -> float:
        return len(self.errors) / self.offered if self.offered else 0.0

    def stats(self) -> LatencyStats:
        return LatencyStats.from_seconds(self.latencies)


def paced_loop(clients: int, target_qps: float, duration: float,
               call: Callable[[Any, int], Any], *,
               setup: Optional[Callable[[int], Any]] = None,
               teardown: Optional[Callable[[Any], Any]] = None,
               join_timeout: float = 120.0) -> PacedResult:
    """Drive ``call`` at ``target_qps`` aggregate for ``duration`` seconds.

    Each of the ``clients`` threads owns ``target_qps / clients`` of the
    rate and fires on a fixed schedule (client phases are staggered so
    the aggregate load is smooth, not ``clients``-sized bursts).  A
    client that falls behind does **not** skip requests: it issues the
    backlog as fast as it can, and each late request's latency includes
    how late it started — so p99 reflects what a request *scheduled* at
    that moment experienced.

    ``setup``/``teardown`` follow :func:`~repro.bench.harness.closed_loop`
    semantics exactly (per-client contexts, teardown only for created
    contexts, a failing setup aborts the run loudly), as does
    ``join_timeout`` (the result is marked ``timed_out``).
    """
    if clients < 1:
        raise ValueError("paced_loop needs at least one client")
    if target_qps <= 0 or duration <= 0:
        raise ValueError("target_qps and duration must be positive")
    per_client_rate = target_qps / clients
    per_client_n = max(1, int(round(duration * per_client_rate)))
    interval = 1.0 / per_client_rate
    run = _run_clients(
        "paced_loop", clients, per_client_n, call, setup=setup,
        teardown=teardown, join_timeout=join_timeout,
        schedule=lambda cid, index: (index + cid / clients) * interval)
    return _notify_observers(PacedResult(
        target_qps=target_qps, offered=clients * per_client_n,
        latencies=run.latencies, errors=run.errors,
        wall_seconds=run.wall_seconds, timed_out=run.timed_out))


@dataclasses.dataclass(frozen=True)
class SLOStep:
    """One measured rung of the :func:`slo_search` ladder."""

    target_qps: float
    achieved_qps: float
    p99_ms: float                   # inf when nothing completed
    error_rate: float
    completed: int
    offered: int
    met: bool
    reason: str                     # "ok" or why the SLO was missed

    def row(self) -> List[Any]:
        return [self.target_qps, self.achieved_qps, self.p99_ms,
                self.error_rate, "yes" if self.met else self.reason]


@dataclasses.dataclass
class SLOReport:
    """Outcome of one target-QPS search at a fixed p99 budget."""

    budget_p99_ms: float
    steps: List[SLOStep]

    @property
    def best(self) -> Optional[SLOStep]:
        """The highest-rate step that met the SLO (None: none did)."""
        met = [step for step in self.steps if step.met]
        return max(met, key=lambda step: step.target_qps) if met else None

    @property
    def sustained_qps(self) -> float:
        """Headline number: achieved QPS of the best step (0 if none)."""
        best = self.best
        return best.achieved_qps if best is not None else 0.0


def slo_search(call: Callable[[Any, int], Any], *,
               budget_p99_ms: float,
               clients: int = 4,
               duration: float = 0.5,
               start_qps: float = 50.0,
               max_qps: Optional[float] = None,
               growth: float = 2.0,
               refine_rounds: int = 3,
               max_error_rate: float = 0.01,
               min_achieved_fraction: float = 0.85,
               max_steps: int = 12,
               setup: Optional[Callable[[int], Any]] = None,
               teardown: Optional[Callable[[Any], Any]] = None,
               join_timeout: float = 120.0,
               on_step: Optional[Callable[[SLOStep], None]] = None
               ) -> SLOReport:
    """Find the highest sustained QPS whose p99 stays inside the budget.

    Ramp phase: run :func:`paced_loop` at ``start_qps`` and multiply by
    ``growth`` while the SLO holds (stopping at ``max_qps`` if given).
    Refine phase: once a rung misses, binary search the
    (last-good, first-bad) bracket for ``refine_rounds`` rounds.

    A rung *meets* the SLO when all of:

    * at least one request completed and the run did not time out,
    * p99 (scheduled-start based, so backlog counts) ≤ ``budget_p99_ms``,
    * the error rate (shed + failed requests over offered) ≤
      ``max_error_rate``,
    * achieved ≥ ``min_achieved_fraction`` × target — a generator that
      cannot keep its own schedule is over capacity even if the
      requests that did run were fast.
    """
    if budget_p99_ms <= 0:
        raise ValueError("budget_p99_ms must be positive")
    if growth <= 1.0:
        raise ValueError("growth must be > 1")

    steps: List[SLOStep] = []

    def measure(target: float) -> SLOStep:
        result = paced_loop(clients, target, duration, call,
                            setup=setup, teardown=teardown,
                            join_timeout=join_timeout)
        p99 = (result.stats().tp99 if result.completed
               else math.inf)
        achieved = (result.achieved_qps if result.wall_seconds > 0
                    else 0.0)
        reason = "ok"
        if result.timed_out:
            reason = "timed out"
        elif not result.completed:
            reason = "no completions"
        elif result.error_rate > max_error_rate:
            reason = (f"error rate {result.error_rate:.1%} > "
                      f"{max_error_rate:.1%}")
        elif p99 > budget_p99_ms:
            reason = f"p99 {p99:.2f} ms > budget {budget_p99_ms:g} ms"
        elif achieved < min_achieved_fraction * target:
            reason = (f"achieved {achieved:,.0f} < "
                      f"{min_achieved_fraction:.0%} of target")
        step = SLOStep(
            target_qps=target, achieved_qps=achieved, p99_ms=p99,
            error_rate=result.error_rate, completed=result.completed,
            offered=result.offered, met=(reason == "ok"), reason=reason)
        steps.append(step)
        if on_step is not None:
            on_step(step)
        return step

    # Ramp: geometric doubling until the SLO breaks or max_qps caps us.
    target = start_qps
    last_good: Optional[SLOStep] = None
    first_bad: Optional[SLOStep] = None
    while len(steps) < max_steps:
        step = measure(target)
        if step.met:
            last_good = step
            next_target = target * growth
            if max_qps is not None and target >= max_qps:
                break
            target = min(next_target, max_qps) if max_qps is not None \
                else next_target
        else:
            first_bad = step
            break

    # Refine: binary search the bracket (needs both sides).
    if last_good is not None and first_bad is not None:
        low, high = last_good.target_qps, first_bad.target_qps
        for _ in range(refine_rounds):
            if len(steps) >= max_steps or high - low <= max(low * 0.05, 1.0):
                break
            mid = (low + high) / 2.0
            step = measure(mid)
            if step.met:
                low = mid
            else:
                high = mid

    return SLOReport(budget_p99_ms=budget_p99_ms, steps=steps)
