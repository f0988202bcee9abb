"""The per-deployment execution router (the adaptive layer's core).

The router sits on the online request path.  Per window, per request,
:meth:`ExecutionRouter.decide` compares calibrated cost estimates:

* **incremental** — the measured EWMA of successful
  ``IncrementalWindowState.compute`` lookups (O(aggregates) on a hit);
* **preagg** — the measured EWMA of the bucket-merge + raw-edge path;
* **scan** — estimated scan blocks for the key × the measured per-block
  scan-and-fold cost (the paper's pre-aggregation motivation, Section
  5.1, turned into an online cost model).

An unmeasured tier costs 0.0, which makes the greedy argmin try each
available tier at least once before settling — self-calibration without
a separate exploration phase.

Between requests (every ``tick_interval`` requests), :meth:`tick`
adapts state:

* **promotion** — keys whose decayed request rate clears
  ``promote_min_rate`` and whose estimated saving justifies the ingest
  cost get incremental state provisioned at runtime
  (:meth:`IncrementalWindowState.provision_key`), charged against the
  memory governor's promotion budget (``try_reserve``) and rolled back
  if the reservation is declined;
* **demotion** — keys whose rate decays below ``demote_min_rate``
  (or the coldest keys, under a governor pressure callback) are retired
  and their reservation released;
* **bucket re-sizing** — when the live p50 of requested window spans
  says the DDL bucket width is off by more than ``rebucket_factor``
  (too coarse: every request raw-scans the edges; too fine: every
  request merges hundreds of buckets), the host deployment swaps in a
  freshly backfilled pre-aggregator sized to
  ``span_p50 / target_bucket_merges``.

All thresholds live in :class:`RouterConfig`.  The router's calibrated
state is a plain dict (:meth:`state_snapshot` / :meth:`restore_state`)
so deployments survive failover and shard migration warm.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import Ewma, NULL_OBS, Observability, RateWindow

__all__ = ["ExecutionRouter", "RouterConfig", "Tier"]


class Tier:
    """Execution tier names (string constants, also span/metric tags)."""

    INCREMENTAL = "incremental"
    PREAGG = "preagg"
    SCAN = "scan"


@dataclasses.dataclass(frozen=True)
class RouterConfig:
    """Thresholds and half-lives for one router instance.

    Attributes:
        tick_interval: requests between maintenance ticks (promotion /
            demotion / re-bucketing run amortised on the request path).
        cost_alpha: EWMA weight for cost calibration samples.
        key_rate_halflife_s: decay half-life for per-key request rates.
        promote_min_rate: requests/second on a key before promotion is
            considered at all.
        promote_min_saved_ms_per_s: promotion also requires
            ``rate × (scan_est − incr_est)`` to clear this — the saving
            must pay for the ingest-time maintenance.
        assumed_incremental_ms: incremental cost used before the first
            measured hit (keeps the benefit estimate finite).
        demote_min_rate: requests/second under which a tracked key is
            retired on the next tick.
        max_tracked_keys: per-window cap on promoted keys.
        max_candidate_keys: per-window cap on the key-rate map (the
            coldest half is dropped when it overflows).
        bytes_per_buffered_row: governor accounting per buffered tuple
            (row payload + aggregator slots, approximate by design —
            the governor budgets, it does not meter).
        promotion_headroom: fraction of the memory limit ``try_reserve``
            must leave free for real writes.
        pressure_fraction: governor usage fraction that triggers the
            demotion pressure callback.
        pressure_demote_fraction: fraction of tracked keys (coldest
            first) demoted when pressure fires.
        target_bucket_merges: desired bucket merges per preagg request;
            the bucket width chases ``span_p50 / target_bucket_merges``.
        rebucket_factor: hysteresis — only re-bucket when the current
            width is off the desired one by more than this factor.
        min_span_samples: observed spans required before re-bucketing.
        min_bucket_ms: floor for chosen bucket widths.
    """

    tick_interval: int = 256
    cost_alpha: float = 0.2
    key_rate_halflife_s: float = 30.0
    promote_min_rate: float = 0.5
    promote_min_saved_ms_per_s: float = 0.05
    assumed_incremental_ms: float = 0.05
    demote_min_rate: float = 0.02
    max_tracked_keys: int = 512
    max_candidate_keys: int = 2048
    bytes_per_buffered_row: int = 96
    promotion_headroom: float = 0.25
    pressure_fraction: float = 0.9
    pressure_demote_fraction: float = 0.25
    target_bucket_merges: int = 16
    rebucket_factor: float = 4.0
    min_span_samples: int = 32
    min_bucket_ms: int = 1_000


class _KeyStat:
    """Per-(window, key) observations: request rate + scan-block size."""

    __slots__ = ("rate", "blocks")

    def __init__(self, halflife_s: float, alpha: float) -> None:
        self.rate = RateWindow(halflife_s=halflife_s)
        self.blocks = Ewma(alpha=alpha)


class _WindowProfile:
    """Calibrated measurements for one deployed window."""

    __slots__ = ("per_block_ms", "scan_blocks", "incr_ms", "preagg_ms",
                 "request_rate", "keys", "pending", "tier_cache",
                 "spans", "span_samples", "preagg_queries")

    def __init__(self, config: RouterConfig) -> None:
        alpha = config.cost_alpha
        self.per_block_ms = Ewma(alpha=alpha)
        self.scan_blocks = Ewma(alpha=alpha)
        self.incr_ms = Ewma(alpha=alpha)
        self.preagg_ms = Ewma(alpha=alpha)
        self.request_rate = RateWindow(
            halflife_s=config.key_rate_halflife_s)
        self.keys: Dict[Any, _KeyStat] = {}
        #: key → request count since the last tick (folded into the
        #: decayed rate windows by ``_flush_pending``).
        self.pending: Dict[Any, int] = {}
        #: (key, has_incremental, has_preagg) → memoised tier choice,
        #: cleared every tick.  Tier choice is answer-invariant, so a
        #: memoised (slightly stale) decision can never change results
        #: — only skip re-evaluating the cost model per request.
        self.tier_cache: Dict[Any, str] = {}
        self.spans: List[int] = []
        self.span_samples = 0
        self.preagg_queries = 0

    def key_stat(self, key: Any, config: RouterConfig) -> _KeyStat:
        stat = self.keys.get(key)
        if stat is None:
            stat = _KeyStat(config.key_rate_halflife_s, config.cost_alpha)
            self.keys[key] = stat
        return stat


class ExecutionRouter:
    """Cost-based tier selection + state adaptation for one deployment.

    Args:
        config: thresholds; ``None`` takes the defaults.
        obs: observability handle for the ``online.router.*`` series.
        clock: monotonic-seconds source (injectable for deterministic
            tests; production uses ``time.monotonic``).

    The router is wired by the deployment layer
    (:meth:`repro.core.deployment.Deployment.initialize_adaptive`):
    ``bind_host`` hands it the deployment's incremental states and the
    re-bucketing hook, ``bind_governor`` the tablet's memory governor.
    The engine calls ``decide`` / ``observe_*`` / ``note_request`` /
    ``after_request`` from the request path.
    """

    def __init__(self, config: Optional[RouterConfig] = None,
                 obs: Optional[Observability] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or RouterConfig()
        self._clock = clock
        self._obs = obs or NULL_OBS
        self._profiles: Dict[str, _WindowProfile] = {}
        self._lock = threading.Lock()
        self._host: Optional[Any] = None
        self._governor: Optional[Any] = None
        self._since_tick = 0
        self._pressure_pending = False
        #: (window, key) → bytes reserved with the governor.
        self._charged: Dict[Tuple[str, Any], int] = {}
        #: window → keys to re-promote on the first tick (failover
        #: warm start, loaded by :meth:`restore_state`).
        self._warm_keys: Dict[str, List[Any]] = {}
        self.ticks = 0
        self.promotions = 0
        self.demotions = 0
        self.rebuckets = 0
        self.decisions: Dict[str, int] = {
            Tier.INCREMENTAL: 0, Tier.PREAGG: 0, Tier.SCAN: 0}
        registry = self._obs.registry
        self._m_decide = {
            tier: registry.labels(tier=tier).counter(
                "online.router.decisions")
            for tier in (Tier.INCREMENTAL, Tier.PREAGG, Tier.SCAN)}
        self._m_ticks = registry.counter("online.router.ticks")
        self._m_promotions = registry.counter("online.router.promotions")
        self._m_demotions = registry.counter("online.router.demotions")
        self._m_rebuckets = registry.counter("online.router.rebuckets")
        self._g_tracked = registry.gauge("online.router.tracked_keys")
        self._g_reserved = registry.gauge("online.router.reserved_bytes")

    # ------------------------------------------------------------------
    # wiring

    def bind_host(self, host: Any) -> None:
        """Attach the deployment: must expose ``incrementals`` (window →
        :class:`~repro.online.incremental.IncrementalWindowState`),
        ``preaggs`` (window → slot → aggregator) and
        ``rebucket_preagg(window, bucket_ms) -> bool``."""
        self._host = host

    def bind_governor(self, governor: Any) -> None:
        """Attach the memory governor funding promotions.

        Registers the demotion pressure callback: crossing
        ``pressure_fraction`` of the limit schedules a cold-key sweep
        on the next tick (callbacks run outside the governor lock, so
        only a flag is set here).
        """
        self._governor = governor
        if governor is not None and hasattr(governor, "on_pressure"):
            governor.on_pressure(self._on_pressure,
                                 fraction=self.config.pressure_fraction)

    def _on_pressure(self, _tablet: str, _used: int, _limit: int) -> None:
        self._pressure_pending = True

    # ------------------------------------------------------------------
    # request path

    def decide(self, window: str, key: Any, has_incremental: bool,
               has_preagg: bool) -> str:
        """Pick the cheapest available tier for one window evaluation.

        Cost model: scan ≈ estimated blocks for this key × measured
        per-block cost; incremental and preagg are measured directly.
        An unmeasured tier estimates 0.0 — optimistic, so each
        available tier gets tried and calibrated.  Ties break toward
        INCREMENTAL, then PREAGG (cheaper maintenance wins when the
        model cannot distinguish).

        Decisions are memoised per (key, availability) until the next
        tick: within a tick interval the cost estimates barely move,
        and every tier computes the identical answer, so re-running
        the argmin per request buys nothing but latency.
        """
        profile = self._profiles.get(window)
        if profile is None:
            with self._lock:
                profile = self._profiles.setdefault(
                    window, _WindowProfile(self.config))
        memo = (key, has_incremental, has_preagg)
        best_tier = profile.tier_cache.get(memo)
        if best_tier is None:
            stat = profile.keys.get(key)
            blocks = stat.blocks.get(profile.scan_blocks.get(1.0)) \
                if stat is not None else profile.scan_blocks.get(1.0)
            scan_cost = blocks * profile.per_block_ms.get(0.0)
            best_tier = Tier.SCAN
            best_cost = scan_cost
            if has_preagg:
                cost = profile.preagg_ms.get(0.0)
                if cost <= best_cost:
                    best_tier, best_cost = Tier.PREAGG, cost
            if has_incremental:
                cost = profile.incr_ms.get(0.0)
                if cost <= best_cost:
                    best_tier, best_cost = Tier.INCREMENTAL, cost
            profile.tier_cache[memo] = best_tier
        self.decisions[best_tier] += 1
        self._m_decide[best_tier].inc()
        return best_tier

    def note_request(self, window: str, key: Any) -> None:
        """Count one request for (window, key).

        Hot-path cost is a single dict increment; the exponential-decay
        rate bookkeeping runs once per tick (:meth:`_flush_pending`),
        not once per request.  A racing increment can drop a count —
        acceptable for metering, and cheaper than a lock per request.
        """
        profile = self._profiles.get(window)
        if profile is None:
            with self._lock:
                profile = self._profiles.setdefault(
                    window, _WindowProfile(self.config))
        pending = profile.pending
        pending[key] = pending.get(key, 0) + 1

    def observe_scan(self, window: str, key: Any, ms: float,
                     blocks: int) -> None:
        """Calibrate the scan tier from one measured scan-and-fold."""
        profile = self._profiles.get(window)
        if profile is None:
            return
        profile.scan_blocks.observe(blocks)
        profile.per_block_ms.observe(ms / max(blocks, 1))
        # Scans are the expensive path, so creating the per-key stat
        # here (instead of on every request) keeps the hit path lean.
        profile.key_stat(key, self.config).blocks.observe(blocks)

    def observe_incremental(self, window: str, ms: float,
                            hit: bool) -> None:
        """Calibrate the incremental tier (hits only — a declined
        lookup costs almost nothing and says nothing about hit cost)."""
        if not hit:
            return
        profile = self._profiles.get(window)
        if profile is not None:
            profile.incr_ms.observe(ms)

    def observe_preagg(self, window: str, ms: float) -> None:
        """Calibrate the preagg tier from one measured bucket-merge."""
        profile = self._profiles.get(window)
        if profile is None:
            return
        profile.preagg_ms.observe(ms)
        profile.preagg_queries += 1

    def observe_span(self, window: str, span_ms: int) -> None:
        """Feed one requested window span into the live distribution.

        Called for every request touching a preagg-backed window,
        whatever tier served it — the span a request *asks for* informs
        bucket sizing even when the answer came from a scan.
        """
        profile = self._profiles.get(window)
        if profile is None:
            with self._lock:
                profile = self._profiles.setdefault(
                    window, _WindowProfile(self.config))
        spans = profile.spans
        if len(spans) < 512:
            spans.append(span_ms)
        else:
            spans[profile.span_samples % 512] = span_ms
        profile.span_samples += 1

    def after_request(self) -> None:
        """Per-request epilogue: run a maintenance tick when due."""
        self._since_tick += 1
        if self._since_tick >= self.config.tick_interval \
                or self._pressure_pending:
            self.tick()

    # ------------------------------------------------------------------
    # maintenance

    def tick(self) -> None:
        """One maintenance pass: promote, demote, re-bucket.

        Runs inline on whichever request thread crossed the interval —
        amortised, and serialised by the router lock so concurrent
        requests never double-adapt.
        """
        if self._host is None:
            self._since_tick = 0
            return
        with self._lock:
            self._since_tick = 0
            pressure = self._pressure_pending
            self._pressure_pending = False
            now = self._clock()
            self.ticks += 1
            self._m_ticks.inc()
            self._flush_pending(now)
            self._trim_candidates(now)
            for window, state in list(self._host.incrementals.items()):
                if not getattr(state, "selective", False):
                    continue
                self._demote_cold(window, state, now, pressure)
                self._promote_hot(window, state, now)
            for window in list(self._host.preaggs):
                self._maybe_rebucket(window)
            tracked = sum(
                state.key_count
                for state in self._host.incrementals.values()
                if getattr(state, "selective", False))
            self._g_tracked.set(tracked)
            self._g_reserved.set(sum(self._charged.values()))

    def _flush_pending(self, now: float) -> None:
        """Fold batched request counts into the decayed rate windows.

        ``note_request`` only increments a plain per-window dict; the
        exponential-decay updates all happen here, once per tick, so
        their cost is amortised over ``tick_interval`` requests.
        """
        for profile in self._profiles.values():
            profile.tier_cache.clear()  # re-run the argmin next request
            pending = profile.pending
            if not pending:
                continue
            profile.pending = {}
            total = 0
            for key, count in pending.items():
                profile.key_stat(key, self.config).rate.record(
                    count=count, now=now)
                total += count
            profile.request_rate.record(count=total, now=now)

    def _trim_candidates(self, now: float) -> None:
        """Bound each window's key-rate map (drop the coldest half)."""
        cap = self.config.max_candidate_keys
        for profile in self._profiles.values():
            if len(profile.keys) <= cap:
                continue
            ranked = sorted(profile.keys.items(),
                            key=lambda item: item[1].rate.rate(now))
            for key, _stat in ranked[:len(ranked) - cap // 2]:
                del profile.keys[key]

    # -- incremental promotion / demotion ------------------------------

    def _promote_hot(self, window: str, state: Any, now: float) -> None:
        profile = self._profiles.get(window)
        if profile is None:
            return
        config = self.config
        budget = config.max_tracked_keys - state.key_count
        if budget <= 0:
            return
        incr_est = profile.incr_ms.get(config.assumed_incremental_ms)
        warm = self._warm_keys.pop(window, [])
        candidates: List[Tuple[float, Any]] = [
            (float("inf"), key) for key in warm]
        for key, stat in profile.keys.items():
            rate = stat.rate.rate(now)
            if rate < config.promote_min_rate:
                continue
            blocks = stat.blocks.get(profile.scan_blocks.get(1.0))
            scan_est = blocks * profile.per_block_ms.get(0.0)
            saved = rate * (scan_est - incr_est)
            if saved < config.promote_min_saved_ms_per_s:
                continue
            candidates.append((saved, key))
        candidates.sort(key=lambda item: -item[0])
        for _saved, key in candidates[:budget]:
            if (window, key) in self._charged:
                continue
            rows = state.provision_key(key)
            if rows is None:
                continue  # not caught up / raced an insert: next tick
            nbytes = (rows + 1) * config.bytes_per_buffered_row
            if self._governor is not None and not self._governor.try_reserve(
                    nbytes, headroom_fraction=config.promotion_headroom):
                state.retire_key(key)
                continue
            self._charged[(window, key)] = nbytes
            self.promotions += 1
            self._m_promotions.inc()

    def _demote_cold(self, window: str, state: Any, now: float,
                     pressure: bool) -> None:
        profile = self._profiles.get(window)
        config = self.config
        tracked = state.tracked_keys()
        if not tracked:
            return

        def rate_of(key: Any) -> float:
            if profile is None:
                return 0.0
            stat = profile.keys.get(key)
            return stat.rate.rate(now) if stat is not None else 0.0

        victims = [key for key in tracked
                   if rate_of(key) < config.demote_min_rate]
        if pressure:
            want = max(int(len(tracked) * config.pressure_demote_fraction),
                       1)
            if len(victims) < want:
                coldest = sorted(tracked, key=rate_of)
                for key in coldest:
                    if key not in victims:
                        victims.append(key)
                    if len(victims) >= want:
                        break
        for key in victims:
            state.retire_key(key)
            nbytes = self._charged.pop((window, key), 0)
            if nbytes and self._governor is not None:
                self._governor.release(nbytes)
            self.demotions += 1
            self._m_demotions.inc()

    # -- preagg bucket re-sizing ---------------------------------------

    def desired_bucket_ms(self, window: str) -> Optional[int]:
        """Bucket width the observed span distribution calls for.

        ``p50(span) / target_bucket_merges``, floored at
        ``min_bucket_ms``; ``None`` until ``min_span_samples`` preagg
        requests have been observed.
        """
        profile = self._profiles.get(window)
        if profile is None \
                or profile.span_samples < self.config.min_span_samples:
            return None
        spans = sorted(profile.spans)
        p50 = spans[len(spans) // 2]
        return max(p50 // self.config.target_bucket_merges,
                   self.config.min_bucket_ms)

    def _maybe_rebucket(self, window: str) -> None:
        desired = self.desired_bucket_ms(window)
        if desired is None:
            return
        slots = self._host.preaggs.get(window)
        if not slots:
            return
        current = next(iter(slots.values())).bucket_ms
        factor = self.config.rebucket_factor
        if current / desired < factor and desired / current < factor:
            return  # hysteresis: close enough, leave it alone
        if self._host.rebucket_preagg(window, desired):
            self.rebuckets += 1
            self._m_rebuckets.inc()

    # ------------------------------------------------------------------
    # failover / migration survival

    def state_snapshot(self) -> Dict[str, Any]:
        """Plain-data snapshot of the calibrated state.

        Carries the cost model, per-window bucket intent, and the hot
        key set (so a restarted or migrated deployment re-provisions
        them on its first tick instead of re-learning from cold).
        """
        with self._lock:
            windows: Dict[str, Any] = {}
            for name, profile in self._profiles.items():
                windows[name] = {
                    "per_block_ms": profile.per_block_ms.state(),
                    "scan_blocks": profile.scan_blocks.state(),
                    "incr_ms": profile.incr_ms.state(),
                    "preagg_ms": profile.preagg_ms.state(),
                    "spans": list(profile.spans),
                    "span_samples": profile.span_samples,
                }
            hot = {}
            for (window, key) in self._charged:
                hot.setdefault(window, []).append(key)
            if self._host is not None:
                for window, state in self._host.incrementals.items():
                    if getattr(state, "selective", False):
                        hot.setdefault(window, [])
                        for key in state.tracked_keys():
                            if key not in hot[window]:
                                hot[window].append(key)
            return {"windows": windows, "hot_keys": hot}

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Load a :meth:`state_snapshot` into this (fresh) router.

        Costs apply immediately; hot keys are queued for promotion on
        the first tick (promotion needs the host's tables caught up, so
        it cannot happen synchronously here).
        """
        with self._lock:
            for name, data in snapshot.get("windows", {}).items():
                profile = _WindowProfile(self.config)
                profile.per_block_ms = Ewma.from_state(
                    data["per_block_ms"])
                profile.scan_blocks = Ewma.from_state(data["scan_blocks"])
                profile.incr_ms = Ewma.from_state(data["incr_ms"])
                profile.preagg_ms = Ewma.from_state(data["preagg_ms"])
                profile.spans = list(data.get("spans", []))
                profile.span_samples = int(data.get("span_samples", 0))
                self._profiles[name] = profile
            for window, keys in snapshot.get("hot_keys", {}).items():
                self._warm_keys.setdefault(window, []).extend(keys)

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operator-facing summary (also the bench harness's source)."""
        return {
            "ticks": self.ticks,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "rebuckets": self.rebuckets,
            "decisions": dict(self.decisions),
            "reserved_bytes": sum(self._charged.values()),
        }
