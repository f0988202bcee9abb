"""repro.adaptive — self-tuning execution driven by live measurements.

The online request path has two execution tiers (ingest-time
incremental state, fused block scan-fold) plus the long-window
pre-aggregation path, all selected by hand-coded eligibility rules
fixed at deploy time.  The observability
layer already measures exactly the signals needed to choose between
them — incremental hit/fallback counters, scan block counts, stage
timings, governor bytes — so this package closes the loop:

* :class:`ExecutionRouter` — a per-deployment router that (a) picks the
  execution tier per request from a calibrated cost model (estimated
  scan blocks × measured per-block cost vs measured incremental lookup
  cost), (b) auto-provisions incremental window state for keys whose
  observed request rate justifies the ingest cost and demotes cold ones
  under memory pressure, and (c) re-sizes pre-aggregation buckets from
  the live distribution of requested window spans instead of the fixed
  DDL value.
* :class:`RouterConfig` — the thresholds and half-lives.
* :data:`Tier` constants — ``INCREMENTAL`` / ``PREAGG`` / ``SCAN``.

Every adaptation is answer-invariant by construction: promotion
replays the table log in arrival order under the state lock, demotion
just reverts a key to the scan path, and bucket re-sizing swaps in a
freshly backfilled aggregator only when provably no row was lost or
duplicated.  ``tests/test_adaptive.py`` pins this by comparing every
adaptive answer with a static twin's, exact ``==`` on integer data —
the contract ``tests/test_fused_fold.py`` holds the tiers to.

See docs/architecture.md §"Adaptive execution" for a walkthrough and
docs/observability.md for the ``online.router.*`` series and the
``router.decide`` span.
"""

from __future__ import annotations

from .router import ExecutionRouter, RouterConfig, Tier

__all__ = ["ExecutionRouter", "RouterConfig", "Tier"]
