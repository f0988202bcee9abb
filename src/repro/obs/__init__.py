"""repro.obs — the observability layer (metrics + tracing).

The paper's entire evaluation is about *where time goes*: per-stage
latency of the online path (Figs. 6–7, 15–17), partition-level
parallelism of the offline path (Figs. 8, 12–13), summaries folded per
long window (Figs. 10–11).  This dependency-free subsystem makes those
quantities observable on a live instance:

* :class:`MetricsRegistry` — counters, gauges, and mergeable streaming
  histograms with labelled series (per table, per tablet, per
  deployment).  ``registry.render()`` is the text exposition format;
  ``render("json")`` the machine one.
* :class:`Tracer` — per-request span trees
  (``deployment.execute`` → ``index.seek`` → ``window.scan`` →
  ``agg.fold`` → ``encode``) with trace-context
  propagation across the simulated cluster's "RPC" hops, so a
  nameserver-routed request yields one stitched trace spanning tablet
  servers.  ``tracer.render()`` draws the tree; ``tracer.export()``
  returns span dicts for the bench harness.
* :class:`Observability` — the pair, plus the enabled switch.  The
  default everywhere is **off**: a disabled instance hands out shared
  no-op instruments and spans, so instrumented hot paths cost one
  attribute access and allocate nothing.

Turn it on per instance (``OpenMLDB(observability=True)``), or share one
:class:`Observability` across components to get unified cluster-wide
series (``NameServer(tablets, obs=obs)``).  See docs/observability.md
for the metric catalog and a worked trace read-through.
"""

from __future__ import annotations

from .metrics import (BUCKET_BOUNDS_MS, Counter, Gauge, Histogram,
                      MetricsRegistry, NULL_COUNTER, NULL_GAUGE,
                      NULL_HISTOGRAM)
from .trace import NULL_SPAN, Span, Tracer

__all__ = ["Observability", "NULL_OBS", "MetricsRegistry", "Tracer",
           "Counter", "Gauge", "Histogram", "Span", "NULL_SPAN",
           "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
           "BUCKET_BOUNDS_MS"]


class Observability:
    """A registry + tracer pair behind one enable switch."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()


#: The shared disabled instance every component defaults to.
NULL_OBS = Observability(enabled=False)
