"""Metrics: counters, gauges, and mergeable streaming histograms.

The registry is the operator-facing half of the observability layer
(the other half is :mod:`repro.obs.trace`).  Design constraints, in
order:

* **near-zero disabled cost** — a disabled registry hands out shared
  no-op instruments, so instrumented hot paths pay one attribute access
  plus an empty method call and allocate nothing;
* **mergeable histograms** — every histogram uses the same *fixed*
  log-bucket layout (powers of two starting at 1 µs), so per-tablet
  histograms merge exactly by adding bucket counts — the property that
  lets a cluster report one latency distribution across tablet servers;
* **labels** — series are keyed by ``(name, sorted labels)``; asking for
  the same series twice returns the same instrument, and
  :meth:`MetricsRegistry.labels` pre-binds common labels (per-table,
  per-tablet, per-deployment) so call sites stay terse.

Everything is standard library; instruments take a small lock on update
so serving workers and the binlog replicator thread can share them.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM"]

# Fixed log-bucket layout shared by every histogram: upper bounds in
# milliseconds, 1 µs · 2^i.  36 buckets cover 1 µs .. ~9.5 hours; one
# overflow bucket catches the rest.  The layout being *fixed* (not
# per-instance) is what makes histograms mergeable across processes.
BUCKET_BOUNDS_MS: Tuple[float, ...] = tuple(
    0.001 * (2 ** exponent) for exponent in range(36))

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), "value": self.value}

    def render_value(self) -> str:
        return str(self.value)


class Gauge:
    """A value that can go up and down (queue depths, bytes held)."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), "value": self.value}

    def render_value(self) -> str:
        return str(self.value)


class Histogram:
    """A streaming histogram over the fixed log-bucket layout.

    Tracks exact ``count``/``sum``/``min``/``max`` plus per-bucket
    counts; percentiles are answered from the buckets, so a reported
    quantile is the *upper bound* of the bucket holding it (at most 2×
    the true value — the resolution of a power-of-two layout).
    """

    __slots__ = ("name", "labels", "counts", "count", "total",
                 "min", "max", "_lock")

    kind = "histogram"

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample (milliseconds by convention)."""
        slot = bisect.bisect_left(BUCKET_BOUNDS_MS, value)
        with self._lock:
            self.counts[slot] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one (same layout)."""
        self.merge_state(other.state())

    def state(self) -> Dict[str, Any]:
        """Plain-data snapshot of the full bucket state.

        Unlike the histogram object itself (which carries a lock), the
        state dict pickles — it is how offline pool workers ship their
        measurements back for an *exact* fleet-wide merge: the fixed
        log-bucket layout makes per-bucket counts additive, so merging
        states loses nothing relative to observing in one process.
        """
        with self._lock:
            return {"counts": list(self.counts), "count": self.count,
                    "total": self.total, "min": self.min,
                    "max": self.max}

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold a :meth:`state` snapshot into this histogram."""
        counts = state["counts"]
        lo, hi = state["min"], state["max"]
        with self._lock:
            for slot, bucket_count in enumerate(counts):
                self.counts[slot] += bucket_count
            self.count += state["count"]
            self.total += state["total"]
            if lo is not None and (self.min is None or lo < self.min):
                self.min = lo
            if hi is not None and (self.max is None or hi > self.max):
                self.max = hi

    def percentile(self, p: float) -> float:
        """Bucket-resolution percentile (0 with no samples)."""
        with self._lock:
            if self.count == 0:
                return 0.0
            target = max(1, int(p / 100.0 * self.count + 0.9999))
            seen = 0
            for slot, bucket_count in enumerate(self.counts):
                seen += bucket_count
                if seen >= target:
                    if slot >= len(BUCKET_BOUNDS_MS):
                        return self.max if self.max is not None else 0.0
                    # Never report a quantile above the observed max.
                    bound = BUCKET_BOUNDS_MS[slot]
                    return min(bound, self.max) \
                        if self.max is not None else bound
            return self.max if self.max is not None else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean,
                "p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99),
                "max": self.max if self.max is not None else 0.0}

    def snapshot(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), **self.summary()}

    def render_value(self) -> str:
        s = self.summary()
        return (f"count={s['count']} mean={s['mean']:.4f} "
                f"p50={s['p50']:.4f} p95={s['p95']:.4f} "
                f"p99={s['p99']:.4f} max={s['max']:.4f}")


class _NullInstrument:
    """Shared no-op instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()


class _LabeledRegistry:
    """A registry view with labels pre-bound (per table/tablet/...)."""

    __slots__ = ("_registry", "_labels")

    def __init__(self, registry: "MetricsRegistry",
                 labels: Dict[str, Any]) -> None:
        self._registry = registry
        self._labels = labels

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._registry.counter(name, **{**self._labels, **labels})

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._registry.gauge(name, **{**self._labels, **labels})

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._registry.histogram(name, **{**self._labels, **labels})


class MetricsRegistry:
    """All metric series of one process (or one simulated node).

    Disabled registries (``enabled=False``) hand out shared no-op
    instruments and record nothing — the default for every engine, so
    observability is strictly opt-in.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._series: Dict[Tuple[str, str, _LabelKey], Any] = {}
        self._lock = threading.Lock()

    # -- instrument access ---------------------------------------------

    def _get(self, kind: str, cls: type, null: _NullInstrument,
             name: str, labels: Dict[str, Any]) -> Any:
        if not self.enabled:
            return null
        key = (kind, name, _label_key(labels))
        with self._lock:
            instrument = self._series.get(key)
            if instrument is None:
                instrument = cls(name, key[2])
                self._series[key] = instrument
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", Counter, NULL_COUNTER, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, NULL_GAUGE, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", Histogram, NULL_HISTOGRAM, name,
                         labels)

    def labels(self, **labels: Any) -> _LabeledRegistry:
        """A view that stamps ``labels`` onto every instrument it makes."""
        return _LabeledRegistry(self, labels)

    # -- introspection / export ----------------------------------------

    def series(self) -> Iterator[Any]:
        with self._lock:
            instruments = list(self._series.values())
        return iter(sorted(instruments,
                           key=lambda i: (i.name, i.labels)))

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """Fetch an existing series without creating it (any kind)."""
        key_labels = _label_key(labels)
        with self._lock:
            for (_kind, series_name, series_labels), instrument \
                    in self._series.items():
                if series_name == name and series_labels == key_labels:
                    return instrument
        return None

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one (tablet → fleet).

        Counters/gauges add; histograms merge bucket-wise (exact, thanks
        to the shared fixed layout).
        """
        for instrument in other.series():
            labels = dict(instrument.labels)
            if instrument.kind == "counter":
                self.counter(instrument.name, **labels).inc(instrument.value)
            elif instrument.kind == "gauge":
                self.gauge(instrument.name, **labels).inc(instrument.value)
            else:
                self.histogram(instrument.name, **labels).merge(instrument)

    def to_dict(self) -> List[Dict[str, Any]]:
        return [instrument.snapshot() for instrument in self.series()]

    def render(self, format: str = "text") -> str:
        """Render every series — the operator surface.

        ``format="text"`` gives one aligned line per series;
        ``format="json"`` gives a JSON array of snapshots.
        """
        if format == "json":
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if format != "text":
            raise ValueError(f"unknown render format {format!r}")
        lines = []
        for instrument in self.series():
            label_text = ",".join(f"{k}={v}" for k, v in instrument.labels)
            series_name = instrument.name + (
                "{" + label_text + "}" if label_text else "")
            lines.append(f"{instrument.kind:9s} {series_name} "
                         f"{instrument.render_value()}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
