"""Self-adjusted multi-table window union (paper Section 5.2).

A window union matches tuples from several stream tables over a shared
time window, partitioned by common keys.  Two problems make the static
(Flink-style) approach slow:

* **static key hashing** — keys are bound to worker threads by hash, so a
  skewed key distribution overloads a few workers while others idle;
* **recomputation** — every arriving tuple re-scans (and, lacking state
  retention, re-sorts) its whole window.

This module implements both strategies so the Section 9.3.2 ablation can
compare them:

* :class:`StaticScheduler` + ``incremental=False`` reproduces the static
  engine: hash placement, per-tuple re-sort + full window recompute.
* :class:`DynamicScheduler` + ``incremental=True`` is OpenMLDB's
  self-adjusting engine: runtime per-key load metrics drive periodic key
  re-assignment (greedy longest-processing-time balancing, with hot keys
  optionally *shared* across several workers), and per-key
  subtract-and-evict aggregators make each tuple O(1).

Parallelism accounting: tuple computations execute once (really), their
measured costs are attributed to the worker the scheduler placed the key
on, and throughput is derived from the resulting makespan
``max(worker_load)``.  This keeps the comparison honest under the GIL —
the *work* is real; only its placement across simulated workers is
modelled.  DESIGN.md documents this substitution.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..sql.functions import AggregateFunction
from .incremental import SlidingWindowAggregator

__all__ = ["StaticScheduler", "DynamicScheduler", "WindowUnionProcessor",
           "UnionStats", "StreamTuple"]

# (source table, partition key, timestamp ms, row payload)
StreamTuple = Tuple[str, Any, int, Any]


class StaticScheduler:
    """Flink-style placement: ``hash(key) % workers``, fixed forever."""

    def __init__(self, workers: int) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.rebalances = 0

    def worker_for(self, key: Any) -> int:
        return hash(key) % self.workers

    def record(self, key: Any, cost: float) -> None:
        """Static placement ignores runtime metrics."""

    def rebalance(self) -> None:
        """No-op: the mapping is rigid (the paper's criticism)."""


class DynamicScheduler:
    """Runtime-metric-driven key placement (on-the-fly load balancing).

    Gathers per-key processing cost; on each :meth:`rebalance`, keys are
    re-assigned greedily (heaviest first onto the least-loaded worker).
    Keys whose observed load exceeds ``share_factor ×`` the mean worker
    load are *shared*: their tuples round-robin over several workers,
    the paper's "multiple workers can collaborate on the same key".
    """

    def __init__(self, workers: int, share_factor: float = 2.0) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.share_factor = share_factor
        self._assignment: Dict[Any, int] = {}
        self._shared: Dict[Any, List[int]] = {}
        self._round_robin: Dict[Any, int] = {}
        self._key_cost: Dict[Any, float] = defaultdict(float)
        self.rebalances = 0

    def worker_for(self, key: Any) -> int:
        shared = self._shared.get(key)
        if shared:
            position = self._round_robin.get(key, 0)
            self._round_robin[key] = position + 1
            return shared[position % len(shared)]
        worker = self._assignment.get(key)
        if worker is None:
            # New key: place like the static strategy until metrics exist.
            worker = hash(key) % self.workers
            self._assignment[key] = worker
        return worker

    def record(self, key: Any, cost: float) -> None:
        self._key_cost[key] += cost

    def rebalance(self) -> None:
        """Greedy LPT re-assignment from observed per-key costs."""
        if not self._key_cost:
            return
        self.rebalances += 1
        total = sum(self._key_cost.values())
        mean_worker_load = total / self.workers
        # Min-heap of (load, worker).
        heap: List[Tuple[float, int]] = [(0.0, worker)
                                         for worker in range(self.workers)]
        heapq.heapify(heap)
        self._shared.clear()
        for key, cost in sorted(self._key_cost.items(),
                                key=lambda item: -item[1]):
            if (mean_worker_load > 0
                    and cost > self.share_factor * mean_worker_load
                    and self.workers > 1):
                # Hot key: spread over enough workers to fit the mean.
                span = min(self.workers,
                           max(2, int(cost / mean_worker_load) + 1))
                chosen: List[int] = []
                picked: List[Tuple[float, int]] = []
                for _ in range(span):
                    load, worker = heapq.heappop(heap)
                    chosen.append(worker)
                    picked.append((load + cost / span, worker))
                for item in picked:
                    heapq.heappush(heap, item)
                self._shared[key] = chosen
                continue
            load, worker = heapq.heappop(heap)
            heapq.heappush(heap, (load + cost, worker))
            self._assignment[key] = worker


@dataclasses.dataclass
class UnionStats:
    """Outcome of one window-union run."""

    tuples: int
    compute_seconds: float       # total single-thread computation time
    makespan_seconds: float      # max per-worker attributed time
    worker_loads: List[float]
    rebalances: int

    @property
    def throughput(self) -> float:
        """Tuples/second at the modelled parallelism."""
        if self.makespan_seconds <= 0:
            return float("inf")
        return self.tuples / self.makespan_seconds

    @property
    def imbalance(self) -> float:
        """max/mean worker load (1.0 = perfectly balanced)."""
        mean = sum(self.worker_loads) / len(self.worker_loads)
        if mean == 0:
            return 1.0
        return max(self.worker_loads) / mean


class WindowUnionProcessor:
    """Executes a window union over an interleaved multi-table stream.

    Args:
        functions/arg_extractors: aggregates per
            :class:`~repro.online.incremental.SlidingWindowAggregator`.
        range_ms / max_rows: the shared window frame.
        scheduler: key→worker placement strategy.
        incremental: subtract-and-evict (True) vs. full per-tuple
            recomputation with re-sort (False; the static baseline).
        rebalance_every: tuples between scheduler rebalances.
    """

    def __init__(self, functions: Sequence[AggregateFunction],
                 arg_extractors: Sequence[Callable[[Any], Tuple[Any, ...]]],
                 scheduler,
                 range_ms: Optional[int] = None,
                 max_rows: Optional[int] = None,
                 incremental: bool = True,
                 rebalance_every: int = 1000) -> None:
        self._functions = list(functions)
        self._extractors = list(arg_extractors)
        self.scheduler = scheduler
        self.range_ms = range_ms
        self.max_rows = max_rows
        self.incremental = incremental
        self.rebalance_every = max(rebalance_every, 1)
        self._aggregators: Dict[Any, SlidingWindowAggregator] = {}
        self._buffers: Dict[Any, List[Tuple[int, Any]]] = {}
        self.last_results: Dict[Any, List[Any]] = {}

    def _aggregator_for(self, key: Any) -> SlidingWindowAggregator:
        aggregator = self._aggregators.get(key)
        if aggregator is None:
            aggregator = SlidingWindowAggregator(
                self._functions, self._extractors,
                range_ms=self.range_ms, max_rows=self.max_rows)
            self._aggregators[key] = aggregator
        return aggregator

    def _process_incremental(self, key: Any, ts: int, row: Any) -> List[Any]:
        aggregator = self._aggregator_for(key)
        aggregator.insert(ts, row)
        return aggregator.results()

    def _process_static(self, key: Any, ts: int, row: Any) -> List[Any]:
        """The baseline path: buffer, re-sort, evict, recompute."""
        buffer = self._buffers.setdefault(key, [])
        buffer.append((ts, row))
        # No retained order state: re-sort to find evictable tuples
        # (the paper's O(log n) eviction criticism of Flink).
        buffer.sort(key=lambda item: item[0])
        if self.range_ms is not None:
            horizon = ts - self.range_ms
            while buffer and buffer[0][0] < horizon:
                buffer.pop(0)
        if self.max_rows is not None:
            while len(buffer) > self.max_rows:
                buffer.pop(0)
        results: List[Any] = []
        for function, extractor in zip(self._functions, self._extractors):
            state = function.create()
            for _ts, buffered_row in buffer:
                function.add(state, *extractor(buffered_row))
            results.append(function.result(state))
        return results

    def run(self, stream: Iterable[StreamTuple]) -> UnionStats:
        """Process the interleaved stream and return run statistics."""
        workers = self.scheduler.workers
        worker_loads = [0.0] * workers
        total_cost = 0.0
        count = 0
        clock = time.perf_counter
        for _table, key, ts, row in stream:
            worker = self.scheduler.worker_for(key)
            started = clock()
            if self.incremental:
                self.last_results[key] = self._process_incremental(
                    key, ts, row)
            else:
                self.last_results[key] = self._process_static(key, ts, row)
            cost = clock() - started
            worker_loads[worker] += cost
            total_cost += cost
            self.scheduler.record(key, cost)
            count += 1
            if count % self.rebalance_every == 0:
                self.scheduler.rebalance()
        return UnionStats(
            tuples=count, compute_seconds=total_cost,
            makespan_seconds=max(worker_loads) if worker_loads else 0.0,
            worker_loads=worker_loads,
            rebalances=getattr(self.scheduler, "rebalances", 0))
