"""Long-window pre-aggregation (paper Section 5.1).

Window functions over very long intervals (months–years of data, or
hotspot keys) cannot scan raw tuples per request.  OpenMLDB instead keeps
**multi-level aggregators**: per partition key, time is cut into buckets
(e.g. hours), each holding a partial aggregate state; coarser levels
(days, months) merge finer buckets.  A request then:

1. covers the middle of its window with the coarsest buckets that fit
   (query refinement, Figure 4),
2. descends to finer levels at the bucket-misaligned edges,
3. scans only the raw head/tail spans no bucket covers,
4. merges everything in time order.

Aggregator maintenance is **asynchronous**: table inserts append to the
binlog replicator with an ``update_aggr`` closure (Section 5.1), so the
insert fast path never waits on aggregation.  Failure recovery replays
the binlog suffix.

Only *mergeable* aggregates (associative states) are eligible; the
deployment layer falls back to raw scans for the rest.  A bucket folds
its rows in *arrival* order, so an order-sensitive aggregate
(``drawdown``, ``lag``) keeps its buckets only while a key's rows arrive
in time order: the first late row sends that key back to the raw scan.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import (Any, Callable, Dict, List, Optional, Tuple)

from ..errors import DeploymentError
from ..obs import NULL_COUNTER, Observability
from ..schema import Row
from ..sql.functions import AggregateFunction
from .binlog import IngestConsumer
from .segment_tree import SegmentTree

__all__ = ["LongWindowOption", "PreAggregator", "PreAggQueryResult",
           "parse_long_windows"]

_UNIT_MS = {"s": 1_000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}
_DEFAULT_LEVEL_FACTOR = 30


@dataclasses.dataclass(frozen=True)
class LongWindowOption:
    """One entry of ``OPTIONS(long_windows="w1:1d,w2:1h")``."""

    window: str
    bucket_ms: int


def parse_long_windows(option: str) -> Tuple[LongWindowOption, ...]:
    """Parse the ``long_windows`` deployment option string.

    ``"w1:1d,w2:1h"`` → two options with day/hour base buckets.
    """
    parsed: List[LongWindowOption] = []
    for piece in option.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            window, bucket = piece.split(":")
            if not window.strip():
                raise ValueError("empty window name")
            unit = bucket[-1]
            count = int(bucket[:-1])
            unit_ms = _UNIT_MS[unit]
        except (ValueError, KeyError, IndexError):
            raise DeploymentError(
                f"malformed long_windows entry {piece!r}; expected "
                "'<window>:<n><s|m|h|d>'") from None
        if count < 1:
            # A non-positive count would make bucket_ms <= 0, and every
            # downstream floor-division/modulo by bucket size would
            # divide by zero (or walk buckets backwards).
            raise DeploymentError(
                f"long_windows entry {piece!r}: bucket count must be "
                ">= 1")
        parsed.append(LongWindowOption(window=window.strip(),
                                       bucket_ms=count * unit_ms))
    if not parsed:
        raise DeploymentError("long_windows option is empty")
    return tuple(parsed)


@dataclasses.dataclass
class PreAggQueryResult:
    """Outcome of query refinement for one request window.

    ``state`` merges every bucket used (None when no bucket applied);
    ``head_span``/``tail_span`` are the raw ``(lo, hi)`` inclusive spans —
    oldest edge and newest edge respectively — the engine must still scan;
    ``buckets_used`` counts bucket merges per level (observability for the
    ablation benches).
    """

    state: Any
    head_span: Optional[Tuple[int, int]]
    tail_span: Optional[Tuple[int, int]]
    buckets_used: Dict[int, int]


class _KeyLevelBuckets:
    """Bucket states for one (key, level): a segment tree over time slots.

    Leaf ``i`` holds the state of bucket ``base + i * size``; gaps are
    identity leaves so bucket index arithmetic stays O(1).
    """

    def __init__(self, size_ms: int,
                 merge: Callable[[Any, Any], Any]) -> None:
        self.size_ms = size_ms
        self.base: Optional[int] = None
        self.tree = SegmentTree(merge, identity=None)

    def _leaf_for(self, bucket_start: int) -> int:
        if self.base is None:
            self.base = bucket_start
        if bucket_start < self.base:
            # A tuple older than everything seen: rebase by rebuilding.
            shift = (self.base - bucket_start) // self.size_ms
            old_states = [self.tree.get(i) for i in range(len(self.tree))]
            self.tree = SegmentTree(self.tree.merge_fn, identity=None)
            for _ in range(shift + len(old_states)):
                self.tree.append(None)
            for index, state in enumerate(old_states):
                self.tree.update(shift + index, state)
            self.base = bucket_start
        leaf = (bucket_start - self.base) // self.size_ms
        while leaf >= len(self.tree):
            self.tree.append(None)
        return leaf

    def add(self, ts: int, apply_fn: Callable[[Any], Any]) -> None:
        bucket_start = (ts // self.size_ms) * self.size_ms
        leaf = self._leaf_for(bucket_start)
        self.tree.update(leaf, apply_fn(self.tree.get(leaf)))

    def query(self, aligned_lo: int, aligned_hi: int) -> Tuple[Any, int]:
        """Merge buckets covering ``[aligned_lo, aligned_hi)``.

        Returns ``(state, bucket_count)``; state is None when the span
        holds no data or lies outside the populated range.
        """
        if self.base is None:
            return None, 0
        lo_leaf = max(0, (aligned_lo - self.base) // self.size_ms)
        hi_leaf = min(len(self.tree),
                      (aligned_hi - self.base) // self.size_ms)
        if lo_leaf >= hi_leaf:
            return None, 0
        return self.tree.query(lo_leaf, hi_leaf), hi_leaf - lo_leaf


class PreAggregator(IngestConsumer):
    """Multi-level pre-aggregation for one (window, aggregate) pair.

    Args:
        function: the aggregate to maintain (must be mergeable), e.g. a
            ``CompiledAggregate.function``.
        arg_fn: row → aggregate argument tuple.
        key_fn: row → partition key.
        ts_fn: row → timestamp (ms).
        bucket_ms: base-level bucket width.
        levels: number of levels; level *i* buckets are
            ``bucket_ms * factor**i`` wide.
        factor: level widening factor (paper example: hour→day→month).
    """

    def __init__(self, function: AggregateFunction,
                 arg_fn: Callable[[Row], Tuple[Any, ...]],
                 key_fn: Callable[[Row], Any],
                 ts_fn: Callable[[Row], int],
                 bucket_ms: int,
                 levels: int = 2,
                 factor: int = _DEFAULT_LEVEL_FACTOR) -> None:
        if not function.mergeable:
            raise DeploymentError(
                f"aggregate {function.name!r} is not mergeable and cannot "
                "use long-window pre-aggregation")
        self._function = function
        self.func_name = function.name
        self._arg_fn = arg_fn
        self._key_fn = key_fn
        self._ts_fn = ts_fn
        if bucket_ms <= 0:
            raise DeploymentError("bucket width must be positive")
        self.level_sizes: List[int] = [
            bucket_ms * (factor ** level) for level in range(max(levels, 1))]
        self._buckets: Dict[Tuple[Any, int], _KeyLevelBuckets] = {}
        # Order-sensitive aggregates only: key → newest ts absorbed, or
        # None once a late row made the key's arrival-order buckets
        # differ from a time-ordered fold (the key then answers raw).
        self._newest_ts: Dict[Any, Optional[int]] = {}
        self._lock = threading.Lock()
        self.rows_absorbed = 0
        self.queries = 0
        self._level_hits: Dict[int, int] = {
            level: 0 for level in range(len(self.level_sizes))}
        self._m_absorbed = NULL_COUNTER
        self._m_queries = NULL_COUNTER
        self._m_bucket_merges = NULL_COUNTER

    def bind_obs(self, obs: Observability) -> None:
        """Attach metric series (called when a deployment owns obs)."""
        metrics = obs.registry.labels(func=self.func_name)
        self._m_absorbed = metrics.counter("preagg.rows_absorbed")
        self._m_queries = metrics.counter("preagg.queries")
        self._m_bucket_merges = metrics.counter("preagg.bucket_merges")

    @property
    def bucket_ms(self) -> int:
        """Base-level bucket width (the ``long_windows`` option's)."""
        return self.level_sizes[0]

    @property
    def function(self) -> AggregateFunction:
        """The maintained aggregate (engines merge raw edges through it)."""
        return self._function

    def extract_args(self, row: Row) -> Tuple[Any, ...]:
        """Apply the aggregate's argument extractor to a raw row."""
        return self._arg_fn(row)

    # ------------------------------------------------------------------
    # maintenance (runs on the replicator worker thread)

    def absorb(self, row: Row) -> None:
        """Fold one row into every level's bucket for its key."""
        key = self._key_fn(row)
        ts = self._ts_fn(row)
        args = self._arg_fn(row)
        function = self._function

        def apply_fn(state: Any) -> Any:
            if state is None:
                state = function.create()
            function.add(state, *args)
            return state

        with self._lock:
            if function.order_sensitive:
                newest = self._newest_ts.get(key, ts)
                self._newest_ts[key] = \
                    None if newest is None or ts < newest else ts
            for level, size in enumerate(self.level_sizes):
                buckets = self._buckets.get((key, level))
                if buckets is None:
                    buckets = _KeyLevelBuckets(size, function.merge)
                    self._buckets[(key, level)] = buckets
                buckets.add(ts, apply_fn)
            self.rows_absorbed += 1
        self._m_absorbed.inc()

    # ``make_update_closure`` / ``backfill`` come from IngestConsumer; the
    # deploy-time backfill is the "slightly higher data loading overhead"
    # of Figure 11.

    # ------------------------------------------------------------------
    # query refinement

    def query(self, key: Any, lo: int, hi: int) -> PreAggQueryResult:
        """Cover ``[lo, hi]`` (inclusive ts span) with bucket states.

        Implements Figure 4's refinement: coarsest-fitting buckets in the
        middle, finer buckets toward the edges, raw spans at the extremes.
        """
        self.queries += 1
        self._m_queries.inc()
        buckets_used: Dict[int, int] = {}
        with self._lock:
            if self._newest_ts.get(key, 0) is None:  # saw a late row
                return PreAggQueryResult(None, (lo, hi), None, buckets_used)
            states, head, tail = self._query_level(
                key, len(self.level_sizes) - 1, lo, hi, buckets_used)
        if buckets_used:
            self._m_bucket_merges.inc(sum(buckets_used.values()))
        state: Any = None
        for piece in states:
            if piece is None:
                continue
            state = piece if state is None else self._function.merge(
                state, piece)
        return PreAggQueryResult(state=state, head_span=head,
                                 tail_span=tail, buckets_used=buckets_used)

    def _query_level(self, key: Any, level: int, lo: int, hi: int,
                     buckets_used: Dict[int, int]
                     ) -> Tuple[List[Any], Optional[Tuple[int, int]],
                                Optional[Tuple[int, int]]]:
        """Recursive refinement; returns (states oldest→newest, head, tail)."""
        if lo > hi:
            return [], None, None
        size = self.level_sizes[level]
        aligned_lo = ((lo + size - 1) // size) * size
        aligned_hi = ((hi + 1) // size) * size
        if aligned_lo >= aligned_hi:
            # No full bucket at this level fits; refine or go raw.
            if level == 0:
                return [], (lo, hi), None
            return self._query_level(key, level - 1, lo, hi, buckets_used)
        buckets = self._buckets.get((key, level))
        if buckets is None:
            mid_state, used = None, 0
        else:
            mid_state, used = buckets.query(aligned_lo, aligned_hi)
        if used:
            buckets_used[level] = buckets_used.get(level, 0) + used
            self._level_hits[level] += used
        left_states: List[Any] = []
        head: Optional[Tuple[int, int]] = None
        if lo < aligned_lo:
            if level == 0:
                head = (lo, aligned_lo - 1)
            else:
                left_states, head, left_tail = self._query_level(
                    key, level - 1, lo, aligned_lo - 1, buckets_used)
                if left_tail is not None:
                    # With nested level sizes the left edge ends exactly
                    # on a finer bucket boundary, so a tail can never
                    # appear here; anything else is an internal error.
                    raise AssertionError("non-contiguous refinement")
        right_states: List[Any] = []
        tail: Optional[Tuple[int, int]] = None
        if aligned_hi <= hi:
            if level == 0:
                tail = (aligned_hi, hi)
            else:
                right_states, right_head, tail = self._query_level(
                    key, level - 1, aligned_hi, hi, buckets_used)
                if right_head is not None:
                    # The right edge starts on a bucket boundary at every
                    # finer level, so a "head" from the recursion can only
                    # mean the whole edge was narrower than one fine
                    # bucket — i.e. it is raw tail.
                    if any(state is not None for state in right_states):
                        raise AssertionError("non-contiguous refinement")
                    tail = (right_head[0], (tail or right_head)[1])
                    right_states = []
        states = left_states + [mid_state] + right_states
        return states, head, tail

    # ------------------------------------------------------------------
    # adaptive hierarchy (Section 5.1, "adaptively adjust the hierarchy")

    def level_usage(self) -> Dict[int, int]:
        return dict(self._level_hits)

    def add_coarser_level(self, factor: int = _DEFAULT_LEVEL_FACTOR) -> int:
        """Append a coarser level, backfilled from the finest level.

        Returns the new level index.  Called when query statistics show
        wide windows repeatedly merging many top-level buckets.
        """
        new_size = self.level_sizes[-1] * factor
        new_level = len(self.level_sizes)
        with self._lock:
            self.level_sizes.append(new_size)
            self._level_hits[new_level] = 0
            # Rebuild from level-0 buckets (exact: merge preserves order).
            for (key, level), buckets in list(self._buckets.items()):
                if level != 0 or buckets.base is None:
                    continue
                target = _KeyLevelBuckets(new_size, self._function.merge)
                self._buckets[(key, new_level)] = target
                for leaf in range(len(buckets.tree)):
                    state = buckets.tree.get(leaf)
                    if state is None:
                        continue
                    bucket_ts = buckets.base + leaf * buckets.size_ms

                    def apply_fn(existing: Any, piece=state) -> Any:
                        if existing is None:
                            return piece
                        return self._function.merge(existing, piece)

                    target.add(bucket_ts, apply_fn)
        return new_level

    def maybe_adapt(self, min_queries: int = 100,
                    bucket_threshold: int = 64) -> Optional[int]:
        """Add a coarser level when top-level merges stay too wide."""
        top = len(self.level_sizes) - 1
        if self.queries < min_queries:
            return None
        if self._level_hits.get(top, 0) / max(self.queries, 1) \
                > bucket_threshold:
            return self.add_coarser_level()
        return None
