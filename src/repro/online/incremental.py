"""Incremental sliding-window aggregation (paper Section 5.2).

Large sliding windows overlap heavily between consecutive evaluations;
recomputing from scratch is the quadratic behaviour the paper attributes
to static engines.  :class:`SlidingWindowAggregator` is subtract-and-evict
running state for one stream of tuples: each arriving tuple is *added*,
each tuple leaving the window is *subtracted* (for invertible
aggregates, per [Tangwongsan et al., DEBS'17]).  Where a frame evicts,
non-invertible or order-sensitive aggregates fall back to recomputation
over the retained buffer, so correctness never depends on
invertibility; a frame that never evicts folds them incrementally until
an arrival breaks time order.  The buffer is kept time-sorted, so
out-of-order arrivals are supported.

It serves stream replays — the offline engine's group folds
(:mod:`repro.offline.partial`) and the window-union processor
(:mod:`repro.online.window_union`).  Request mode keeps no such state:
every deployed window is read from storage and folded per request.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..sql.functions import AggregateFunction

__all__ = ["SlidingWindowAggregator"]

# Compact the buffer's evicted prefix once it exceeds this many slots
# (and half the list), keeping eviction O(1) amortised without the
# per-pop shifting a plain ``del list[0]`` would cost.
_COMPACT_THRESHOLD = 512


class SlidingWindowAggregator:
    """Maintains one or more aggregates over a sliding time/count window.

    Args:
        functions: the aggregates (stateless, so shareable), e.g. each
            ``CompiledAggregate.function`` or ``[get_aggregate("sum"),
            get_aggregate("topn_frequency", 3)]``.
        arg_extractors: one callable per function mapping a row to the
            aggregate's argument tuple.
        range_ms: time lookback (None = unbounded by time).
        max_rows: row-count bound (None = unbounded by count).  Each
            insert evicts relative to its own timestamp: the window
            slides with the stream, matching the offline engine and the
            window-union baseline even on disordered streams.
        states: running states to continue from — a carry chain's
            previous partition's end states, read back from
            ``states`` (:mod:`repro.offline.partial`); None starts
            afresh.  They continue exactly only on a frame that never
            evicts, fed in time order and never asked
            :meth:`results_with`.

    A frame that never evicts (``range_ms`` and ``max_rows`` both None)
    folds *every* aggregate incrementally, order-sensitive and
    non-invertible ones included: while inserts arrive in time order,
    the running state's add sequence is the oldest→newest refold.  Those
    aggregates go back to the refold the first time that cannot hold —
    an out-of-order insert, or a transient :meth:`results_with` row
    they cannot ``remove``.  A frame that evicts refolds them from the
    start.

    The buffer is kept sorted by timestamp (ties: arrival order, i.e. a
    later arrival sorts after earlier equal-ts entries — matching the
    storage layer, where later arrivals are *newer*).
    """

    def __init__(self, functions: Sequence[AggregateFunction],
                 arg_extractors: Sequence[Callable[[Any], Tuple[Any, ...]]],
                 range_ms: Optional[int] = None,
                 max_rows: Optional[int] = None,
                 states: Optional[List[Any]] = None) -> None:
        if len(functions) != len(arg_extractors):
            raise ValueError("functions/arg_extractors length mismatch")
        self._functions = list(functions)
        self._extractors = list(arg_extractors)
        self.range_ms = range_ms
        self.max_rows = max_rows
        # Parallel oldest-first buffers with an evicted-prefix offset.
        self._ts: List[int] = []
        self._args: List[Tuple[Tuple[Any, ...], ...]] = []
        self._start = 0
        self.states: List[Any] = (
            [fn.create() for fn in self._functions] if states is None
            else states)
        # _dirty is either all False or this list, never edited in place.
        self._needs_refold = [fn.order_sensitive or not fn.invertible
                              for fn in self._functions]
        self._dirty = ([False] * len(self._functions)
                       if range_ms is None and max_rows is None
                       else self._needs_refold)

    def __len__(self) -> int:
        return len(self._ts) - self._start

    # ------------------------------------------------------------------
    # maintenance

    def insert(self, ts: int, row: Any) -> None:
        """Add one tuple and evict everything that left the window.

        Arrivals need not be in time order: an out-of-order tuple is
        placed at its sorted position (after equal timestamps, matching
        storage arrival order).
        """
        args = tuple(extractor(row) for extractor in self._extractors)
        ts_list = self._ts
        if not ts_list or ts >= ts_list[-1]:
            ts_list.append(ts)
            self._args.append(args)
        else:
            position = bisect_right(ts_list, ts, self._start, len(ts_list))
            ts_list.insert(position, ts)
            self._args.insert(position, args)
            # The running state's add order is no longer time order.
            self._dirty = self._needs_refold
        for index, function in enumerate(self._functions):
            if not self._dirty[index]:
                function.add(self.states[index], *args[index])
        self._evict(ts)

    def evict_to(self, now_ts: int) -> None:
        """Evict everything outside a window anchored at ``now_ts``.

        Used by the offline engine for ``EXCLUDE CURRENT_ROW`` frames,
        where the window must be trimmed before the anchor row is added.
        """
        self._evict(now_ts)

    def _evict(self, now_ts: int) -> None:
        horizon = (now_ts - self.range_ms
                   if self.range_ms is not None else None)
        ts_list = self._ts
        args_list = self._args
        while self._start < len(ts_list):
            too_old = horizon is not None and ts_list[self._start] < horizon
            too_many = (self.max_rows is not None
                        and len(ts_list) - self._start > self.max_rows)
            if not (too_old or too_many):
                break
            args = args_list[self._start]
            for index, function in enumerate(self._functions):
                if not self._dirty[index]:
                    function.remove(self.states[index], *args[index])
            self._start += 1
        start = self._start
        if start > _COMPACT_THRESHOLD and start * 2 > len(ts_list):
            del ts_list[:start]
            del args_list[:start]
            self._start = 0

    # ------------------------------------------------------------------
    # results

    def results(self) -> List[Any]:
        """Current aggregate values, one per configured function."""
        return [self._refold(index) if self._dirty[index]
                else function.result(self.states[index])
                for index, function in enumerate(self._functions)]

    def results_with(self, row: Any) -> List[Any]:
        """Aggregate values as if ``row`` were in the window, transiently.

        Used for ``INSTANCE_NOT_IN_WINDOW`` frames where the anchor row
        participates in its own window but must not persist into later
        ones: invertible, order-insensitive aggregates add/compute/
        remove; the rest go back to the refold over buffer + row.
        """
        self._dirty = self._needs_refold
        args = tuple(extractor(row) for extractor in self._extractors)
        output: List[Any] = []
        for index, function in enumerate(self._functions):
            if self._dirty[index]:
                output.append(self._refold(index, args[index]))
            else:
                function.add(self.states[index], *args[index])
                output.append(function.result(self.states[index]))
                function.remove(self.states[index], *args[index])
        return output

    # ------------------------------------------------------------------

    def _refold(self, index: int,
                extra: Optional[Tuple[Any, ...]] = None) -> Any:
        """Recompute aggregate ``index`` over the retained buffer, oldest
        → newest, then ``extra`` (a transient row's arguments)."""
        function = self._functions[index]
        state = function.create()
        args_list = self._args
        for position in range(self._start, len(args_list)):
            function.add(state, *args_list[position][index])
        if extra is not None:
            function.add(state, *extra)
        return function.result(state)

