"""Incremental sliding-window aggregation (paper Section 5.2).

Large sliding windows overlap heavily between consecutive evaluations;
recomputing from scratch is the quadratic behaviour the paper attributes
to static engines.  Two layers live here:

* :class:`SlidingWindowAggregator` — subtract-and-evict running state
  for one stream of tuples: each arriving tuple is *added*, each tuple
  leaving the window is *subtracted* (for invertible aggregates, per
  [Tangwongsan et al., DEBS'17]).  Non-invertible or order-sensitive
  aggregates fall back to recomputation over the retained buffer, so
  correctness never depends on invertibility.  The buffer is kept
  time-sorted, so out-of-order arrivals are supported, and
  :meth:`SlidingWindowAggregator.results_at` answers "what would this
  window hold at anchor *t*" transiently — the request-mode shape.

* :class:`IncrementalWindowState` — **ingest-time** window state for one
  deployed window: a per-partition-key map of aggregators maintained
  from the binlog (the paper's asynchronous ``update_aggr`` pipeline,
  Section 5.1), with TTL eviction
  mirrored from the table's index so buffers never outlive index rows.
  On the request path a *hit* costs O(aggregates); the state declines —
  returns ``None`` so the engine falls back to a fused scan-fold — when
  replication lags the table, or the request anchor is older than the
  newest absorbed tuple for its key (out-of-order request).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..schema import TTLKind, TTLSpec
from ..sql.functions import AggregateFunction
from ..storage.memtable import normalize_ts
from .binlog import IngestConsumer

__all__ = ["SlidingWindowAggregator", "IncrementalWindowState"]

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
        max_rows: row-count bound (None = unbounded by count).
        evict_anchor: ``"insert"`` evicts relative to each inserted
            tuple's timestamp (streaming replay: the window slides with
            the stream, matching the offline engine and the window-union
            baseline even on disordered streams); ``"newest"`` evicts
            relative to the newest timestamp *seen*, which is what
            request-mode state needs — a late-arriving old tuple must
            not un-slide the window.
        stream_ordered: promise that inserts arrive in non-decreasing
            timestamp order.  When the frame also never evicts
            (``range_ms`` and ``max_rows`` both None), *every* aggregate
            — including order-sensitive and non-invertible ones — can
            fold incrementally: the running state's add sequence equals
            the oldest→newest recomputation, so :meth:`results` is O(1)
            per call instead of O(window).  The offline engine's group
            folds set this (events are pre-sorted); a violating
            out-of-order insert quietly demotes the affected aggregates
            back to recomputation, so the promise is an optimisation,
            never a correctness obligation.  Callers using
            :meth:`results_with` / :meth:`results_at` transient rows
            must leave it off — those paths need ``remove``.

    The buffer is kept sorted by timestamp (ties: arrival order, i.e. a
    later arrival sorts after earlier equal-ts entries — matching the
    storage layer, where later arrivals are *newer*).
    """

    def __init__(self, functions: Sequence[AggregateFunction],
                 arg_extractors: Sequence[Callable[[Any], Tuple[Any, ...]]],
                 range_ms: Optional[int] = None,
                 max_rows: Optional[int] = None,
                 evict_anchor: str = "insert",
                 stream_ordered: bool = False) -> None:
        if len(functions) != len(arg_extractors):
            raise ValueError("functions/arg_extractors length mismatch")
        if evict_anchor not in ("insert", "newest"):
            raise ValueError("evict_anchor must be 'insert' or 'newest'")
        self._functions = list(functions)
        self._extractors = list(arg_extractors)
        self.range_ms = range_ms
        self.max_rows = max_rows
        self._evict_anchor = evict_anchor
        # Parallel oldest-first buffers with an evicted-prefix offset.
        self._ts: List[int] = []
        self._args: List[Tuple[Tuple[Any, ...], ...]] = []
        self._start = 0
        self._newest: Optional[int] = None
        self._states: List[Any] = [fn.create() for fn in self._functions]
        # With ordered inserts and a frame that never evicts, the
        # running state's add order *is* time order, so even
        # order-sensitive / non-invertible aggregates stay clean.
        self._stream_ordered = (stream_ordered and range_ms is None
                                and max_rows is None)
        if self._stream_ordered:
            self._dirty = [False] * len(self._functions)
        else:
            self._dirty = [fn.order_sensitive or not fn.invertible
                           for fn in self._functions]
        self.recomputations = 0
        self.incremental_updates = 0

    def __len__(self) -> int:
        return len(self._ts) - self._start

    @property
    def newest_ts(self) -> Optional[int]:
        """Largest timestamp ever inserted (None before the first)."""
        return self._newest

    # ------------------------------------------------------------------
    # maintenance

    def insert(self, ts: int, row: Any) -> None:
        """Add one tuple and evict everything that left the window.

        Arrivals need not be in time order: an out-of-order tuple is
        placed at its sorted position (after equal timestamps, matching
        storage arrival order) and, under ``evict_anchor="newest"``, a
        tuple already outside the window is dropped outright.
        """
        if self._newest is None or ts > self._newest:
            self._newest = ts
        anchor = ts if self._evict_anchor == "insert" else self._newest
        if self.range_ms is not None and ts < anchor - self.range_ms:
            return  # arrived already expired: never enters the window
        args = tuple(extractor(row) for extractor in self._extractors)
        ts_list = self._ts
        if not ts_list or ts >= ts_list[-1]:
            ts_list.append(ts)
            self._args.append(args)
        else:
            position = bisect_right(ts_list, ts, self._start, len(ts_list))
            ts_list.insert(position, ts)
            self._args.insert(position, args)
            if self._stream_ordered:
                # The ordering promise was broken: demote the
                # aggregates whose clean state depended on it back to
                # recomputation over the (sorted) buffer.
                self._stream_ordered = False
                for index, function in enumerate(self._functions):
                    if function.order_sensitive or not function.invertible:
                        self._dirty[index] = True
        for index, function in enumerate(self._functions):
            if not self._dirty[index]:
                function.add(self._states[index], *args[index])
                self.incremental_updates += 1
        self._evict(anchor)

    def evict_to(self, now_ts: int) -> None:
        """Evict everything outside a window anchored at ``now_ts``.

        Used by the offline engine for ``EXCLUDE CURRENT_ROW`` frames,
        where the window must be trimmed before the anchor row is added.
        """
        self._evict(now_ts)

    def _evict_one(self) -> None:
        position = self._start
        args = self._args[position]
        for index, function in enumerate(self._functions):
            if not self._dirty[index]:
                function.remove(self._states[index], *args[index])
                self.incremental_updates += 1
        self._start = position + 1

    def _compact(self) -> None:
        start = self._start
        if start > _COMPACT_THRESHOLD and start * 2 > len(self._ts):
            del self._ts[:start]
            del self._args[:start]
            self._start = 0

    def _evict(self, now_ts: int) -> None:
        horizon = (now_ts - self.range_ms
                   if self.range_ms is not None else None)
        ts_list = self._ts
        while self._start < len(ts_list):
            too_old = horizon is not None and ts_list[self._start] < horizon
            too_many = (self.max_rows is not None
                        and len(ts_list) - self._start > self.max_rows)
            if not (too_old or too_many):
                break
            self._evict_one()
        self._compact()

    def apply_ttl(self, now_ts: int, spec: TTLSpec) -> int:
        """Mirror a table index's TTL sweep onto this buffer.

        Applies exactly the truncation semantics of
        :meth:`TimeSeriesIndex.evict` so the buffer and the index hold
        the same rows after a sweep.  Returns entries removed.
        """
        if spec.unbounded:
            return 0
        horizon = (now_ts - spec.abs_ttl_ms) if spec.abs_ttl_ms else None
        keep = spec.lat_ttl if spec.lat_ttl else None
        removed = 0
        ts_list = self._ts
        while self._start < len(ts_list):
            live = len(ts_list) - self._start
            oldest = ts_list[self._start]
            too_old = horizon is not None and oldest < horizon
            beyond_latest = keep is not None and live > keep
            if spec.kind is TTLKind.ABSOLUTE:
                evict = too_old
            elif spec.kind is TTLKind.LATEST:
                evict = beyond_latest
            elif spec.kind is TTLKind.ABS_OR_LAT:
                evict = too_old or beyond_latest
            else:  # ABS_AND_LAT: must violate both bounds
                evict = too_old and beyond_latest
            if not evict:
                break
            self._evict_one()
            removed += 1
        self._compact()
        return removed

    # ------------------------------------------------------------------
    # results

    def results(self) -> List[Any]:
        """Current aggregate values, one per configured function."""
        output: List[Any] = []
        for index, function in enumerate(self._functions):
            if self._dirty[index]:
                # Recompute from the retained buffer (oldest → newest).
                state = function.create()
                args_list = self._args
                for position in range(self._start, len(args_list)):
                    function.add(state, *args_list[position][index])
                self.recomputations += 1
                output.append(function.result(state))
            else:
                output.append(function.result(self._states[index]))
        return output

    def results_with(self, row: Any) -> List[Any]:
        """Aggregate values as if ``row`` were in the window, transiently.

        Used for ``INSTANCE_NOT_IN_WINDOW`` frames where the anchor row
        participates in its own window but must not persist into later
        ones: invertible aggregates add/compute/remove; the rest
        recompute over buffer + row.
        """
        args = tuple(extractor(row) for extractor in self._extractors)
        output: List[Any] = []
        for index, function in enumerate(self._functions):
            if self._dirty[index]:
                state = function.create()
                args_list = self._args
                for position in range(self._start, len(args_list)):
                    function.add(state, *args_list[position][index])
                function.add(state, *args[index])
                self.recomputations += 1
                output.append(function.result(state))
            else:
                function.add(self._states[index], *args[index])
                output.append(function.result(self._states[index]))
                function.remove(self._states[index], *args[index])
        return output

    def results_at(self, anchor_ts: int,
                   row: Any = None) -> List[Any]:
        """Aggregate values for a window anchored at ``anchor_ts``.

        ``anchor_ts`` must be at or after :attr:`newest_ts` (callers
        guard this; an older anchor may need tuples already evicted).
        Buffered tuples older than ``anchor_ts - range_ms`` are excluded
        *transiently* — subtracted, then re-added — because a later
        request may anchor earlier than this one while still at or after
        ``newest_ts``.  ``row`` (the request tuple), when given, joins
        the window transiently the same way.
        """
        start = self._start
        ts_list = self._ts
        end = len(ts_list)
        cut = start
        if self.range_ms is not None:
            cut = bisect_left(ts_list, anchor_ts - self.range_ms,
                              start, end)
        args_list = self._args
        row_args = tuple(extractor(row) for extractor in self._extractors) \
            if row is not None else None
        output: List[Any] = []
        for index, function in enumerate(self._functions):
            if self._dirty[index]:
                state = function.create()
                for position in range(cut, end):
                    function.add(state, *args_list[position][index])
                if row_args is not None:
                    function.add(state, *row_args[index])
                self.recomputations += 1
                output.append(function.result(state))
                continue
            state = self._states[index]
            for position in range(start, cut):
                function.remove(state, *args_list[position][index])
            if row_args is not None:
                function.add(state, *row_args[index])
            output.append(function.result(state))
            if row_args is not None:
                function.remove(state, *row_args[index])
            for position in range(start, cut):
                function.add(state, *args_list[position][index])
        return output


class IncrementalWindowState(IngestConsumer):
    """Ingest-time per-key running window state for one deployed window.

    Built by the deployment layer for *regular* (non-long-window)
    windows whose aggregates are all invertible and order-insensitive,
    whose plan has no ``WINDOW UNION`` / ``INSTANCE_NOT_IN_WINDOW``,
    and whose primary table is a memory table.  Maintenance rides the
    binlog pipeline (``make_update_closure``),
    so inserts never wait on it; TTL sweeps reach it through the
    table's eviction subscription.

    The request path calls :meth:`compute`, which returns ``{slot:
    value}`` on a hit or ``None`` when the engine must fall back to a
    scan-fold:

    * replication lag — the binlog worker has not yet absorbed every
      inserted row (``rows_seen < table.row_count``), so the buffers
      may be missing rows the scan would see;
    * out-of-order request — the anchor timestamp is older than the
      newest absorbed tuple for the key, so the window may need tuples
      the frame/count bounds already evicted.

    Everything here assumes exact mirroring of the scan path's frame
    arithmetic: the buffer keeps at most ``stored_cap`` newest tuples
    (``ROWS`` frames keep ``rows_preceding - 1`` stored rows; MAXSIZE
    reserves one slot for the request row unless ``EXCLUDE
    CURRENT_ROW``), range bounds evict relative to the newest absorbed
    timestamp, and TTL truncation follows the index spec — each a
    prefix cut in newest-first order, so buffer and scan agree row for
    row.
    """

    def __init__(self, window: Any, tables: Mapping[str, Any],
                 table_name: str, ttl: TTLSpec,
                 functions: Sequence[AggregateFunction],
                 extractors: Sequence[Callable[[Any], Tuple[Any, ...]]],
                 slots: Sequence[int],
                 range_ms: Optional[int],
                 stored_cap: Optional[int]) -> None:
        self._window = window
        self._tables = tables
        self._table_name = table_name
        self._ttl = ttl
        self._functions = tuple(functions)
        self._extractors = tuple(extractors)
        self._slots = tuple(slots)
        self._range_ms = range_ms
        self._stored_cap = stored_cap
        self._include_request = not window.plan.exclude_current_row
        self._keys: Dict[Any, SlidingWindowAggregator] = {}
        self._lock = threading.Lock()
        self.rows_seen = 0

    # -- construction --------------------------------------------------

    @classmethod
    def for_window(cls, window: Any, tables: Mapping[str, Any],
                   table_name: str) -> Optional["IncrementalWindowState"]:
        """Build state for ``window`` if it is eligible, else ``None``."""
        plan = window.plan
        if not window.incremental_eligible:
            return None  # subtract-and-evict needs exact inversion
        table = tables.get(table_name)
        if table is None or not hasattr(table, "subscribe_eviction"):
            return None  # disk/cluster tables: TTL is not mirrorable here
        aggregates = window.aggregates
        index = table.find_index(plan.partition_columns, plan.order_column)
        if plan.is_range_frame:
            range_ms: Optional[int] = plan.range_preceding_ms
            caps: List[int] = []
        else:
            range_ms = None
            caps = [] if plan.rows_preceding is None \
                else [max(plan.rows_preceding - 1, 0)]
        if plan.maxsize is not None:
            reserve = 0 if plan.exclude_current_row else 1
            caps.append(max(plan.maxsize - reserve, 0))
        stored_cap = min(caps) if caps else None
        return cls(window=window, tables=tables, table_name=table_name,
                   ttl=index.ttl,
                   functions=[agg.function for agg in aggregates],
                   extractors=[agg.arg_fn for agg in aggregates],
                   slots=[agg.slot for agg in aggregates],
                   range_ms=range_ms, stored_cap=stored_cap)

    def _make_aggregator(self) -> SlidingWindowAggregator:
        return SlidingWindowAggregator(
            self._functions, self._extractors, range_ms=self._range_ms,
            max_rows=self._stored_cap, evict_anchor="newest")

    # -- maintenance (binlog worker thread / deploy-time backfill) -----

    def absorb(self, row: Any) -> None:
        window = self._window
        key = window.partition_key(row)
        ts = normalize_ts(window.order_value(row))
        with self._lock:
            aggregator = self._keys.get(key)
            if aggregator is None:
                aggregator = self._make_aggregator()
                self._keys[key] = aggregator
            aggregator.insert(ts, row)
            self.rows_seen += 1

    def on_ttl_evict(self, _table_name: str, now_ts: int) -> None:
        """Table eviction hook: mirror the index's TTL sweep."""
        if self._ttl.unbounded:
            return
        with self._lock:
            for aggregator in self._keys.values():
                aggregator.apply_ttl(now_ts, self._ttl)

    # -- request path ---------------------------------------------------

    def compute(self, request_row: Any) -> Optional[Dict[int, Any]]:
        """Answer the window for ``request_row``, or ``None`` to fall back.

        The staleness check reads ``table.row_count`` *before* comparing
        against ``rows_seen``: ``rows_seen`` only grows, so observing
        ``rows_seen >= row_count`` proves every row the scan path could
        see at that instant has been absorbed (a concurrent insert after
        the read makes the hit no staler than a scan issued at the same
        moment).
        """
        row_count = self._tables[self._table_name].row_count
        window = self._window
        key = window.partition_key(request_row)
        anchor_ts = normalize_ts(window.order_value(request_row))
        with self._lock:
            if self.rows_seen < row_count:
                return None  # replication lag: buffers may miss rows
            aggregator = self._keys.get(key)
            if aggregator is None:
                # Fully caught up and no buffer ⇒ the key truly has no
                # stored rows; the window is just the request tuple.
                aggregator = self._make_aggregator()
            elif aggregator.newest_ts is not None \
                    and anchor_ts < aggregator.newest_ts:
                return None  # out-of-order request: evicted rows may apply
            values = aggregator.results_at(
                anchor_ts,
                row=request_row if self._include_request else None)
        return dict(zip(self._slots, values))
