"""Online real-time execution engine (paper Sections 3.2 and 5).

Implements **online request mode**: each incoming request tuple is
treated as virtually inserted into its table, the deployed (compiled)
feature script runs against it, and a single feature row comes back.

The fast path per request:

1. Resolve each ``LAST JOIN`` through the right table's stream index —
   the newest matching tuple is O(1) thanks to the two-level skiplist.
2. For every window, first consult **incremental window state** (per-key
   running aggregates maintained at ingest time); on a hit the window
   costs O(aggregates).  Otherwise fetch the window's rows as *blocks*
   via index scans bounded by the request timestamp (window unions merge
   several tables' scans newest-first) and fold them through the
   window's **fused kernel** — or, for deployed *long windows*, ask the
   pre-aggregation manager for merged bucket states and scan only the
   raw head/tail spans (Section 5.1's query refinement).
3. Project the output row.

The engine keeps no per-request state across calls; window/preagg state
lives in the storage layer and the ingest-time aggregators.  Statistics
are accumulated per request in a local counter bundle and applied to
:class:`EngineStats` under its lock in one step, so concurrent requests
from the serving frontend's worker pool never lose increments.
"""

from __future__ import annotations

import dataclasses
import threading
from time import perf_counter
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import ExecutionError
from ..obs import NULL_OBS, Observability
from ..schema import Row
from ..serving.deadline import current_deadline
from ..sql.compiler import CompiledJoin, CompiledQuery, CompiledWindow
from ..storage.memtable import normalize_ts
from .preagg import PreAggregator

__all__ = ["OnlineEngine", "EngineStats"]

_COUNTER_FIELDS = ("rows_scanned", "scan_blocks", "preagg_bucket_merges",
                   "preagg_raw_rows", "join_lookups", "shared_scan_hits",
                   "incremental_hits", "incremental_fallbacks")

#: Shared empty slot map for windows with no pre-aggregation — never
#: mutated (the request path only iterates and membership-tests it), so
#: every request can alias it instead of allocating a fresh dict.
_NO_PREAGG: Dict[int, "PreAggregator"] = {}


class _RequestCounters:
    """Per-request statistic deltas.

    Accumulated lock-free on the request's own stack, then folded into
    the shared :class:`EngineStats` in a single locked step — the fix
    for the racy ``stats.field += 1`` pattern under concurrent serving.
    """

    __slots__ = _COUNTER_FIELDS + ("incremental_windows",)

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.scan_blocks = 0
        self.preagg_bucket_merges = 0
        self.preagg_raw_rows = 0
        self.join_lookups = 0
        self.shared_scan_hits = 0
        self.incremental_hits = 0
        self.incremental_fallbacks = 0
        # (window name, hit?) events; lazily allocated — most requests
        # either use no incremental state or should not pay a list.
        self.incremental_windows: Optional[List[Tuple[str, bool]]] = None

    def note_window(self, name: str, hit: bool) -> None:
        if self.incremental_windows is None:
            self.incremental_windows = []
        self.incremental_windows.append((name, hit))


@dataclasses.dataclass
class EngineStats:
    """Counters for observability and the ablation benches.

    Updated only through :meth:`apply` (one lock acquisition per
    request), never via in-place ``+=`` from request threads.
    """

    requests: int = 0
    rows_scanned: int = 0
    scan_blocks: int = 0
    preagg_bucket_merges: int = 0
    preagg_raw_rows: int = 0
    join_lookups: int = 0
    shared_scan_hits: int = 0
    incremental_hits: int = 0
    incremental_fallbacks: int = 0
    #: window name → [hits, fallbacks] — which window is falling back,
    #: not just that one is.  Read via :meth:`incremental_window_stats`.
    incremental_by_window: Dict[str, List[int]] = dataclasses.field(
        default_factory=dict)
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False)

    def apply(self, counters: _RequestCounters) -> None:
        """Fold one request's deltas in atomically."""
        with self._lock:
            self.requests += 1
            self.rows_scanned += counters.rows_scanned
            self.scan_blocks += counters.scan_blocks
            self.preagg_bucket_merges += counters.preagg_bucket_merges
            self.preagg_raw_rows += counters.preagg_raw_rows
            self.join_lookups += counters.join_lookups
            self.shared_scan_hits += counters.shared_scan_hits
            self.incremental_hits += counters.incremental_hits
            self.incremental_fallbacks += counters.incremental_fallbacks
            if counters.incremental_windows:
                for name, hit in counters.incremental_windows:
                    entry = self.incremental_by_window.get(name)
                    if entry is None:
                        entry = self.incremental_by_window[name] = [0, 0]
                    entry[0 if hit else 1] += 1

    def incremental_window_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-window incremental attribution, as a stable copy."""
        with self._lock:
            return {name: {"hits": entry[0], "fallbacks": entry[1]}
                    for name, entry in self.incremental_by_window.items()}


class OnlineEngine:
    """Request-mode executor over a set of tables.

    Args:
        tables: table name → storage object (``MemTable`` or ``DiskTable``
            — both expose the same read API).
        obs: observability handle.  Disabled (the default) keeps the
            request path exactly as fast as the uninstrumented engine;
            enabled adds per-stage trace spans and metric series.
        fused_fold: fold windows through the compiler's fused kernels
            (:meth:`CompiledWindow.compute_blocks`).  ``False`` selects
            the pre-fusion per-row/per-state fold — the ablation
            baseline.
        block_scan: fetch window rows through the storage layer's
            chunked ``window_scan_blocks`` API.  ``False`` selects the
            per-row iterator scans (ablation baseline).
    """

    def __init__(self, tables: Mapping[str, Any],
                 obs: Optional[Observability] = None,
                 fused_fold: bool = True,
                 block_scan: bool = True) -> None:
        self._tables = tables
        self._fused_fold = fused_fold
        self._block_scan = block_scan
        self.stats = EngineStats()
        self._obs = obs or NULL_OBS
        registry = self._obs.registry
        self._m_requests = registry.counter("online.requests")
        self._m_rows_scanned = registry.counter("online.rows_scanned")
        self._m_scan_blocks = registry.counter("online.scan.blocks")
        self._m_join_lookups = registry.counter("online.join_lookups")
        self._m_preagg_merges = registry.counter(
            "online.preagg.bucket_merges")
        self._m_preagg_raw = registry.counter("online.preagg.raw_rows")
        self._m_shared_scans = registry.counter(
            "online.batch.shared_scans")
        self._m_incr_hits = registry.counter("online.incremental.hits")
        self._m_incr_fallbacks = registry.counter(
            "online.incremental.fallbacks")

    # ------------------------------------------------------------------

    def execute_request(
            self, compiled: CompiledQuery, request_row: Sequence[Any],
            preagg: Optional[Mapping[str, Mapping[int, PreAggregator]]] = None,
            shared_fetch: Optional[Dict[Any, List[List[Row]]]] = None,
            incremental: Optional[Mapping[str, Any]] = None,
            router: Optional[Any] = None
    ) -> Row:
        """Run one request tuple through a compiled deployment.

        Args:
            compiled: the compiled feature script.
            request_row: a tuple matching the primary table's schema.
            preagg: window name → {aggregate slot → PreAggregator}; slots
                present here are answered from pre-aggregation, the rest
                from raw window scans.
            shared_fetch: micro-batching hook — a dict shared across the
                requests of one batch; window scans that resolve to the
                same (window, partition key, anchor ts) are fetched once
                and reused (hot keys under herd traffic).
            incremental: window name → ingest-time incremental window
                state (see :mod:`repro.online.incremental`).  Windows
                present here try the O(aggregates) hit path first and
                fall back to a fused scan-fold when the state declines
                (cold key, stale replication, out-of-order anchor).
            router: optional
                :class:`~repro.adaptive.ExecutionRouter`.  When set, the
                router picks the execution tier per window (possibly
                discarding the preagg/incremental fast paths in favour
                of a scan) and every tier execution is timed to
                calibrate its cost model.  Each tier computes identical
                answers, so routing never changes results.

        Returns:
            The projected feature row.

        Raises:
            DeadlineExceededError: the ambient request deadline (see
                :mod:`repro.serving.deadline`) ran out mid-plan.
        """
        if self._obs.enabled:
            return self._execute_request_traced(compiled, request_row,
                                                preagg, shared_fetch,
                                                incremental, router)
        deadline = current_deadline()
        plan = compiled.plan
        validated = plan.table_schema.validate_row(request_row)
        counters = _RequestCounters()

        # Build the combined row: primary columns then each join's.
        combined: List[Any] = [None] * compiled.combined_width
        combined[:len(validated)] = validated
        for join in compiled.joins:
            matched = self._resolve_join(join, combined, counters)
            if matched is not None:
                combined[join.start_slot:
                         join.start_slot + join.right_width] = matched
        combined_tuple = tuple(combined)

        if compiled.where_fn is not None \
                and compiled.where_fn(combined_tuple) is not True:
            self.stats.apply(counters)
            raise ExecutionError(
                "request tuple filtered out by WHERE predicate")

        # Window aggregates, with row fetches shared between windows that
        # the compiler recognised as identical definitions.
        aggregate_values: List[Any] = [None] * compiled.aggregate_count
        fetched: Dict[str, List[List[Row]]] = {}
        for name, window in compiled.windows.items():
            if not window.aggregates:
                continue
            if deadline is not None:
                deadline.check("request")
            canonical = compiled.merged_windows.get(name, name)
            slots_src = preagg.get(name) if preagg is not None else None
            # Keyed by the window's own name: merged siblings share a
            # scan but carry distinct aggregate slots.
            state = incremental.get(name) \
                if incremental is not None else None
            router_key = None
            if router is not None:
                router_key = window.partition_key(validated)
                router.note_request(name, router_key)
                if slots_src:
                    # The requested span informs bucket sizing whatever
                    # tier ends up serving this request.
                    router.observe_span(
                        name, window.plan.range_preceding_ms or 0)
                tier = router.decide(name, router_key,
                                     has_incremental=state is not None,
                                     has_preagg=bool(slots_src))
                if tier != "preagg":
                    slots_src = None
                if tier == "scan":
                    state = None
            # Empty path: alias the shared immutable map instead of
            # allocating a dict per window per request.
            preagg_slots: Mapping[int, PreAggregator] = \
                dict(slots_src) if slots_src else _NO_PREAGG
            raw_aggregates = [compiled_agg for compiled_agg
                              in window.aggregates
                              if compiled_agg.slot not in preagg_slots]
            if raw_aggregates or not preagg_slots:
                results = None
                if state is not None and not preagg_slots:
                    if router is not None:
                        started = perf_counter()
                        results = state.compute(validated)
                        router.observe_incremental(
                            name, (perf_counter() - started) * 1_000.0,
                            hit=results is not None)
                    else:
                        results = state.compute(validated)
                    if results is not None:
                        counters.incremental_hits += 1
                        counters.note_window(name, hit=True)
                    else:
                        counters.incremental_fallbacks += 1
                        counters.note_window(name, hit=False)
                if results is None:
                    scan_started = perf_counter() \
                        if router is not None else 0.0
                    blocks_before = counters.scan_blocks
                    if canonical not in fetched:
                        fetched[canonical] = self._window_blocks(
                            compiled, window, validated, counters,
                            shared_fetch, canonical)
                    results = self._fold_window(window, fetched[canonical])
                    if router is not None:
                        router.observe_scan(
                            name, router_key,
                            (perf_counter() - scan_started) * 1_000.0,
                            counters.scan_blocks - blocks_before)
                for slot, value in results.items():
                    if slot not in preagg_slots:
                        aggregate_values[slot] = value
            if preagg_slots:
                preagg_started = perf_counter() \
                    if router is not None else 0.0
                for slot, aggregator in preagg_slots.items():
                    aggregate_values[slot] = self._preagg_value(
                        compiled, window, aggregator, validated, counters)
                if router is not None:
                    router.observe_preagg(
                        name,
                        (perf_counter() - preagg_started) * 1_000.0)
        extended = combined_tuple + tuple(aggregate_values)
        projected = compiled.project(extended)
        self.stats.apply(counters)
        if router is not None:
            router.after_request()
        return projected

    # ------------------------------------------------------------------
    # traced request path (observability enabled)

    def _execute_request_traced(
            self, compiled: CompiledQuery, request_row: Sequence[Any],
            preagg: Optional[Mapping[str, Mapping[int, PreAggregator]]],
            shared_fetch: Optional[Dict[Any, List[List[Row]]]] = None,
            incremental: Optional[Mapping[str, Any]] = None,
            router: Optional[Any] = None
    ) -> Row:
        """:meth:`execute_request` with per-stage spans and metrics.

        Control flow mirrors the untraced body exactly; the untraced
        version stays separate so the default-off path adds nothing to
        the request latency the paper's Figure 6 measures.
        """
        tracer = self._obs.tracer
        deadline = current_deadline()
        plan = compiled.plan
        validated = plan.table_schema.validate_row(request_row)
        counters = _RequestCounters()
        self._m_requests.inc()

        combined: List[Any] = [None] * compiled.combined_width
        combined[:len(validated)] = validated
        for join in compiled.joins:
            with tracer.span("index.seek",
                             table=join.plan.right_table) as span:
                matched = self._resolve_join(join, combined, counters)
                span.set_tag(hit=matched is not None)
            if matched is not None:
                combined[join.start_slot:
                         join.start_slot + join.right_width] = matched
        combined_tuple = tuple(combined)

        if compiled.where_fn is not None \
                and compiled.where_fn(combined_tuple) is not True:
            self.stats.apply(counters)
            raise ExecutionError(
                "request tuple filtered out by WHERE predicate")

        aggregate_values: List[Any] = [None] * compiled.aggregate_count
        fetched: Dict[str, List[List[Row]]] = {}
        for name, window in compiled.windows.items():
            if not window.aggregates:
                continue
            if deadline is not None:
                deadline.check("request")
            canonical = compiled.merged_windows.get(name, name)
            slots_src = preagg.get(name) if preagg is not None else None
            state = incremental.get(name) \
                if incremental is not None else None
            router_key = None
            if router is not None:
                router_key = window.partition_key(validated)
                router.note_request(name, router_key)
                if slots_src:
                    # The requested span informs bucket sizing whatever
                    # tier ends up serving this request.
                    router.observe_span(
                        name, window.plan.range_preceding_ms or 0)
                with tracer.span("router.decide", window=name) as span:
                    tier = router.decide(name, router_key,
                                         has_incremental=state is not None,
                                         has_preagg=bool(slots_src))
                    span.set_tag(tier=tier)
                if tier != "preagg":
                    slots_src = None
                if tier == "scan":
                    state = None
            # Empty path: alias the shared immutable map instead of
            # allocating a dict per window per request.
            preagg_slots: Mapping[int, PreAggregator] = \
                dict(slots_src) if slots_src else _NO_PREAGG
            raw_aggregates = [compiled_agg for compiled_agg
                              in window.aggregates
                              if compiled_agg.slot not in preagg_slots]
            if raw_aggregates or not preagg_slots:
                results = None
                if state is not None and not preagg_slots:
                    with tracer.span("incremental.lookup",
                                     window=name) as span:
                        if router is not None:
                            started = perf_counter()
                            results = state.compute(validated)
                            router.observe_incremental(
                                name,
                                (perf_counter() - started) * 1_000.0,
                                hit=results is not None)
                        else:
                            results = state.compute(validated)
                        span.set_tag(hit=results is not None)
                    if results is not None:
                        counters.incremental_hits += 1
                        counters.note_window(name, hit=True)
                        self._m_incr_hits.inc()
                    else:
                        counters.incremental_fallbacks += 1
                        counters.note_window(name, hit=False)
                        self._m_incr_fallbacks.inc()
                if results is None:
                    scan_started = perf_counter() \
                        if router is not None else 0.0
                    blocks_before = counters.scan_blocks
                    if canonical not in fetched:
                        scanned_before = counters.rows_scanned
                        with tracer.span("window.scan", window=name) as span:
                            fetched[canonical] = self._window_blocks(
                                compiled, window, validated, counters,
                                shared_fetch, canonical)
                            span.set_tag(rows=sum(
                                len(block)
                                for block in fetched[canonical]))
                        self._m_rows_scanned.inc(
                            counters.rows_scanned - scanned_before)
                        self._m_scan_blocks.inc(
                            counters.scan_blocks - blocks_before)
                    blocks = fetched[canonical]
                    with tracer.span("agg.fold", window=name,
                                     rows=sum(len(block)
                                              for block in blocks)):
                        results = self._fold_window(window, blocks)
                    if router is not None:
                        router.observe_scan(
                            name, router_key,
                            (perf_counter() - scan_started) * 1_000.0,
                            counters.scan_blocks - blocks_before)
                for slot, value in results.items():
                    if slot not in preagg_slots:
                        aggregate_values[slot] = value
            if preagg_slots:
                preagg_started = perf_counter() \
                    if router is not None else 0.0
                for slot, aggregator in preagg_slots.items():
                    merges_before = counters.preagg_bucket_merges
                    raw_before = counters.preagg_raw_rows
                    with tracer.span("preagg.lookup", window=name,
                                     func=aggregator.func_name) as span:
                        aggregate_values[slot] = self._preagg_value(
                            compiled, window, aggregator, validated,
                            counters)
                        span.set_tag(
                            bucket_merges=(counters.preagg_bucket_merges
                                           - merges_before),
                            raw_rows=counters.preagg_raw_rows - raw_before)
                    self._m_preagg_merges.inc(
                        counters.preagg_bucket_merges - merges_before)
                    self._m_preagg_raw.inc(
                        counters.preagg_raw_rows - raw_before)
                if router is not None:
                    router.observe_preagg(
                        name,
                        (perf_counter() - preagg_started) * 1_000.0)
        extended = combined_tuple + tuple(aggregate_values)
        with tracer.span("encode"):
            projected = compiled.project(extended)
        self._m_join_lookups.inc(len(compiled.joins))
        self.stats.apply(counters)
        if router is not None:
            router.after_request()
        return projected

    # ------------------------------------------------------------------
    # joins

    def _resolve_join(self, join: CompiledJoin, combined: List[Any],
                      counters: _RequestCounters) -> Optional[Row]:
        table = self._tables[join.plan.right_table]
        key_value = join.key_fn(tuple(combined))
        counters.join_lookups += 1
        if join.residual_fn is None:
            hit = table.last_join_lookup(join.key_columns, key_value)
            return hit[1] if hit is not None else None
        # Residual condition: walk candidates newest-first until one
        # passes.  A scan copies its run out, so fetch a growing newest
        # prefix: an early hit never pays for the key's whole history.
        # (Inserts between rounds can only push rows further back, so
        # skipping ``seen`` re-probes a row at worst, never misses one.)
        index = table.find_index(join.key_columns)
        seen, limit = 0, 32
        while True:
            candidates = list(table.window_scan(
                join.key_columns, index.ts_column, key_value, limit=limit))
            for _ts, candidate in candidates[seen:]:
                probe = list(combined)
                probe[join.start_slot:
                      join.start_slot + join.right_width] = candidate
                counters.rows_scanned += 1
                if join.residual_fn(tuple(probe)) is True:
                    return candidate
            if len(candidates) < limit:
                return None
            seen, limit = len(candidates), limit * 8

    # ------------------------------------------------------------------
    # windows

    def _fold_window(self, window: CompiledWindow,
                     blocks: List[List[Row]]) -> Dict[int, Any]:
        if self._fused_fold:
            return window.compute_blocks(blocks)
        rows = [row for block in blocks for row in block]
        return window.compute_naive(rows)

    def _window_blocks(self, compiled: CompiledQuery,
                       window: CompiledWindow, request_row: Row,
                       counters: _RequestCounters,
                       shared: Optional[Dict[Any, List[List[Row]]]] = None,
                       cache_name: Optional[str] = None) -> List[List[Row]]:
        """Fetch a window's rows as newest-first blocks, request row first.

        With ``shared`` (one dict per micro-batch), the *stored* row
        blocks of a scan are cached under ``(window, partition key,
        anchor ts)`` and reused by later requests in the batch that
        resolve to the identical scan — the request row itself is
        prepended per request, so requests sharing a key/timestamp but
        carrying different payloads stay correct.
        """
        plan = window.plan
        primary = compiled.plan.table
        key = window.partition_key(request_row)
        anchor_ts = normalize_ts(window.order_value(request_row))
        if plan.is_range_frame:
            end_ts: Optional[int] = anchor_ts - plan.range_preceding_ms
            limit: Optional[int] = None
        elif plan.rows_preceding is not None:
            end_ts = None
            limit = plan.rows_preceding - 1  # preceding rows only
        else:
            end_ts = None
            limit = None

        cache_key = (cache_name, key, anchor_ts) \
            if shared is not None and cache_name is not None else None
        stored = shared.get(cache_key) if cache_key is not None else None
        if stored is None:
            # INSTANCE_NOT_IN_WINDOW: stored instance-table rows never
            # enter the window — only union-table rows (the request row
            # itself still participates unless EXCLUDE CURRENT_ROW).
            sources = [] if plan.instance_not_in_window \
                else [self._tables[primary]]
            sources.extend(self._tables[union_table]
                           for union_table in plan.union_tables)
            stored = self._fetch_stored_blocks(
                sources, plan, key, anchor_ts, end_ts, limit)
            counters.rows_scanned += sum(len(block) for block in stored)
            counters.scan_blocks += len(stored)
            if cache_key is not None:
                shared[cache_key] = stored
        else:
            counters.shared_scan_hits += 1
            self._m_shared_scans.inc()

        blocks: List[List[Row]] = [] if plan.exclude_current_row \
            else [[request_row]]
        blocks.extend(stored)
        if plan.maxsize is not None:
            blocks = _cap_blocks(blocks, plan.maxsize)
        return blocks

    def _fetch_stored_blocks(self, sources: List[Any], plan: Any, key: Any,
                             anchor_ts: int, end_ts: Optional[int],
                             limit: Optional[int]) -> List[List[Row]]:
        """Scan the window's sources into newest-first row blocks.

        Single-source windows stream the storage layer's blocks through
        unchanged (no merge step at all) — memtables, disk tables and
        cluster table views all serve the chunked API; unions fall back
        to a k-way merge over block cursors.  Only a source without
        ``window_scan_blocks`` (or ``block_scan=False``) takes the
        per-row iterator path.
        """
        if limit is not None and limit <= 0:
            return []  # e.g. ROWS BETWEEN 0 PRECEDING: only the request row
        if self._block_scan:
            block_scans = [getattr(source, "window_scan_blocks", None)
                           for source in sources]
            if all(scan is not None for scan in block_scans):
                if len(block_scans) == 1:
                    return [[pair[1] for pair in block]
                            for block in block_scans[0](
                                plan.partition_columns, plan.order_column,
                                key, start_ts=anchor_ts, end_ts=end_ts,
                                limit=limit)]
                merged = _merge_blocks_newest_first(
                    [iter(scan(plan.partition_columns, plan.order_column,
                               key, start_ts=anchor_ts, end_ts=end_ts))
                     for scan in block_scans], limit=limit)
                return [merged] if merged else []
        iterators = [
            source.window_scan(plan.partition_columns, plan.order_column,
                               key, start_ts=anchor_ts, end_ts=end_ts)
            for source in sources
        ]
        merged_rows = [pair[1] for pair
                       in _merge_newest_first(iterators, limit=limit)]
        return [merged_rows] if merged_rows else []

    # ------------------------------------------------------------------
    # pre-aggregation path

    def _preagg_value(self, compiled: CompiledQuery, window: CompiledWindow,
                      aggregator: PreAggregator, request_row: Row,
                      counters: _RequestCounters) -> Any:
        """Answer one long-window aggregate via query refinement."""
        plan = window.plan
        if not plan.is_range_frame:
            raise ExecutionError(
                "long-window pre-aggregation requires a ROWS_RANGE frame")
        key = window.partition_key(request_row)
        anchor_ts = normalize_ts(window.order_value(request_row))
        lo = anchor_ts - plan.range_preceding_ms
        refined = aggregator.query(key, lo, anchor_ts)
        counters.preagg_bucket_merges += sum(
            refined.buckets_used.values())

        function = aggregator.function
        state = refined.state
        # Raw spans: head (oldest edge) merged *before* the bucket state,
        # tail (newest edge, includes the open bucket) merged after.
        head_state = self._raw_span_state(compiled, window, aggregator, key,
                                          refined.head_span, counters)
        tail_state = self._raw_span_state(compiled, window, aggregator, key,
                                          refined.tail_span, counters)
        merged = None
        for piece in (head_state, state, tail_state):
            if piece is None:
                continue
            merged = piece if merged is None else function.merge(
                merged, piece)
        # The request tuple itself is part of the window.
        if not plan.exclude_current_row:
            request_state = function.create()
            function.add(request_state, *aggregator.extract_args(request_row))
            merged = request_state if merged is None else function.merge(
                merged, request_state)
        if merged is None:
            merged = function.create()
        return function.result(merged)

    def _raw_span_state(self, compiled: CompiledQuery,
                        window: CompiledWindow,
                        aggregator: PreAggregator, key: Any,
                        span: Optional[Tuple[int, int]],
                        counters: _RequestCounters) -> Any:
        if span is None:
            return None
        plan = window.plan
        table = self._tables[compiled.plan.table]
        function = aggregator.function
        state = None
        add = function.add
        extract = aggregator.extract_args
        scan_blocks = getattr(table, "window_scan_blocks", None) \
            if self._block_scan else None
        if scan_blocks is not None:
            blocks = list(scan_blocks(plan.partition_columns,
                                      plan.order_column, key,
                                      start_ts=span[1], end_ts=span[0]))
            counters.preagg_raw_rows += sum(len(block) for block in blocks)
            for block_index in range(len(blocks) - 1, -1, -1):
                block = blocks[block_index]
                for pair_index in range(len(block) - 1, -1, -1):
                    if state is None:
                        state = function.create()
                    add(state, *extract(block[pair_index][1]))
            return state
        rows = list(table.window_scan(plan.partition_columns,
                                      plan.order_column, key,
                                      start_ts=span[1], end_ts=span[0]))
        counters.preagg_raw_rows += len(rows)
        for _ts, row in reversed(rows):  # oldest → newest
            if state is None:
                state = function.create()
            add(state, *extract(row))
        return state


def _cap_blocks(blocks: List[List[Row]], maxsize: int) -> List[List[Row]]:
    """Truncate a block list to at most ``maxsize`` total rows."""
    capped: List[List[Row]] = []
    remaining = maxsize
    for block in blocks:
        if remaining <= 0:
            break
        if len(block) <= remaining:
            capped.append(block)
            remaining -= len(block)
        else:
            capped.append(block[:remaining])
            remaining = 0
    return capped


def _merge_newest_first(iterators: List[Iterator[Tuple[int, Row]]],
                        limit: Optional[int]) -> List[Tuple[int, Row]]:
    """k-way merge of newest-first (ts, row) streams, optionally capped."""
    if limit is not None and limit <= 0:
        return []  # e.g. ROWS BETWEEN 0 PRECEDING: only the request row
    heads: List[Optional[Tuple[int, Row]]] = [
        next(iterator, None) for iterator in iterators]
    merged: List[Tuple[int, Row]] = []
    while True:
        best_slot = -1
        best_ts: Optional[int] = None
        for slot, head in enumerate(heads):
            if head is not None and (best_ts is None or head[0] > best_ts):
                best_ts = head[0]
                best_slot = slot
        if best_slot < 0:
            return merged
        merged.append(heads[best_slot])  # type: ignore[arg-type]
        if limit is not None and len(merged) >= limit:
            return merged
        heads[best_slot] = next(iterators[best_slot], None)


def _merge_blocks_newest_first(
        block_iterators: List[Iterator[List[Tuple[int, Row]]]],
        limit: Optional[int]) -> List[Row]:
    """k-way merge over *block* streams, producing one merged row list.

    Cursors advance by list indexing within each source's current block,
    so the per-row cost is a few tuple compares — no generator resumes
    until a source exhausts a block.  Ties keep the earlier source first
    (the primary table leads), matching :func:`_merge_newest_first`.
    """
    blocks: List[Optional[List[Tuple[int, Row]]]] = []
    positions: List[int] = []
    for iterator in block_iterators:
        blocks.append(next(iterator, None))
        positions.append(0)
    merged: List[Row] = []
    append = merged.append
    while True:
        best_slot = -1
        best_ts: Optional[int] = None
        for slot, block in enumerate(blocks):
            if block is None:
                continue
            ts = block[positions[slot]][0]
            if best_ts is None or ts > best_ts:
                best_ts = ts
                best_slot = slot
        if best_slot < 0:
            return merged
        block = blocks[best_slot]
        position = positions[best_slot]
        append(block[position][1])  # type: ignore[index]
        if limit is not None and len(merged) >= limit:
            return merged
        position += 1
        if position >= len(block):  # type: ignore[arg-type]
            blocks[best_slot] = next(block_iterators[best_slot], None)
            positions[best_slot] = 0
        else:
            positions[best_slot] = position
