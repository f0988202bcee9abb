"""Online real-time execution engine (paper Sections 3.2 and 5).

Implements **online request mode**: each incoming request tuple is
treated as virtually inserted into its table, the deployed (compiled)
feature script runs against it, and a single feature row comes back.

There is one request body, :meth:`OnlineEngine.execute_request`, and it
is always instrumented.  Per request:

1. Resolve each ``LAST JOIN`` with :meth:`CompiledJoin.lookup
   <repro.sql.compiler.CompiledJoin.lookup>`, the body the offline
   engine runs too: the newest matching tuple is the last element of
   the key's time-ordered array, and a residual condition walks a
   growing newest prefix of the key's blocks (``index.seek`` span).
2. For every group of windows that share a scan
   (:attr:`CompiledQuery.scans`), fetch the widest window as column
   blocks from the storage layer's chunked ``window_scan_blocks``
   (``window.scan``; window unions merge several tables' block streams
   newest-first) — one storage read per key, however many windows nest
   in it.  Each narrower window of the group takes a newest-first cut
   of those blocks (:func:`_trim`: whole blocks pass through, one is
   sliced).  Every window's blocks are reduced with its **fold**
   (``agg.fold``).  A long window's blocks are mostly spans and sealed
   blocks carrying memoized summaries, so the fold is Section 5.1's
   query refinement: summaries in the middle, raw rows only at the two
   edges — and only on a key's first two reads after a write: from the
   second on, the published tail and the cut edges memoize too.  Every window on every host
   takes this one path.
3. Project the output row (``encode``).

The engine keeps no per-request state across calls; window state lives
in the storage layer and its memoized summaries.  Statistics
are accumulated per request in a local counter bundle and, when the
request ends — with a feature row, a ``WHERE`` rejection, or a deadline
expiring mid-plan — applied to :class:`EngineStats` under its lock and
mirrored into the ``online.*`` registry series in one step, so
concurrent requests never lose increments and the two views agree.
With observability disabled (the default) the spans are one shared
no-op object and the series no-op counters: a request pays a few no-op
calls (under 1 µs measured, see EXPERIMENTS.md § "One request body")
and records nothing.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_left
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..obs import NULL_OBS, Observability
from ..schema import Row
from ..serving.deadline import current_deadline
from ..sql.compiler import CompiledQuery, CompiledWindow
from ..sql.planner import WindowPlan
from ..storage.memtable import normalize_ts
from ..storage.skiplist import ColumnBlock, SealedSpan

__all__ = ["OnlineEngine", "EngineStats"]

_COUNTER_FIELDS = ("rows_scanned", "scan_blocks", "summary_blocks",
                   "join_lookups")


class _RequestCounters:
    """Per-request statistic deltas.

    Accumulated lock-free on the request's own stack, then folded into
    the shared :class:`EngineStats` in a single locked step — the fix
    for the racy ``stats.field += 1`` pattern under concurrent serving.
    """

    __slots__ = _COUNTER_FIELDS

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.scan_blocks = 0
        self.summary_blocks = 0
        self.join_lookups = 0


@dataclasses.dataclass
class EngineStats:
    """Counters for observability and the ablation benches.

    Updated only through :meth:`apply` (one lock acquisition per
    request), never via in-place ``+=`` from request threads.
    """

    requests: int = 0
    rows_scanned: int = 0
    scan_blocks: int = 0
    summary_blocks: int = 0
    join_lookups: int = 0
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False)

    def apply(self, counters: _RequestCounters) -> None:
        """Fold one request's deltas in atomically."""
        with self._lock:
            self.requests += 1
            self.rows_scanned += counters.rows_scanned
            self.scan_blocks += counters.scan_blocks
            self.summary_blocks += counters.summary_blocks
            self.join_lookups += counters.join_lookups


class OnlineEngine:
    """Request-mode executor over a set of tables.

    Args:
        tables: table name → storage object (``MemTable``, ``DiskTable``
            or a cluster table view — all serve the same read API,
            ``window_scan_blocks`` included).
        obs: observability handle.  The request path is always
            instrumented; the disabled default hands out one shared
            no-op span and no-op counters, so it pays a few no-op calls
            per request and records nothing.
    """

    def __init__(self, tables: Mapping[str, Any],
                 obs: Optional[Observability] = None) -> None:
        self._tables = tables
        self.stats = EngineStats()
        self._obs = obs or NULL_OBS
        registry = self._obs.registry
        self._m_requests = registry.counter("online.requests")
        self._m_rows_scanned = registry.counter("online.rows_scanned")
        self._m_scan_blocks = registry.counter("online.scan.blocks")
        self._m_summary_blocks = registry.counter(
            "online.fold.summary_blocks")
        self._m_join_lookups = registry.counter("online.join_lookups")

    def _publish(self, counters: _RequestCounters) -> None:
        """Mirror one request's deltas into the ``online.*`` series.

        The only place the engine touches the registry, called beside
        :meth:`EngineStats.apply` with the same bundle — so the registry
        and ``EngineStats`` cannot disagree about the same traffic.
        """
        self._m_requests.inc()
        if counters.rows_scanned:
            self._m_rows_scanned.inc(counters.rows_scanned)
        if counters.scan_blocks:
            self._m_scan_blocks.inc(counters.scan_blocks)
        if counters.summary_blocks:
            self._m_summary_blocks.inc(counters.summary_blocks)
        if counters.join_lookups:
            self._m_join_lookups.inc(counters.join_lookups)

    # ------------------------------------------------------------------

    def execute_request(self, compiled: CompiledQuery,
                        request_row: Sequence[Any]) -> Row:
        """Run one request tuple through a compiled deployment.

        Args:
            compiled: the compiled feature script.
            request_row: a tuple matching the primary table's schema.

        Returns:
            The projected feature row.

        Raises:
            DeadlineExceededError: the ambient request deadline (see
                :mod:`repro.serving.deadline`) ran out mid-plan.
        """
        span_of = self._obs.tracer.span  # bound once per request
        deadline = current_deadline()
        validated = compiled.plan.table_schema.validate_row(request_row)
        counters = _RequestCounters()
        try:
            # The combined row: primary columns then each join's.
            combined_tuple = validated
            if compiled.joins:
                combined: List[Any] = [None] * compiled.combined_width
                combined[:len(validated)] = validated
                for join in compiled.joins:
                    counters.join_lookups += 1
                    with span_of("index.seek",
                                 table=join.plan.right_table) as span:
                        matched, tested = join.lookup(
                            self._tables[join.plan.right_table], combined)
                        span.set_tag(hit=matched is not None)
                    counters.rows_scanned += tested
                    if matched is not None:
                        combined[join.start_slot:
                                 join.start_slot + join.right_width] = \
                            matched
                combined_tuple = tuple(combined)

            if compiled.where_fn is not None \
                    and compiled.where_fn(combined_tuple) is not True:
                raise ExecutionError(
                    "request tuple filtered out by WHERE predicate")

            # Window aggregates: one storage scan per group of windows
            # the compiler found sharing one (``compiled.scans``); its
            # narrower windows cut the scanned run.
            aggregate_values: List[Any] = [None] * compiled.aggregate_count
            for scan in compiled.scans:
                stored: Optional[List[ColumnBlock]] = None
                for name, window, cut in scan:
                    if deadline is not None:
                        deadline.check("request")
                    plan = window.plan
                    anchor_ts = normalize_ts(window.order_value(validated))
                    end_ts, limit = _frame_bounds(plan, anchor_ts)
                    if stored is None:
                        with span_of("window.scan", window=name) as span:
                            blocks = stored = self._scan(
                                compiled, window, validated, anchor_ts,
                                end_ts, limit)
                            rows = sum(map(len, stored))
                            counters.rows_scanned += rows
                            counters.scan_blocks += len(stored)
                            span.set_tag(rows=rows)
                    else:
                        blocks = _trim(stored, end_ts, limit) if cut \
                            else stored
                    if not plan.exclude_current_row:
                        blocks = [ColumnBlock.of_row(anchor_ts, validated),
                                  *blocks]
                    if plan.maxsize is not None:
                        blocks = _trim(blocks, None, plan.maxsize)
                    with span_of("agg.fold", window=name):
                        results, summarized = window.compute_blocks(blocks)
                    counters.summary_blocks += summarized
                    for slot, value in results.items():
                        aggregate_values[slot] = value
            extended = combined_tuple + tuple(aggregate_values)
            with span_of("encode"):
                projected = compiled.project(extended)
        finally:
            # Runs for a WHERE-rejected request and for one whose
            # deadline or storage read failed mid-plan too: the work
            # they did is counted, once, in both places.
            self.stats.apply(counters)
            self._publish(counters)
        return projected

    # ------------------------------------------------------------------
    # windows

    def _scan(self, compiled: CompiledQuery, window: CompiledWindow,
              request_row: Row, anchor_ts: int, end_ts: Optional[int],
              limit: Optional[int]) -> List[ColumnBlock]:
        """Read a window's stored rows as newest-first blocks: ``ts`` in
        ``[end_ts, anchor_ts]``, the ``limit`` newest.

        A single-source window hands the storage layer's blocks to the
        fold unchanged — memtables, disk tables and cluster table views
        all serve :class:`ColumnBlock` s; a union merges its sources'
        scans, primary table first on a tie, into one block.
        """
        if limit is not None and limit <= 0:
            return []  # e.g. ROWS BETWEEN 0 PRECEDING: only the request row
        plan = window.plan
        key = window.partition_key(request_row)
        # INSTANCE_NOT_IN_WINDOW: stored instance-table rows never enter
        # the window — only union-table rows (the request row itself
        # still participates unless EXCLUDE CURRENT_ROW).
        sources = [] if plan.instance_not_in_window \
            else [self._tables[compiled.plan.table]]
        sources.extend(self._tables[union_table]
                       for union_table in plan.union_tables)
        if len(sources) == 1:
            return sources[0].window_scan_blocks(
                plan.partition_columns, plan.order_column, key,
                start_ts=anchor_ts, end_ts=end_ts, limit=limit)
        # A union: the ``limit`` newest of the merge need at most
        # ``limit`` from each source.
        merged = ColumnBlock.merged(
            [source.window_scan_blocks(
                plan.partition_columns, plan.order_column, key,
                start_ts=anchor_ts, end_ts=end_ts, limit=limit)
             for source in sources], window.width, limit)
        return [merged] if len(merged) else []


def _frame_bounds(plan: WindowPlan, anchor_ts: int
                  ) -> Tuple[Optional[int], Optional[int]]:
    """``(end_ts, limit)`` of a window's stored rows: the oldest ``ts`` a
    ``ROWS_RANGE`` frame keeps, the preceding rows a ``ROWS`` frame
    keeps (None: no bound)."""
    if plan.range_preceding_ms is not None:
        return anchor_ts - plan.range_preceding_ms, None
    if plan.rows_preceding is not None:
        return None, plan.rows_preceding - 1
    return None, None


def _trim(blocks: Sequence[ColumnBlock], end_ts: Optional[int],
          limit: Optional[int]) -> List[ColumnBlock]:
    """The newest run of newest-first ``blocks`` with ``ts >= end_ts``
    (the bound ``_TimeList.scan_blocks`` bisects to), capped to its
    ``limit`` newest tuples.

    It walks as the storage scan does: a block the run covers whole
    goes through as it is — a shared one with its memoized summaries —
    a span the run ends in is opened into its blocks, and only the
    block the run ends in is cut (a cut of a shared block answers from
    that block's memo).
    """
    kept: List[ColumnBlock] = []
    pending = list(reversed(blocks))  # oldest first; the walk pops the newest
    while pending:
        block = pending.pop()
        stamps = block._ts
        size = len(stamps)
        lo = 0
        if end_ts is not None and size and stamps[0] < end_ts:
            lo = bisect_left(stamps, end_ts)
        if limit is not None:
            lo = max(lo, size - limit)
        if not lo:
            kept.append(block)
            if limit is not None:
                limit -= size
        elif lo >= size:
            break
        elif isinstance(block, SealedSpan):
            pending.extend(block.blocks)
        else:
            kept.append(block.part(lo, size))
            break
    return kept
