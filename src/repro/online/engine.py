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
2. For every window, fetch the window as column blocks from the storage
   layer's chunked ``window_scan_blocks`` (``window.scan``; window
   unions merge several tables' block streams newest-first) and reduce
   them with the window's **fold** (``agg.fold``).  A long window's
   blocks are mostly spans and sealed blocks carrying memoized
   summaries, so the fold is Section 5.1's query refinement: summaries
   in the middle, raw rows only at the two edges.  Every window on
   every host takes this one path.
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
from typing import (Any, Dict, List, Mapping, Optional, Sequence)

from ..errors import ExecutionError
from ..obs import NULL_OBS, Observability
from ..schema import Row
from ..serving.deadline import current_deadline
from ..sql.compiler import CompiledQuery, CompiledWindow
from ..storage.memtable import normalize_ts
from ..storage.skiplist import ColumnBlock

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

            # Window aggregates, with row fetches shared between windows
            # that the compiler recognised as identical definitions.
            aggregate_values: List[Any] = [None] * compiled.aggregate_count
            fetched: Dict[str, List[ColumnBlock]] = {}
            for name, window, scan in compiled.running_windows:
                if deadline is not None:
                    deadline.check("request")
                # Merged siblings share a scan but carry distinct
                # aggregate slots.
                blocks = fetched.get(scan)
                if blocks is None:
                    rows_before = counters.rows_scanned
                    with span_of("window.scan", window=name) as span:
                        blocks = fetched[scan] = self._window_blocks(
                            compiled, window, validated, counters)
                        span.set_tag(rows=counters.rows_scanned
                                     - rows_before)
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

    def _window_blocks(self, compiled: CompiledQuery,
                       window: CompiledWindow, request_row: Row,
                       counters: _RequestCounters) -> List[ColumnBlock]:
        """Fetch a window as newest-first blocks, request row first."""
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

        # INSTANCE_NOT_IN_WINDOW: stored instance-table rows never enter
        # the window — only union-table rows (the request row itself
        # still participates unless EXCLUDE CURRENT_ROW).
        sources = [] if plan.instance_not_in_window \
            else [self._tables[primary]]
        sources.extend(self._tables[union_table]
                       for union_table in plan.union_tables)
        stored = self._fetch_stored_blocks(
            sources, window, key, anchor_ts, end_ts, limit)
        counters.rows_scanned += sum(map(len, stored))
        counters.scan_blocks += len(stored)

        blocks: List[ColumnBlock] = [] if plan.exclude_current_row \
            else [ColumnBlock.of_row(anchor_ts, request_row)]
        blocks.extend(stored)
        if plan.maxsize is not None:
            blocks = _cap_blocks(blocks, plan.maxsize)
        return blocks

    def _fetch_stored_blocks(self, sources: List[Any],
                             window: CompiledWindow, key: Any,
                             anchor_ts: int, end_ts: Optional[int],
                             limit: Optional[int]) -> List[ColumnBlock]:
        """Scan the window's sources into newest-first blocks.

        A single-source window hands the storage layer's blocks to the
        fold unchanged — memtables, disk tables and cluster table views
        all serve :class:`ColumnBlock` s; a union merges its sources'
        scans, primary table first on a tie, into one block.
        """
        if limit is not None and limit <= 0:
            return []  # e.g. ROWS BETWEEN 0 PRECEDING: only the request row
        plan = window.plan
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


def _cap_blocks(blocks: List[ColumnBlock],
                maxsize: int) -> List[ColumnBlock]:
    """Truncate a block list to at most ``maxsize`` total rows."""
    capped: List[ColumnBlock] = []
    remaining = maxsize
    for block in blocks:
        if remaining <= 0:
            break
        if len(block) > remaining:
            block = block.newest(remaining)
        capped.append(block)
        remaining -= len(block)
    return capped
