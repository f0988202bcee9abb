"""Offline batch execution engine (paper Section 6).

Executes a compiled feature script over the *full history* of the primary
table: every stored row becomes an anchor (the batch analogue of a
request tuple) and receives one output feature row.  The window semantics
replay the online engine exactly — a window anchored at row *r* contains
*r* plus the rows that were already present when *r* arrived — which is
what makes online/offline feature values consistent (Section 4's unified
plan, verified by :mod:`repro.core.consistency`).

There is one execution body, in one process.  The engine folds every
``(key[, PART_ID])`` task through the shared fold kernel
(:class:`~repro.offline.partial.WindowKernel`) and records each task's
measured time; the paper's batch cluster is the LPT makespan model over
those times (:mod:`repro.offline.scheduling`), not real workers.

The paper optimisations live here:

* **Multi-window parallel optimisation** (Section 6.1) — every window's
  tasks pool into one schedule; the anchor position is the hidden
  *index column*: each task emits ``(anchor_index, values)`` and the
  final projection writes them back by index, whatever the partition
  order — the ``ConcatJoin`` over ``SimpleProject(+index)`` that EXPLAIN
  shows.
* **Time-aware skew resolving** (Section 6.2) — with a
  :class:`~repro.offline.skew.SkewConfig`, each window's per-key groups,
  already time-sorted by the shuffle, are cut at their exact timestamp
  quantiles into ``(key, PART_ID)`` slices
  (:func:`~repro.offline.skew.key_slices`).  The plan picks the
  cross-partition context: a ``carry_eligible`` window seeds each
  partition with the previous one's end state and copies nothing; any
  other window's slice starts early, with context rows that emit
  nothing.
* **External-sort shuffle** (:mod:`repro.offline.shuffle`) — with a
  :class:`~repro.offline.shuffle.SpillConfig`, window-source rows spill
  to sorted on-disk runs once the configured byte budget is hit, so
  inputs larger than memory stream group-at-a-time.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from itertools import groupby
from operator import itemgetter
from typing import (Any, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..errors import ExecutionError
from ..obs import NULL_OBS, Observability
from ..schema import Row
from ..sql.compiler import CompiledQuery, CompiledWindow
from ..storage.encoding import RowCodec
from ..storage.memtable import normalize_ts
from .partial import TaskEvent, WindowKernel
from .scheduling import lpt_makespan
from .shuffle import ExternalSorter, SpillConfig
from .skew import SkewConfig, key_slices

__all__ = ["OfflineEngine", "OfflineStats"]


@dataclasses.dataclass
class OfflineStats:
    """Measured execution profile of one batch run.

    ``window_seconds`` maps window name → measured compute time.
    ``task_seconds`` lists individual (key, PART_ID) task times across all
    windows (each task's own ``thread_time``) — the inputs to the
    makespan model.  ``parallel_seconds`` is the LPT makespan of the
    window tasks pooled on ``workers`` workers; ``staged_seconds`` the
    same tasks run one window after another.
    """

    rows: int = 0
    window_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    window_tasks: Dict[str, List[float]] = dataclasses.field(
        default_factory=dict)
    join_seconds: float = 0.0
    project_seconds: float = 0.0
    workers: int = 1
    tasks: int = 0
    carry_tasks: int = 0                 # tasks seeded with carried partials
    shuffle: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def task_seconds(self) -> List[float]:
        return [seconds for tasks in self.window_tasks.values()
                for seconds in tasks]

    @property
    def parallel_seconds(self) -> float:
        """Distributed makespan with the multi-window parallel
        optimisation: every window's tasks pool into one schedule.

        A carry chain's partitions are scheduled as independent tasks
        too.  That is sound because ``carry_eligible`` guarantees every
        aggregate has an exact merge, so a two-phase plan exists: fold
        each partition into a segment, prefix-merge the segments into
        seeds, then emit.  The one in-process body does not run that
        plan.  It runs a chain as a sequential continuation, each
        partition seeded with the previous one's end state, which is
        why it stays byte-identical on doubles: a prefix merge would
        re-associate float addition.
        """
        return lpt_makespan(self.task_seconds, self.workers)

    @property
    def staged_seconds(self) -> float:
        """Distributed makespan without it: each window is a stage
        barrier, its tasks scheduled on their own and the stages added
        (within-window key parallelism exists either way, as in Spark).
        """
        return sum(lpt_makespan(tasks, self.workers)
                   for tasks in self.window_tasks.values())

    @property
    def total_parallel_seconds(self) -> float:
        return (self.parallel_seconds + self.join_seconds
                + self.project_seconds)


# One (key[, PART_ID]) task: (events, skip, continues).  The first
# ``skip`` events are context rows of earlier partitions: they feed the
# window and emit nothing.  ``continues`` marks a later partition of a
# carry chain: its fold is seeded with the end state of the task just
# before it (the chain's previous partition) instead.
_TaskUnit = Tuple[List[TaskEvent], int, bool]


class OfflineEngine:
    """Batch executor over the stored tables.

    Args:
        tables: table name → storage object.
        workers: simulated cluster width for the makespan model.
        obs: observability handle (default disabled).
    """

    def __init__(self, tables: Mapping[str, Any], workers: int = 8,
                 obs: Optional[Observability] = None) -> None:
        if workers <= 0:
            raise ExecutionError("workers must be positive")
        self._tables = tables
        self.workers = workers
        self._obs = obs or NULL_OBS
        registry = self._obs.registry
        self._m_runs = registry.counter("offline.runs")
        self._m_anchors = registry.counter("offline.anchor_rows")
        self._m_tasks = registry.counter("offline.tasks")
        self._m_skew_tasks = registry.counter("offline.skew.tasks")
        self._m_skew_expanded = registry.counter(
            "offline.skew.expanded_rows")
        self._m_carry_tasks = registry.counter("offline.carry.tasks")
        self._m_shuffle_runs = registry.counter("offline.shuffle.runs")
        self._m_shuffle_rows = registry.counter(
            "offline.shuffle.spilled_rows")
        self._m_shuffle_bytes = registry.counter(
            "offline.shuffle.spilled_bytes")

    # ------------------------------------------------------------------

    def execute(self, compiled: CompiledQuery,
                skew: Optional[SkewConfig] = None,
                spill: Optional[SpillConfig] = None
                ) -> Tuple[List[Row], OfflineStats]:
        """Run the batch computation; returns (feature rows, stats).

        ``spill`` bounds the shuffle's sort buffer (None = in-memory
        sort).
        """
        with self._obs.tracer.span("offline.execute",
                                   table=compiled.plan.table,
                                   workers=self.workers) as root:
            return self._execute(compiled, skew, spill, root)

    def _execute(self, compiled: CompiledQuery,
                 skew: Optional[SkewConfig],
                 spill: Optional[SpillConfig], root: Any
                 ) -> Tuple[List[Row], OfflineStats]:
        tracer = self._obs.tracer
        plan = compiled.plan
        stats = OfflineStats(workers=self.workers)
        primary = self._tables[plan.table]
        anchors: List[Row] = list(primary.rows())
        stats.rows = len(anchors)
        self._m_runs.inc()
        self._m_anchors.inc(len(anchors))

        # LAST JOINs: resolve each anchor's combined row.
        started = time.perf_counter()
        with tracer.span("offline.join", parent=root):
            combined_rows = self._resolve_joins(compiled, anchors)
        stats.join_seconds = time.perf_counter() - started

        # Window aggregates, one result vector per anchor.  The hidden
        # index column of Section 6.1 is the anchor position itself: each
        # window task emits (anchor_index, values) pairs and the concat
        # step joins on it.
        aggregate_columns: List[List[Any]] = [
            [None] * compiled.aggregate_count for _ in anchors]
        window_jobs = [(name, window)
                       for name, window in compiled.windows.items()
                       if window.aggregates]
        self._run_windows(compiled, window_jobs, anchors, skew, spill,
                          stats, aggregate_columns, root)

        registry = self._obs.registry
        for name, task_times in stats.window_tasks.items():
            stats.tasks += len(task_times)
            self._m_tasks.inc(len(task_times))
            if self._obs.enabled:
                # Per-partition task timings: the skew figures (12–13)
                # read straight off this distribution's p99/max.
                task_histogram = registry.histogram("offline.task.ms",
                                                    window=name)
                for task_seconds in task_times:
                    task_histogram.observe(task_seconds * 1_000)

        # ConcatJoin + final projection.
        started = time.perf_counter()
        output: List[Row] = []
        limit = plan.statement.limit
        with tracer.span("offline.project", parent=root):
            for index, combined in enumerate(combined_rows):
                if limit is not None and len(output) >= limit:
                    break
                if compiled.where_fn is not None \
                        and compiled.where_fn(combined) is not True:
                    continue
                extended = combined + tuple(aggregate_columns[index])
                output.append(compiled.project(extended))
        stats.project_seconds = time.perf_counter() - started
        return output, stats

    # ------------------------------------------------------------------
    # joins

    def _resolve_joins(self, compiled: CompiledQuery,
                       anchors: Sequence[Row]) -> List[Row]:
        """Each anchor's combined row, its LAST JOINs resolved by
        :meth:`~repro.sql.compiler.CompiledJoin.lookup` — the online
        engine's body."""
        if not compiled.joins:
            return [tuple(anchor) for anchor in anchors]
        combined_rows: List[Row] = []
        for anchor in anchors:
            combined: List[Any] = [None] * compiled.combined_width
            combined[:len(anchor)] = anchor
            for join in compiled.joins:
                matched, _tested = join.lookup(
                    self._tables[join.plan.right_table], combined)
                if matched is not None:
                    combined[join.start_slot:
                             join.start_slot + join.right_width] = matched
            combined_rows.append(tuple(combined))
        return combined_rows

    # ------------------------------------------------------------------
    # window-source events and task construction

    def _events(self, window: CompiledWindow, anchors: Sequence[Row]
                ) -> Iterator[Tuple[int, int, int, TaskEvent]]:
        """Every window-source event as ``(ts, source, sequence,
        event)``: the leading three are its replay-order key — the
        order an online system would have ingested the same data, which
        is what makes batch window contents equal request-time
        contents.  ``source`` is 0 for the primary table and 1+i for
        WINDOW UNION table i; only primary rows are anchors."""
        sources = [anchors] + [self._tables[name].rows()
                               for name in window.plan.union_tables]
        for source, rows in enumerate(sources):
            for sequence, row in enumerate(rows):
                ts = normalize_ts(window.order_value(row))
                yield ts, source, sequence, (
                    ts, row, sequence if source == 0 else None)

    def _key_groups(self, compiled: CompiledQuery,
                    window: CompiledWindow, anchors: Sequence[Row],
                    spill: Optional[SpillConfig], stats: OfflineStats
                    ) -> Iterator[Tuple[Any, List[TaskEvent]]]:
        """Yield ``(key, events)`` groups in deterministic key order,
        each group in replay order.  With a spill budget the grouping
        runs through the external sorter; otherwise it is one in-memory
        sort."""
        key_fn = window.partition_key
        if spill is None:
            grouped: Dict[Any, List[TaskEvent]] = {}
            for _ts, _source, _sequence, event in sorted(
                    self._events(window, anchors),
                    key=itemgetter(0, 1, 2)):
                grouped.setdefault(key_fn(event[1]), []).append(event)
            for key in sorted(grouped, key=str):
                yield key, grouped[key]
            return

        # The sort key carries everything but the row, so a spilled
        # record is just the row in its source table's RowCodec bytes.
        codecs = [RowCodec(compiled.plan.table_schema)] + [
            RowCodec(self._tables[name].schema)
            for name in window.plan.union_tables]
        sorter = ExternalSorter(spill)
        try:
            for ts, source, sequence, (_ts, row, _anchor) in self._events(
                    window, anchors):
                key = key_fn(row)
                sorter.add(
                    (str(key), pickle.dumps(key), ts, source, sequence),
                    codecs[source].encode(row))
            for (_text, pickled), records in groupby(
                    sorter.sorted_records(), key=lambda item: item[0][:2]):
                yield pickle.loads(pickled), [
                    (ts, codecs[source].decode(record),
                     sequence if source == 0 else None)
                    for (_t, _p, ts, source, sequence), record in records]
        finally:
            sorter.close()
            shuffle = stats.shuffle
            for field in ("rows", "runs", "spilled_rows", "spilled_bytes"):
                shuffle[field] = shuffle.get(field, 0) \
                    + getattr(sorter, field)
            self._m_shuffle_runs.inc(sorter.runs)
            self._m_shuffle_rows.inc(sorter.spilled_rows)
            self._m_shuffle_bytes.inc(sorter.spilled_bytes)

    def _task_units(self, compiled: CompiledQuery,
                    window: CompiledWindow,
                    anchors: Sequence[Row], skew: Optional[SkewConfig],
                    spill: Optional[SpillConfig], stats: OfflineStats
                    ) -> Iterator[_TaskUnit]:
        """Decompose one window into (key[, PART_ID]) task units."""
        plan = window.plan
        carry = window.carry_eligible
        for _key, events in self._key_groups(compiled, window, anchors,
                                             spill, stats):
            if skew is None:
                yield events, 0, False
                continue
            slices = key_slices(
                [event[0] for event in events], skew,
                range_ms=plan.range_preceding_ms,
                rows_preceding=plan.rows_preceding, context=not carry)
            self._m_skew_tasks.inc(len(slices))
            chained = carry and len(slices) > 1
            if chained:
                stats.carry_tasks += len(slices)
                self._m_carry_tasks.inc(len(slices))
            expanded = sum(own - start for start, own, _end in slices)
            if expanded:
                self._m_skew_expanded.inc(expanded)
            for position, (start, own, end) in enumerate(slices):
                yield events[start:end], own - start, chained and position > 0

    # ------------------------------------------------------------------
    # the execution body

    def _run_windows(self, compiled: CompiledQuery,
                     window_jobs: Sequence[Tuple[str, CompiledWindow]],
                     anchors: Sequence[Row],
                     skew: Optional[SkewConfig],
                     spill: Optional[SpillConfig],
                     stats: OfflineStats,
                     aggregate_columns: List[List[Any]],
                     root: Any) -> None:
        # thread_time, not perf_counter: the makespan model wants each
        # task's own compute, not the GIL slices other threads (the
        # binlog worker, a serving frontend) took meanwhile.
        for name, window in window_jobs:
            with self._obs.tracer.span("offline.window", window=name,
                                       parent=root) as span:
                window_started = time.thread_time()
                kernel = WindowKernel(window)
                slots = kernel.slots
                task_times: List[float] = []
                end_states: Optional[List[Any]] = None
                for events, skip, continues in self._task_units(
                        compiled, window, anchors, skew, spill, stats):
                    started = time.thread_time()
                    emits, end_states = kernel.fold(
                        events, skip,
                        end_states if continues else None)
                    for anchor_index, values in emits:
                        row_slots = aggregate_columns[anchor_index]
                        for slot, value in zip(slots, values):
                            row_slots[slot] = value
                    task_times.append(time.thread_time() - started)
                span.set_tag(tasks=len(task_times))
            stats.window_seconds[name] = time.thread_time() - window_started
            stats.window_tasks[name] = task_times
