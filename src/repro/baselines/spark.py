"""Spark-style batch baseline (offline comparisons, Figures 8/12/13).

Reproduces the execution profile the paper attributes to Spark's window
processing:

* **serial stages** — window operators run one after another, even when
  independent (no multi-window parallel optimisation);
* **shuffles** — every window stage hash-partitions its input by key with
  real row serialisation/deserialisation (the "expensive serialization,
  deserialization, and data movement");
* **no incremental window state** — each output row re-aggregates its
  whole frame from scratch (O(W) per row);
* **interpreted evaluation** — expressions are AST-walked per row (the
  JVM-interpreter stand-in);
* **no time-aware skew handling** — one task per key, so a hot key is a
  straggler (salting is unavailable for windows, Section 6.2).

Per-task times are recorded so benchmarks derive the distributed makespan
with the same model used for OpenMLDB's offline engine.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..schema import Schema
from ..sql import ast
from ..sql.functions import get_aggregate
from ..sql.parser import parse_select
from ..sql.planner import QueryPlan, WindowPlan, build_plan
from ..storage.memtable import normalize_ts
from ..offline.scheduling import lpt_makespan
from .interp import interpret_expr

__all__ = ["SparkBatchEngine", "SparkStats"]


@dataclasses.dataclass
class SparkStats:
    """Measured profile of one Spark-style batch run."""

    rows: int = 0
    stage_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    stage_tasks: Dict[str, List[float]] = dataclasses.field(
        default_factory=dict)
    shuffled_bytes: int = 0
    workers: int = 8

    @property
    def task_seconds(self) -> List[float]:
        return [seconds for tasks in self.stage_tasks.values()
                for seconds in tasks]

    @property
    def parallel_seconds(self) -> float:
        """Stage-barrier makespan: stages run strictly one after another
        (Spark's serial window execution), tasks within a stage are
        scheduled onto the workers.  Stages without recorded tasks (join,
        projection) contribute their measured wall time."""
        total = 0.0
        for stage, seconds in self.stage_seconds.items():
            tasks = self.stage_tasks.get(stage)
            if tasks:
                total += lpt_makespan(tasks, self.workers)
            else:
                total += seconds
        return total


class SparkBatchEngine:
    """Executes a feature script with Spark-like mechanics."""

    name = "spark"

    def __init__(self, sql: str, catalog: Mapping[str, Schema],
                 workers: int = 8) -> None:
        self.statement = parse_select(sql)
        self.plan: QueryPlan = build_plan(self.statement, catalog)
        self.catalog = dict(catalog)
        self.workers = workers
        self._tables: Dict[str, List[Tuple[Any, ...]]] = {
            name: [] for name in catalog}

    def load(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        stored = self._tables[table]
        before = len(stored)
        stored.extend(tuple(row) for row in rows)
        return len(stored) - before

    # ------------------------------------------------------------------

    def run(self) -> Tuple[List[Tuple[Any, ...]], SparkStats]:
        """Execute the batch job; returns (feature rows, stats)."""
        stats = SparkStats(workers=self.workers)
        schema = self.plan.table_schema
        anchors = [dict(zip(schema.column_names, row))
                   for row in self._tables[self.plan.table]]
        stats.rows = len(anchors)

        # Join stage: shuffle both sides by key, sort-merge, rank-filter.
        started = time.perf_counter()
        for join in self.plan.joins:
            self._join_stage(join, anchors, stats)
        if self.plan.joins:
            stats.stage_seconds["join"] = time.perf_counter() - started

        # One serial stage per window.
        aggregate_results: Dict[ast.FuncCall, List[Any]] = {}
        for name, window in self.plan.windows.items():
            if not window.aggregates:
                continue
            started = time.perf_counter()
            task_times = self._window_stage(window, anchors,
                                            aggregate_results, stats)
            stats.stage_seconds[name] = time.perf_counter() - started
            stats.stage_tasks[name] = task_times

        # Projection stage.
        started = time.perf_counter()
        output: List[Tuple[Any, ...]] = []
        items = self._scalar_items()
        limit = self.statement.limit
        for position, anchor in enumerate(anchors):
            if limit is not None and len(output) >= limit:
                break
            if self.statement.where is not None and interpret_expr(
                    self.statement.where, anchor) is not True:
                continue
            projected = []
            for item in items:
                if isinstance(item.expr, ast.FuncCall) \
                        and item.expr in aggregate_results:
                    projected.append(aggregate_results[item.expr][position])
                else:
                    projected.append(interpret_expr(item.expr, anchor))
            output.append(tuple(projected))
        stats.stage_seconds["project"] = time.perf_counter() - started
        return output, stats

    # ------------------------------------------------------------------

    def _scalar_items(self) -> List[ast.SelectItem]:
        items: List[ast.SelectItem] = []
        for item in self.statement.items:
            if isinstance(item.expr, ast.Star):
                table = item.expr.table or self.plan.table
                schema = self.catalog.get(table, self.plan.table_schema)
                items.extend(ast.SelectItem(ast.ColumnRef(name))
                             for name in schema.column_names)
            else:
                items.append(item)
        return items

    def _shuffle(self, rows: Sequence[Dict[str, Any]],
                 key_columns: Sequence[str],
                 stats: SparkStats) -> Dict[Any, List[Dict[str, Any]]]:
        """Hash-partition with real ser/de per row (the shuffle cost)."""
        partitions: Dict[Any, List[Dict[str, Any]]] = {}
        for row in rows:
            payload = json.dumps(row, default=str)
            stats.shuffled_bytes += len(payload)
            restored = json.loads(payload)
            key = tuple(restored[column] for column in key_columns) \
                if len(key_columns) > 1 else restored[key_columns[0]]
            partitions.setdefault(key, []).append(restored)
        return partitions

    def _join_stage(self, join, anchors: List[Dict[str, Any]],
                    stats: SparkStats) -> None:
        right_schema = self.catalog[join.right_table]
        right_rows = [dict(zip(right_schema.column_names, row))
                      for row in self._tables[join.right_table]]
        key_columns = [column for _expr, column in join.eq_keys]
        right_parts = self._shuffle(right_rows, key_columns, stats)
        for anchor in anchors:
            key_values = tuple(interpret_expr(expr, anchor)
                               for expr, _column in join.eq_keys)
            key = key_values if len(key_values) > 1 else key_values[0]
            candidates = list(right_parts.get(key, ()))
            if join.order_by:
                candidates.sort(
                    key=lambda row: normalize_ts(row[join.order_by]),
                    reverse=True)
            matched: Optional[Dict[str, Any]] = None
            for candidate in candidates:
                if join.residual is None:
                    matched = candidate
                    break
                probe = dict(anchor)
                probe.update(candidate)
                if interpret_expr(join.residual, probe) is True:
                    matched = candidate
                    break
            for column in right_schema.column_names:
                anchor.setdefault(
                    column, matched.get(column) if matched else None)
            if matched:
                anchor.update(matched)

    def _window_stage(self, window: WindowPlan,
                      anchors: List[Dict[str, Any]],
                      aggregate_results: Dict[ast.FuncCall, List[Any]],
                      stats: SparkStats) -> List[float]:
        """One window's stage: shuffle by key, per-key task, recompute."""
        for binding in window.aggregates:
            aggregate_results[binding.call] = [None] * len(anchors)

        # Tag anchors with their position (Spark would carry row ids).
        tagged = [dict(anchor, __pos=position)
                  for position, anchor in enumerate(anchors)]
        events: List[Dict[str, Any]] = list(tagged)
        for union_table in window.union_tables:
            union_schema = self.catalog[union_table]
            events.extend(
                dict(zip(union_schema.column_names, row), __pos=-1)
                for row in self._tables[union_table])
        partitions = self._shuffle(events, window.partition_columns, stats)

        task_times: List[float] = []
        for key in sorted(partitions, key=str):
            started = time.perf_counter()
            rows = partitions[key]
            # Replay tie order: primary rows precede union rows at the
            # same ts (matching the unified engines), and the sort is
            # stable so equal keys keep ingestion order.
            rows.sort(key=lambda row: (
                normalize_ts(row[window.order_column]), row["__pos"] < 0))
            for position, row in enumerate(rows):
                if row["__pos"] < 0:
                    continue
                frame = self._frame_rows(rows, position, window)
                for binding in window.aggregates:
                    function = get_aggregate(binding.func_name,
                                             *binding.constants)
                    state = function.create()
                    for frame_row in frame:  # oldest → newest
                        function.add(state, *(
                            interpret_expr(arg, frame_row)
                            for arg in binding.value_args))
                    aggregate_results[binding.call][row["__pos"]] = \
                        function.result(state)
            task_times.append(time.perf_counter() - started)
        return task_times

    @staticmethod
    def _frame_rows(rows: List[Dict[str, Any]], position: int,
                    window: WindowPlan) -> List[Dict[str, Any]]:
        """Frame contents for the anchor at ``position`` (oldest→newest)."""
        anchor_ts = normalize_ts(rows[position][window.order_column])
        include_current = not window.exclude_current_row
        lo = 0
        if window.range_preceding_ms is not None:
            horizon = anchor_ts - window.range_preceding_ms
            lo = 0
            while normalize_ts(rows[lo][window.order_column]) < horizon:
                lo += 1
        preceding = rows[lo:position]
        if window.instance_not_in_window:
            # Stored instance-table rows never enter the window; the
            # anchor itself still does (unless also excluded).
            preceding = [row for row in preceding if row["__pos"] < 0]
        frame = preceding + ([rows[position]] if include_current else [])
        if window.rows_preceding is not None:
            keep = window.rows_preceding if include_current \
                else max(window.rows_preceding - 1, 0)
            frame = frame[-keep:] if keep else []
        if window.maxsize is not None:
            frame = frame[-window.maxsize:]
        return frame
