"""Shared machinery for the baseline online engines.

Every baseline serves the *same* parsed feature script as OpenMLDB (one
SQL, many engines — the comparisons stay apples-to-apples) but executes
it with the storage layout and evaluation strategy characteristic of the
system it models.  :class:`BaselineOnlineEngine` centralises the common
request loop; subclasses override the storage hooks:

* ``_rows_for_key`` — how rows for a partition key are retrieved (full
  scan, hash index, remote fetch, ...);
* ``_order_rows`` — whether retrieval already provides time order or a
  per-request sort is needed (the paper's re-sort criticism).

Aggregates are evaluated by instantiating the aggregate per request and
folding the window rows through AST interpretation — no cycle binding,
no block summaries — which is precisely the set of
optimisations the baselines lack.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..schema import Schema
from ..sql import ast
from ..sql.functions import get_aggregate
from ..sql.parser import parse_select
from ..sql.planner import QueryPlan, WindowPlan, build_plan
from ..storage.memtable import normalize_ts
from .interp import interpret_expr

__all__ = ["BaselineOnlineEngine", "BaselineStats"]


@dataclasses.dataclass
class BaselineStats:
    requests: int = 0
    rows_scanned: int = 0
    sorts: int = 0
    rpc_hops: int = 0
    bytes_moved: int = 0


class BaselineOnlineEngine:
    """Template for baseline request-mode engines.

    Args:
        sql: the feature script (same dialect as OpenMLDB).
        catalog: table name → schema.
    """

    name = "baseline"
    # Ad-hoc engines parse/plan every incoming query; they have no
    # deployed-compiled-plan concept (the paper's compilation cache).
    # Trino additionally analyses and distributes the plan across the
    # coordinator and workers, so its subclass raises this.
    plans_per_request = 1

    def __init__(self, sql: str, catalog: Mapping[str, Schema]) -> None:
        self.sql = sql
        self.statement = parse_select(sql)
        self.plan: QueryPlan = build_plan(self.statement, catalog)
        self.catalog = dict(catalog)
        self.stats = BaselineStats()

    # ------------------------------------------------------------------
    # storage hooks (subclasses override)

    def load(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-load rows into the baseline's storage."""
        raise NotImplementedError

    def _rows_for_key(self, table: str, key_column: str,
                      key_value: Any) -> List[Dict[str, Any]]:
        """Return the rows matching one partition key, as dicts."""
        raise NotImplementedError

    def _order_rows(self, rows: List[Dict[str, Any]],
                    ts_column: str) -> List[Dict[str, Any]]:
        """Time-order retrieved rows (newest first).

        Default: a per-request sort — none of the modelled systems keep
        time-ordered per-key state.
        """
        self.stats.sorts += 1
        return sorted(rows, key=lambda row: normalize_ts(row[ts_column]),
                      reverse=True)

    # ------------------------------------------------------------------
    # request loop

    def request(self, request_row: Sequence[Any]) -> Tuple[Any, ...]:
        """Serve one request tuple; returns the projected feature row."""
        self.stats.requests += 1
        # Fresh parse/plan per query — the cost a deployed compiled plan
        # avoids (Section 4.2's compilation cache).
        for _ in range(self.plans_per_request):
            build_plan(parse_select(self.sql), self.catalog)
        schema = self.plan.table_schema
        row_dict: Dict[str, Any] = dict(zip(schema.column_names,
                                            request_row))
        # LAST JOINs: fetch matches, sort by the join's order column, take
        # the newest (rank-and-filter, the paper's "additional rank and
        # filter operations in standard SQL").
        for join in self.plan.joins:
            right_schema = self.catalog[join.right_table]
            eq_values = {column: interpret_expr(expr, row_dict)
                         for expr, column in join.eq_keys}
            first_key = next(iter(eq_values))
            candidates = self._rows_for_key(join.right_table, first_key,
                                            eq_values[first_key])
            candidates = [candidate for candidate in candidates
                          if all(candidate.get(column) == value
                                 for column, value in eq_values.items())]
            if join.order_by:
                candidates = self._order_rows(candidates, join.order_by)
            matched = None
            for candidate in candidates:
                if join.residual is None:
                    matched = candidate
                    break
                probe = dict(row_dict)
                probe.update(candidate)
                if interpret_expr(join.residual, probe) is True:
                    matched = candidate
                    break
            for column in right_schema.column_names:
                row_dict.setdefault(
                    column, matched.get(column) if matched else None)
            if matched:
                row_dict.update(matched)

        # Windows: fetch, sort, slice, fold each aggregate independently.
        aggregate_values: Dict[ast.FuncCall, Any] = {}
        for window in self.plan.windows.values():
            if not window.aggregates:
                continue
            rows = self._window_rows(window, row_dict)
            for binding in window.aggregates:
                function = get_aggregate(binding.func_name,
                                         *binding.constants)
                state = function.create()
                for window_row in reversed(rows):  # oldest → newest
                    function.add(state, *(
                        interpret_expr(arg, window_row)
                        for arg in binding.value_args))
                aggregate_values[binding.call] = function.result(state)

        return tuple(self._project_item(item, row_dict, aggregate_values)
                     for item in self._scalar_items())

    def _scalar_items(self) -> List[ast.SelectItem]:
        items: List[ast.SelectItem] = []
        for item in self.statement.items:
            if isinstance(item.expr, ast.Star):
                table = item.expr.table or self.plan.table
                schema = self.catalog.get(table, self.plan.table_schema)
                items.extend(
                    ast.SelectItem(ast.ColumnRef(name))
                    for name in schema.column_names)
            else:
                items.append(item)
        return items

    def _project_item(self, item: ast.SelectItem,
                      row_dict: Mapping[str, Any],
                      aggregate_values: Mapping[ast.FuncCall, Any]) -> Any:
        expr = item.expr
        if isinstance(expr, ast.FuncCall) and expr in aggregate_values:
            return aggregate_values[expr]
        return interpret_expr(expr, row_dict)

    def _window_rows(self, window: WindowPlan,
                     request_dict: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Window rows newest-first, request row included (no indexes)."""
        key_column = window.partition_columns[0]
        key_value = request_dict[key_column]
        extra_keys = {column: request_dict[column]
                      for column in window.partition_columns[1:]}
        gathered: List[Dict[str, Any]] = []
        source_tables = window.union_tables if window.instance_not_in_window \
            else (self.plan.table, *window.union_tables)
        for table in source_tables:
            fetched = self._rows_for_key(table, key_column, key_value)
            if extra_keys:
                fetched = [row for row in fetched
                           if all(row.get(column) == value
                                  for column, value in extra_keys.items())]
            gathered.extend(fetched)
        anchor_ts = normalize_ts(request_dict[window.order_column])
        gathered = [row for row in gathered
                    if normalize_ts(row[window.order_column]) <= anchor_ts]
        ordered = self._order_rows(gathered, window.order_column)
        if window.range_preceding_ms is not None:
            horizon = anchor_ts - window.range_preceding_ms
            ordered = [row for row in ordered
                       if normalize_ts(row[window.order_column]) >= horizon]
        rows = [] if window.exclude_current_row else [dict(request_dict)]
        rows.extend(ordered)
        if window.rows_preceding is not None:
            rows = rows[:window.rows_preceding]
        if window.maxsize is not None:
            rows = rows[:window.maxsize]
        self.stats.rows_scanned += len(rows)
        return rows
