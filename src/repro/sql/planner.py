"""Logical planning: from a parsed SELECT to a structured query plan.

The planner resolves tables against a catalog, validates window/union/join
references, extracts windowed aggregate calls from the select list, and
normalises frames.  Its output, :class:`QueryPlan`, is shared by both
execution engines — the concrete mechanism behind the paper's *unified
query plan generator* (Section 4): one plan, two runtimes, identical
feature semantics.

EXPLAIN renders the compiled query built from it
(:func:`repro.sql.compiler.explain`), the artefact both engines run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import PlanError
from ..schema import Schema
from . import ast
from .functions import is_aggregate

__all__ = [
    "AggregateBinding", "WindowPlan", "JoinPlan", "QueryPlan", "build_plan",
]


@dataclasses.dataclass(frozen=True)
class AggregateBinding:
    """One windowed aggregate call extracted from the select list.

    ``value_args`` are the per-row argument expressions (evaluated against
    window source rows); ``constants`` the trailing literal arguments
    (e.g. the N of ``topn_frequency``); ``slot`` indexes the aggregate
    result vector appended to the row before final projection.
    """

    call: ast.FuncCall
    window: str
    func_name: str
    value_args: Tuple[ast.Expr, ...]
    constants: Tuple[object, ...]
    slot: int


@dataclasses.dataclass(frozen=True)
class WindowPlan:
    """A normalised window definition plus the aggregates bound to it."""

    spec: ast.WindowSpec
    partition_columns: Tuple[str, ...]
    order_column: str
    union_tables: Tuple[str, ...]
    rows_preceding: Optional[int]   # ROWS frame: row count (incl. current)
    range_preceding_ms: Optional[int]  # ROWS_RANGE frame: ms lookback
    exclude_current_row: bool
    instance_not_in_window: bool
    maxsize: Optional[int]
    aggregates: Tuple[AggregateBinding, ...]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_range_frame(self) -> bool:
        return self.range_preceding_ms is not None


@dataclasses.dataclass(frozen=True)
class JoinPlan:
    """A LAST JOIN with its equi-key split out for index lookups.

    ``eq_keys`` pairs a left-side expression with a right-side column; a
    deployment requires the right table to have a matching index (the
    "index optimizations to critical information ... in LAST JOIN" of
    Section 4.2).  ``residual`` holds whatever condition remains.
    """

    clause: ast.LastJoinClause
    right_table: str
    right_alias: str
    order_by: Optional[str]
    eq_keys: Tuple[Tuple[ast.Expr, str], ...]
    residual: Optional[ast.Expr]


@dataclasses.dataclass
class QueryPlan:
    """The unified logical plan consumed by both engines."""

    statement: ast.SelectStatement
    table: str
    table_alias: str
    table_schema: Schema
    joins: Tuple[JoinPlan, ...]
    windows: Dict[str, WindowPlan]
    output_names: Tuple[str, ...]


# ----------------------------------------------------------------------
# plan construction


def _collect_windowed_calls(expr: ast.Expr,
                            found: List[ast.FuncCall]) -> None:
    """Depth-first collection of aggregate FuncCalls inside ``expr``."""
    if isinstance(expr, ast.FuncCall):
        if expr.over is not None or is_aggregate(expr.name):
            found.append(expr)
            return  # aggregates never nest in this dialect
        for arg in expr.args:
            _collect_windowed_calls(arg, found)
    elif isinstance(expr, ast.BinaryOp):
        _collect_windowed_calls(expr.left, found)
        _collect_windowed_calls(expr.right, found)
    elif isinstance(expr, ast.UnaryOp):
        _collect_windowed_calls(expr.operand, found)
    elif isinstance(expr, ast.CaseWhen):
        for condition, value in expr.branches:
            _collect_windowed_calls(condition, found)
            _collect_windowed_calls(value, found)
        if expr.default is not None:
            _collect_windowed_calls(expr.default, found)


def _split_constants(call: ast.FuncCall) -> Tuple[Tuple[ast.Expr, ...],
                                                  Tuple[object, ...]]:
    """Split a call's args into per-row expressions and trailing literals.

    Uses the aggregate's declared arity (``value_args``/``extra_args``)
    so e.g. ``topn_frequency(col, 3)`` yields ``((col,), (3,))``.
    """
    from ..errors import CompileError
    from .functions import aggregate_arity  # local: avoid import cycle

    try:
        value_count, extra_count = aggregate_arity(call.name)
    except CompileError:
        # Only the registry's unknown-name signal; anything else (an
        # ImportError in functions.py, a buggy aggregate class) must
        # propagate rather than masquerade as "unknown aggregate".
        raise PlanError(f"unknown aggregate {call.name!r}") from None
    if len(call.args) != value_count + extra_count:
        raise PlanError(
            f"{call.name} expects {value_count + extra_count} argument(s), "
            f"got {len(call.args)}")
    value_args = call.args[:value_count]
    constants: List[object] = []
    for arg in call.args[value_count:]:
        if not isinstance(arg, ast.Literal):
            raise PlanError(
                f"{call.name}: trailing argument must be a literal")
        constants.append(arg.value)
    return tuple(value_args), tuple(constants)


def _normalise_frame(spec: ast.WindowSpec) -> Tuple[Optional[int],
                                                    Optional[int]]:
    """Return (rows_preceding, range_preceding_ms); exactly one is set.

    ``rows_preceding`` counts rows *including* the current one, so a
    ``ROWS BETWEEN 2 PRECEDING AND CURRENT ROW`` frame holds ≤ 3 rows.
    Unbounded frames map to ``None`` lookback inside a range frame.
    """
    if not spec.end.current_row:
        raise PlanError(
            f"window {spec.name!r}: only frames ending at CURRENT ROW are "
            "supported (the online request model anchors windows at the "
            "request tuple)")
    if spec.frame_type == ast.FrameType.ROWS:
        if spec.start.unbounded:
            return None, None  # unbounded ROWS == unbounded range
        return int(spec.start.offset) + 1, None
    if spec.start.unbounded:
        return None, None
    return None, int(spec.start.offset)


def build_plan(statement: ast.SelectStatement,
               catalog: Mapping[str, Schema]) -> QueryPlan:
    """Build the unified logical plan for ``statement``.

    Args:
        statement: parsed SELECT.
        catalog: table name → schema for every referenced table.

    Raises:
        PlanError: for unknown tables/windows, union-incompatible schemas,
            non-equi LAST JOIN conditions without any equality key, or
            unsupported frames.
    """
    if statement.table not in catalog:
        raise PlanError(f"unknown table {statement.table!r}")
    table_schema = catalog[statement.table]
    alias = statement.table_alias or statement.table

    joins = tuple(_plan_join(join, catalog) for join in statement.joins)

    # Extract every windowed aggregate call, preserving select-list order,
    # and merge identical calls (the "identical column references ...
    # merged into a unified code block" parsing optimisation, Section 4.2).
    calls: List[ast.FuncCall] = []
    for item in statement.items:
        _collect_windowed_calls(item.expr, calls)
    if statement.where is not None:
        where_calls: List[ast.FuncCall] = []
        _collect_windowed_calls(statement.where, where_calls)
        if where_calls:
            raise PlanError("aggregates are not allowed in WHERE")

    window_names = {spec.name for spec in statement.windows}
    bindings: Dict[ast.FuncCall, AggregateBinding] = {}
    per_window: Dict[str, List[AggregateBinding]] = {
        name: [] for name in window_names}
    for call in calls:
        if call in bindings:
            continue  # merged: one computation feeds every reference
        if call.over is None:
            raise PlanError(
                f"aggregate {call.name!r} requires OVER <window>")
        if call.over not in window_names:
            raise PlanError(
                f"aggregate {call.name!r} references undefined window "
                f"{call.over!r}")
        value_args, constants = _split_constants(call)
        binding = AggregateBinding(
            call=call, window=call.over, func_name=call.name,
            value_args=value_args, constants=constants,
            slot=len(bindings))
        bindings[call] = binding
        per_window[call.over].append(binding)

    windows: Dict[str, WindowPlan] = {}
    for spec in statement.windows:
        for column in (*spec.partition_by, spec.order_by):
            if column not in table_schema:
                raise PlanError(
                    f"window {spec.name!r} references unknown column "
                    f"{column!r} of table {statement.table!r}")
        for union_table in spec.union_tables:
            if union_table not in catalog:
                raise PlanError(
                    f"window {spec.name!r} unions unknown table "
                    f"{union_table!r}")
            if not table_schema.union_compatible(catalog[union_table]):
                raise PlanError(
                    f"window {spec.name!r}: table {union_table!r} is not "
                    f"union-compatible with {statement.table!r}")
        rows_preceding, range_ms = _normalise_frame(spec)
        windows[spec.name] = WindowPlan(
            spec=spec,
            partition_columns=spec.partition_by,
            order_column=spec.order_by,
            union_tables=spec.union_tables,
            rows_preceding=rows_preceding,
            range_preceding_ms=range_ms,
            exclude_current_row=spec.exclude_current_row,
            instance_not_in_window=spec.instance_not_in_window,
            maxsize=spec.maxsize,
            aggregates=tuple(per_window[spec.name]),
        )

    return QueryPlan(
        statement=statement, table=statement.table, table_alias=alias,
        table_schema=table_schema, joins=joins, windows=windows,
        output_names=_output_names(statement, table_schema, catalog))


def _plan_join(clause: ast.LastJoinClause,
               catalog: Mapping[str, Schema]) -> JoinPlan:
    if clause.table not in catalog:
        raise PlanError(f"LAST JOIN references unknown table "
                        f"{clause.table!r}")
    right_alias = clause.effective_name
    right_schema = catalog[clause.table]
    eq_keys: List[Tuple[ast.Expr, str]] = []
    residuals: List[ast.Expr] = []
    _split_join_condition(clause.condition, right_alias, clause.table,
                          right_schema, eq_keys, residuals)
    if not eq_keys:
        raise PlanError(
            f"LAST JOIN on {clause.table!r} needs at least one equality "
            "against a right-table column (index lookup path)")
    residual: Optional[ast.Expr] = None
    for piece in residuals:
        residual = piece if residual is None else ast.BinaryOp(
            "AND", residual, piece)
    return JoinPlan(clause=clause, right_table=clause.table,
                    right_alias=right_alias, order_by=clause.order_by,
                    eq_keys=tuple(eq_keys), residual=residual)


def _is_right_column(expr: ast.Expr, right_alias: str, right_table: str,
                     right_schema: Schema) -> Optional[str]:
    if isinstance(expr, ast.ColumnRef):
        if expr.table in (right_alias, right_table):
            return expr.name
        if expr.table is None and expr.name in right_schema:
            return expr.name
    return None


def _split_join_condition(condition: ast.Expr, right_alias: str,
                          right_table: str, right_schema: Schema,
                          eq_keys: List[Tuple[ast.Expr, str]],
                          residuals: List[ast.Expr]) -> None:
    """Split an AND-tree into right-column equalities and residuals."""
    if isinstance(condition, ast.BinaryOp) and condition.op == "AND":
        _split_join_condition(condition.left, right_alias, right_table,
                              right_schema, eq_keys, residuals)
        _split_join_condition(condition.right, right_alias, right_table,
                              right_schema, eq_keys, residuals)
        return
    if isinstance(condition, ast.BinaryOp) and condition.op == "=":
        right_col = _is_right_column(condition.right, right_alias,
                                     right_table, right_schema)
        left_is_right = _is_right_column(condition.left, right_alias,
                                         right_table, right_schema)
        # A right-column = left-expression pair is an index key; a
        # right-column = literal pair is a filter (stream indexes key on
        # left-row values, not constants), so it stays residual.
        if right_col is not None and left_is_right is None \
                and not isinstance(condition.left, ast.Literal):
            eq_keys.append((condition.left, right_col))
            return
        if left_is_right is not None and right_col is None \
                and not isinstance(condition.right, ast.Literal):
            eq_keys.append((condition.right, left_is_right))
            return
    residuals.append(condition)


def _output_names(statement: ast.SelectStatement, table_schema: Schema,
                  catalog: Mapping[str, Schema]) -> Tuple[str, ...]:
    names: List[str] = []
    for item in statement.items:
        if isinstance(item.expr, ast.Star):
            if item.expr.table is None:
                names.extend(table_schema.column_names)
                for join in statement.joins:
                    names.extend(catalog[join.table].column_names)
            else:
                qualifier = item.expr.table
                if qualifier in (statement.table_alias, statement.table):
                    names.extend(table_schema.column_names)
                else:
                    for join in statement.joins:
                        if qualifier in (join.effective_name, join.table):
                            names.extend(catalog[join.table].column_names)
                            break
                    else:
                        raise PlanError(
                            f"{qualifier}.* references unknown table")
            continue
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ast.ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(f"expr_{len(names)}")
    return tuple(names)

