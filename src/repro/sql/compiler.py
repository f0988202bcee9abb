"""Plan compilation: logical plan → executable closures (Section 4.2).

This is the reproduction of the paper's LLVM/JIT layer.  Three of its
compilation optimisations appear here explicitly:

* **Parsing optimisation** — identical aggregate calls were already merged
  by the planner; windows that read the same partition of the same
  sources share one storage scan per request (:func:`_shared_scans`):
  the widest frame's, which narrower frames cut.
* **Cycle binding** — aggregates over the same argument expressions share
  *intermediate state*: ``sum``/``count``/``avg`` over one column fold a
  single ``(total, count)`` accumulator; ``min``/``max``/``distinct_count``
  /``topn_frequency`` over one column share a single multiset.  The
  ``state_groups`` count is exposed so tests and the ablation bench can
  observe the sharing.
* **Compilation cache** — :class:`CompilationCache` keys on the structural
  identity of (statement, schemas); re-deploying the same feature script
  skips compilation entirely (cache hits are counted).

Compiled artefacts are engine-agnostic: the online engine feeds them rows
fetched from the two-level indexes, the offline engine feeds them sorted
partition slices — one compiled plan, two runtimes (the paper's
consistency guarantee).  A LAST JOIN is one body for both:
:meth:`CompiledJoin.lookup` reads the right table's current rows.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import Counter
from itertools import chain
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import CompileError, PlanError
from ..obs import NULL_OBS, Observability
from ..schema import IndexDef, Row, Schema
from ..storage.skiplist import ColumnBlock
from ..types import ColumnType
from . import ast
from .expressions import RowFn, Scope, compile_expr
from .functions import AggregateFunction, ExactSum, get_aggregate
from .planner import (AggregateBinding, JoinPlan, QueryPlan, WindowPlan,
                      build_plan)

__all__ = [
    "CompiledAggregate", "CompiledWindow", "CompiledJoin", "CompiledQuery",
    "CompilationCache", "compile_plan", "pick_index", "index_access_paths",
    "explain",
]


# ----------------------------------------------------------------------
# cycle binding: shared intermediate states

#: Column types whose values storage holds as Python floats.
_FLOAT_TYPES = (ColumnType.FLOAT, ColumnType.DOUBLE)

#: Column types whose blocks memoize sum / min / max / distinct
#: summaries: ints and doubles (never NaN — storage rejects it).
_SUMMARIZED_TYPES = (ColumnType.SMALLINT, ColumnType.INT,
                     ColumnType.BIGINT) + _FLOAT_TYPES


def _sumcount_result(func_name: str, state: ExactSum) -> Any:
    if func_name == "count":
        return state.count
    total = state.total()
    if func_name == "sum" or total is None:
        return total
    return total / state.count  # avg


def _multiset_result(func_name: str, constants: Tuple[Any, ...],
                     lowest: Any, highest: Any, distinct: Any) -> Any:
    """One ``multiset`` member's value from the group's shared state:
    the extremes and the set / Counter of the argument's values."""
    if func_name == "min":
        return lowest
    if func_name == "max":
        return highest
    if func_name == "distinct_count":
        return len(distinct)
    # topn_frequency
    top_n = int(constants[0])
    ranked = sorted(((str(key), count) for key, count in distinct.items()),
                    key=lambda item: (-item[1], item[0]))
    return ",".join(key for key, _count in ranked[:top_n])


def _present(values: List[Any]) -> List[Any]:
    return [value for value in values if value is not None]


# Block summaries, memoized by ``SharedBlock.summary`` (and a cut's):
# each is exact however a window splits into blocks — sums are exact
# (:class:`ExactSum`), and min/max and set union taken in time order
# are the flat fold's own answer.  A key's first read after a write
# computes its tail's and edges' summaries where the fold would have
# reduced their columns, so each tries the column as it is and filters
# NULLs out only when one is in it, as the fold does.

def _count_summary(values: List[Any]) -> ExactSum:
    return ExactSum(count=len(values) - values.count(None))  # count only


def _extremes_summary(values: List[Any]) -> Tuple[Any, ...]:
    """Values with the column's min and max — a lone NULL if none."""
    try:
        return min(values), max(values)
    except TypeError:  # a NULL does not compare
        present = _present(values)
        return (min(present), max(present)) if present else (None,)


def _distinct_summary(values: List[Any]) -> Optional[frozenset]:
    """The distinct values while there are ≤ 64 — a memo never outgrows
    the column it summarizes — else None: the column itself."""
    found = frozenset(values)
    if None in found:
        found = found.difference((None,))
    return found if len(found) <= 64 else None


def _pieces(group: "_StateGroup", blocks: Sequence[ColumnBlock],
            row_views: Sequence[List[Row]]) -> List[Any]:
    """The group's argument over each block, oldest block first: the
    memoized ``summarize`` result of a block that memoizes (a sealed
    block or span, a key's published tail, a cut of one) when the group
    has one, else a bare column as the block holds it (an ``array``, a
    tuple, a span's list — never changed here) or the expression over
    the rows."""
    position, summarize = group.position, group.summarize
    if position is None:
        return [list(map(group.scalar_fn, rows)) for rows in row_views]
    if summarize is None:
        return [block.values(position) for block in blocks]
    return [block.summary(position, summarize) if block.memoizes
            else block.values(position) for block in blocks]


@dataclasses.dataclass
class CompiledAggregate:
    """One aggregate binding with its compiled argument extractor."""

    binding: AggregateBinding
    arg_fn: Callable[[Row], Tuple[Any, ...]]
    #: The registry function, instantiated once with the binding's
    #: constants.  It holds no accumulator (state lives in what
    #: ``create()`` returns), so every tier shares it and reads the
    #: aggregate's algebra (``mergeable`` …) from it.
    function: AggregateFunction
    #: Cycle-bound family slot; None = folds through ``function``.
    shared_group: Optional[int] = None

    @property
    def slot(self) -> int:
        return self.binding.slot


@dataclasses.dataclass
class _StateGroup:
    """One shared accumulator: a fold family over one argument."""

    family: str
    scalar_fn: RowFn
    #: The argument's position in the row when it is a bare column — the
    #: fold then reads the block's column instead of its rows.
    position: Optional[int]
    #: The bare column's type; None for an expression argument.
    column_type: Optional[ColumnType]
    #: What a block's memoized summary holds for this group;
    #: None when the fold reads its column or rows instead.
    summarize: Optional[Callable[[List[Any]], Any]] = None


class CompiledWindow:
    """All aggregates of one window, ready to fold over its blocks.

    ``compute_blocks`` takes the window as newest-first
    :class:`~repro.storage.skiplist.ColumnBlock` s (what every storage
    layer's ``window_scan_blocks`` hands out) and returns ``{slot:
    value}``; ``compute`` wraps plain newest-first rows into one block
    and calls the same fold.  Accumulation runs oldest → newest, so
    order-sensitive aggregates see time order; sums are exact
    (:class:`~repro.sql.functions.ExactSum`), so they are bit-identical
    whatever order the values are added in.

    Compilation emits exactly one **fold closure** per window.  Order-
    insensitive single-argument aggregates are cycle-bound into state
    groups, and each group is reduced a block at a time by C-level
    builtins over a *column* of the block: the block's column as held
    when the argument is a bare column, otherwise the argument expression
    mapped over the block's zipped row view.  Everything else walks that row
    view through the :class:`AggregateFunction` protocol.
    """

    def __init__(self, plan: WindowPlan, schema: Schema,
                 scope: Scope) -> None:
        self.plan = plan
        self.width = len(schema)
        self.partition_positions = tuple(
            schema.position(name) for name in plan.partition_columns)
        self.order_position = schema.position(plan.order_column)
        self._aggregates: List[CompiledAggregate] = []
        self._groups: List[_StateGroup] = []
        self._group_keys: Dict[Tuple[Any, ...], int] = {}
        for binding in plan.aggregates:
            self._aggregates.append(
                self._compile_binding(binding, schema, scope))
        self._fold = self._build_fold_kernel()

    # -- compilation --------------------------------------------------

    def _compile_binding(self, binding: AggregateBinding, schema: Schema,
                         scope: Scope) -> CompiledAggregate:
        arg_fns = [compile_expr(arg, scope) for arg in binding.value_args]
        if len(arg_fns) == 1:
            only = arg_fns[0]
            arg_fn = lambda row: (only(row),)  # noqa: E731
        else:
            arg_fn = lambda row: tuple(fn(row) for fn in arg_fns)  # noqa: E731

        function = get_aggregate(binding.func_name, *binding.constants)
        if len(arg_fns) == 1 and not function.order_sensitive \
                and function.fold_family != "rows":
            group_key = (function.fold_family, binding.value_args)
            group = self._group_keys.get(group_key)
            if group is None:
                group = self._group_keys[group_key] = len(self._groups)
                argument = binding.value_args[0]
                position = scope.resolve(argument) \
                    if isinstance(argument, ast.ColumnRef) else None
                self._groups.append(_StateGroup(
                    family=function.fold_family, scalar_fn=arg_fns[0],
                    position=position,
                    column_type=None if position is None
                    else schema.columns[position].type))
            return CompiledAggregate(binding, arg_fn, function, group)
        return CompiledAggregate(binding, arg_fn, function)

    def _build_fold_kernel(self) -> Callable[
            [Sequence[ColumnBlock]], Tuple[Dict[int, Any], int]]:
        """Specialise the fold closure for this window's aggregate mix.

        The classification happens *here*, at compile time; the returned
        kernel only runs C-level reductions over one value list per
        block.  Per state group:

        * ``sumcount`` — one :class:`~repro.sql.functions.ExactSum`
          shared by sum/count/avg (cycle binding).  The count is
          ``len``; the values add up exactly — builtin ``sum`` while
          they are ints, their partials once a float is among them — so
          the total is the one the offline engine reaches in any
          order.  A count-only group adds nothing
          up.
        * ``multiset`` — a ``set`` of the values when distinct_count is
          asked for, a :class:`Counter` only when topn_frequency needs
          multiplicity (fed oldest → newest: ties print the first-seen
          key), and min/max read off its keys when a member asks for
          them; a min/max-only group skips the container and compares
          per-block ``min``/``max`` across blocks.

        NULLs never cost the fast path a pass of its own: adding or
        comparing one raises ``TypeError``, and only then is the block
        filtered and reduced again; the containers take them and drop
        the one NULL key at the end.  Everything else — order-sensitive,
        multi-argument, ``fold_family = "rows"`` — folds through the
        generic :class:`AggregateFunction` protocol over the zipped row
        view.

        A group over a bare int or double column, or a count-only group
        over any bare column, reads the memoized summary of a block that
        memoizes (a sealed block or span, a key's published tail, a cut
        of one) instead of its column; the fold returns how many sealed
        blocks and spans it read so.  Only a window that reads one
        stored source sees such blocks: the online engine merges several
        into one fresh block.
        """
        plan = self.plan
        one_source = len(plan.union_tables) \
            + (not plan.instance_not_in_window) == 1
        sumcounts = []
        multisets = []
        for group, state in enumerate(self._groups):
            members = [compiled for compiled in self._aggregates
                       if compiled.shared_group == group]
            names = {compiled.binding.func_name for compiled in members}
            outs = tuple((c.binding.func_name, c.binding.constants, c.slot)
                         for c in members)
            summarized = one_source \
                and state.column_type in _SUMMARIZED_TYPES
            if state.family == "sumcount":
                totals = bool(names & {"sum", "avg"})
                if one_source and state.position is not None \
                        and not totals:
                    state.summarize = _count_summary
                elif summarized:
                    state.summarize = ExactSum.of
                sumcounts.append((state, totals,
                                  state.column_type in _FLOAT_TYPES, outs))
            else:
                distinct_type = Counter if "topn_frequency" in names \
                    else set if "distinct_count" in names else None
                if summarized and distinct_type is not Counter:
                    state.summarize = _distinct_summary if distinct_type \
                        else _extremes_summary
                multisets.append((state, distinct_type,
                                  bool(names & {"min", "max"}), outs))
        summarizes = any(state.summarize for state in self._groups)
        generic_programs = tuple(
            (compiled.arg_fn, compiled.function, compiled.slot)
            for compiled in self._aggregates
            if compiled.shared_group is None)
        walks_rows = bool(generic_programs) or any(
            state.position is None for state in self._groups)

        def fold(blocks: Sequence[ColumnBlock]
                 ) -> Tuple[Dict[int, Any], int]:
            results: Dict[int, Any] = {}
            # Blocks arrive newest-first and hold their tuples oldest →
            # newest: reversing the block order puts every value list in
            # time order end to end.
            ordered = blocks[::-1]
            row_views = [block.rows() for block in ordered] \
                if walks_rows else ()
            for group, totals, floats, outs in sumcounts:
                state = ExactSum()
                for piece in _pieces(group, ordered, row_views):
                    if type(piece) is ExactSum:
                        state.absorb(piece)
                    elif not totals:
                        state.count += len(piece) - piece.count(None)
                    else:
                        try:
                            state.extend(piece, floats)
                        except TypeError:  # a NULL does not add: skip
                            state.extend(_present(piece), floats)
                for func_name, _constants, slot in outs:
                    results[slot] = _sumcount_result(func_name, state)
            for group, distinct_type, extremes, outs in multisets:
                lowest = highest = distinct = None
                # Summaries stand in for their blocks' columns, in time
                # order: the first of equal extremes (0.0 and -0.0) wins
                # as in a fold over the bare values.
                value_lists = _pieces(group, ordered, row_views)
                if distinct_type is not None:
                    distinct = distinct_type()
                    for values in value_lists:
                        distinct.update(values)
                    if distinct_type is set:
                        distinct.discard(None)
                    else:
                        distinct.pop(None, None)
                    if extremes and distinct:
                        lowest, highest = min(distinct), max(distinct)
                else:
                    for values in value_lists:
                        try:
                            block_min, block_max = min(values), max(values)
                        except TypeError:  # a NULL does not compare
                            values = _present(values)
                            if not values:
                                continue
                            block_min, block_max = min(values), max(values)
                        if block_min is None:
                            continue  # a lone NULL: nothing compared it
                        if lowest is None or block_min < lowest:
                            lowest = block_min
                        if highest is None or block_max > highest:
                            highest = block_max
                for func_name, constants, slot in outs:
                    results[slot] = _multiset_result(
                        func_name, constants, lowest, highest, distinct)
            if generic_programs:
                live = []
                for arg_fn, function, slot in generic_programs:
                    live.append((function.add, function.create(), arg_fn,
                                 function, slot))
                for rows in row_views:
                    for row in rows:
                        for add_row, state, arg_fn, _function, _slot in live:
                            add_row(state, *arg_fn(row))
                for _add, state, _arg_fn, function, slot in live:
                    results[slot] = function.result(state)
            return results, sum(block.sealed for block in ordered) \
                if summarizes else 0

        return fold

    @property
    def state_groups(self) -> int:
        """Number of shared accumulators (cycle-binding observability)."""
        return len(self._groups)

    @property
    def summaries(self) -> Tuple[Tuple[Optional[int], Any], ...]:
        """Per state group, the ``(position, reduce)`` the fold asks a
        memoizing block's ``summary`` for — ``reduce`` None where it
        reads the group's column or rows instead."""
        return tuple((group.position, group.summarize)
                     for group in self._groups)

    @property
    def aggregates(self) -> Tuple[CompiledAggregate, ...]:
        return tuple(self._aggregates)

    def fold_path(self, compiled: CompiledAggregate) -> str:
        """How the fold reads a block that memoizes (a sealed block or
        span, a published tail, a cut of one) for one aggregate: its
        memoized ``summary``, its ``column`` slice, or ``rows``."""
        if compiled.shared_group is None:
            return "rows"
        group = self._groups[compiled.shared_group]
        if group.summarize is not None:
            return "summary"
        return "rows" if group.position is None else "column"

    # -- tier decisions, derived once from the registry flags ----------

    @property
    def carry_eligible(self) -> bool:
        """Merged task partials may replace replayed rows offline: the
        frame never evicts (a partition's end state *is* the serial
        prefix state) and every merge continues the fold bit-exactly."""
        plan = self.plan
        return plan.range_preceding_ms is None \
            and plan.rows_preceding is None and plan.maxsize is None \
            and not plan.instance_not_in_window and all(
                agg.function.mergeable and agg.function.merge_exact
                for agg in self._aggregates)

    # -- execution ----------------------------------------------------

    def partition_key(self, row: Row) -> Any:
        if len(self.partition_positions) == 1:
            return row[self.partition_positions[0]]
        return tuple(row[position] for position in self.partition_positions)

    def order_value(self, row: Row) -> Any:
        return row[self.order_position]

    def compute_blocks(self,
                       blocks_newest_first: Sequence[ColumnBlock]
                       ) -> Tuple[Dict[int, Any], int]:
        """Fold newest-first blocks: ``{slot: result}`` and the number of
        sealed blocks answered from their memoized summaries.

        This is the hot entry point: the storage layer's blocks feed
        straight in, so the per-row work left on the path is whatever
        the window's aggregates cannot reduce column-at-a-time.
        """
        return self._fold(blocks_newest_first)


@dataclasses.dataclass
class CompiledJoin:
    """A LAST JOIN ready for index lookups.

    ``key_fn`` maps the left row (combined tuple so far) to the right
    table's index key; ``order_by`` names the column "last" is by —
    both engines read the index ordered by it (None: the first index on
    the key); ``residual_fn`` (if any) filters candidate right rows
    newest-first; ``right_width`` pads with NULLs on a miss.
    """

    plan: JoinPlan
    key_columns: Tuple[str, ...]
    key_fn: Callable[[Row], Any]
    residual_fn: Optional[RowFn]
    order_by: Optional[str]
    right_width: int
    start_slot: int = 0  # first slot of the right table in the combined row

    def lookup(self, table: Any, combined: Sequence[Any]
               ) -> Tuple[Optional[Row], int]:
        """The right row of ``table`` that ``combined`` (the combined row
        so far) joins to, or None, and how many candidates the residual
        condition tested — the LAST JOIN body both engines run.

        Without a residual condition the newest row on the key is one
        index seek.  With one, candidates are walked newest-first until
        one passes.  A block scan copies the tail's part out, so it
        fetches rounds of 32, 256, 2,048, … rows: an early hit never
        pays for the key's whole history.  Each round resumes at the
        oldest ``ts`` the last one read and skips the rows of that
        ``ts`` already tested, so only they are read twice.  (A row
        inserted between rounds at that ``ts`` may be skipped in place
        of one tested before: the answer is one an earlier lookup
        could give.)
        """
        key_value = self.key_fn(tuple(combined))
        if self.residual_fn is None:
            hit = table.last_join_lookup(self.key_columns, key_value,
                                         ts_column=self.order_by)
            return (hit[1] if hit is not None else None), 0
        ts_column = table.find_index(self.key_columns,
                                     self.order_by).ts_column
        probe = list(combined)
        end = self.start_slot + self.right_width
        resume, seen, limit, tested = None, 0, 32, 0
        while True:
            candidates = list(chain.from_iterable(table.window_scan_blocks(
                self.key_columns, ts_column, key_value, start_ts=resume,
                limit=limit)))
            for _ts, candidate in candidates[seen:]:
                probe[self.start_slot:end] = candidate
                tested += 1
                if self.residual_fn(tuple(probe)) is True:
                    return candidate, tested
            if len(candidates) < limit:
                return None, tested
            resume, seen = candidates[-1][0], 1
            while seen < limit and candidates[-seen - 1][0] == resume:
                seen += 1
            limit *= 8


def _reach(plan: WindowPlan) -> Tuple[str, float]:
    """A frame's kind and how far back it reaches: ``("rows", count)``,
    ``("range", ms)`` or ``("unbounded", inf)``."""
    if plan.rows_preceding is not None:
        return "rows", plan.rows_preceding
    if plan.range_preceding_ms is not None:
        return "range", plan.range_preceding_ms
    return "unbounded", math.inf


#: One storage scan a request makes: its windows as ``(name, window,
#: cut)``, the scanned (widest) one first.  ``cut`` marks a narrower
#: frame, which takes a newest-first cut of the scan; the others read it
#: whole.
SharedScan = Tuple[Tuple[str, CompiledWindow, bool], ...]


def _shared_scans(running: Sequence[Tuple[str, CompiledWindow]]
                  ) -> Tuple[SharedScan, ...]:
    """Group windows into one storage scan each (the plan-level window
    merge of Section 5).

    Windows over the same partition columns, order column and sources
    read the same newest-first run of one key, each up to its own
    frame's bound — ``EXCLUDE CURRENT_ROW`` and ``MAXSIZE`` act on that
    run afterwards, so they share too.  Frames of one kind nest: the
    widest ``ROWS_RANGE`` frame's run holds every narrower one's as a
    newest prefix (cut by ``ts``), the longest ``ROWS`` frame's every
    shorter one's (cut by count).  An unbounded frame's run holds any
    frame's, so it serves both kinds; without one a ``ROWS`` and a
    ``ROWS_RANGE`` frame scan apart.  The widest window (the first
    declared on a tie) is scanned; the others cut its run unless their
    frame is the same.
    """
    classes: Dict[Tuple[Any, ...], List[Tuple[str, CompiledWindow]]] = {}
    for name, window in running:
        plan = window.plan
        classes.setdefault(
            (plan.partition_columns, plan.order_column,
             plan.instance_not_in_window, plan.union_tables),
            []).append((name, window))
    scans = []
    for members in classes.values():
        reaches = {name: _reach(window.plan) for name, window in members}
        unbounded = any(kind == "unbounded" for kind, _ in reaches.values())
        groups: Dict[str, List[Tuple[str, CompiledWindow]]] = {}
        for name, window in members:
            kind = "unbounded" if unbounded else reaches[name][0]
            groups.setdefault(kind, []).append((name, window))
        for group in groups.values():
            widest = max(group, key=lambda member: reaches[member[0]][1])
            scans.append(((*widest, False),) + tuple(
                (name, window, reaches[name] != reaches[widest[0]])
                for name, window in group if name != widest[0]))
    return tuple(scans)


class CompiledQuery:
    """The full compiled artefact shared by both engines."""

    def __init__(self, plan: QueryPlan,
                 catalog: Mapping[str, Schema]) -> None:
        self.plan = plan
        self.catalog = dict(catalog)

        # Window-source scope: the primary table only (window rows carry
        # the FROM table's schema; union tables are positionally mapped).
        window_scope = Scope()
        window_scope.add_namespace(plan.table_alias,
                                   plan.table_schema.column_names)
        if plan.table_alias != plan.table:
            # Allow both alias- and name-qualified references.
            window_scope.add_alias(plan.table, plan.table_alias)

        self.windows: Dict[str, CompiledWindow] = {
            name: CompiledWindow(window_plan, plan.table_schema,
                                 window_scope)
            for name, window_plan in plan.windows.items()}
        #: ``(name, window)`` for each window with aggregates — the ones
        #: a request runs — in declaration order.
        self.running_windows: Tuple[Tuple[str, CompiledWindow], ...] = \
            tuple((name, window) for name, window in self.windows.items()
                  if window.aggregates)
        #: The storage scans a request makes (see :data:`SharedScan`).
        self.scans: Tuple[SharedScan, ...] = _shared_scans(
            self.running_windows)

        # Combined-row scope: primary columns then each join's columns.
        combined = Scope()
        combined.add_namespace(plan.table_alias,
                               plan.table_schema.column_names)
        if plan.table_alias != plan.table:
            combined.add_alias(plan.table, plan.table_alias)
        self.joins: List[CompiledJoin] = []
        for join_plan in plan.joins:
            right_schema = catalog[join_plan.right_table]
            key_fns = [compile_expr(expr, combined)
                       for expr, _column in join_plan.eq_keys]
            key_columns = tuple(column for _expr, column
                                in join_plan.eq_keys)
            if len(key_fns) == 1:
                only = key_fns[0]
                key_fn: Callable[[Row], Any] = only
            else:
                key_fn = lambda row, fns=tuple(key_fns): tuple(  # noqa: E731
                    fn(row) for fn in fns)
            start_slot = combined.size
            combined.add_namespace(join_plan.right_alias,
                                   right_schema.column_names)
            if join_plan.right_alias != join_plan.right_table:
                combined.add_alias(join_plan.right_table,
                                   join_plan.right_alias)
            residual_fn = (compile_expr(join_plan.residual, combined)
                           if join_plan.residual is not None else None)
            self.joins.append(CompiledJoin(
                plan=join_plan, key_columns=key_columns, key_fn=key_fn,
                residual_fn=residual_fn, order_by=join_plan.order_by,
                right_width=len(right_schema), start_slot=start_slot))
        self.combined_width = combined.size

        # Final projection over the extended row: combined row followed by
        # one slot per aggregate binding.
        aggregate_slots: Dict[ast.FuncCall, int] = {}
        for window in self.windows.values():
            for compiled in window.aggregates:
                aggregate_slots[compiled.binding.call] = (
                    self.combined_width + compiled.slot)
        self.aggregate_count = len(aggregate_slots)
        self.where_fn: Optional[RowFn] = (
            compile_expr(plan.statement.where, combined)
            if plan.statement.where is not None else None)

        self.projections: List[RowFn] = []
        for item in plan.statement.items:
            if isinstance(item.expr, ast.Star):
                self.projections.extend(
                    self._star_slots(item.expr, combined))
            else:
                self.projections.append(
                    compile_expr(item.expr, combined, aggregate_slots))
        self.output_names = plan.output_names
        if len(self.output_names) != len(self.projections):
            raise CompileError("projection/output name arity mismatch")

    def shared_reads(self) -> Dict[str, str]:
        """``{window: "reuses w" or "cut from w"}`` for each window that
        reads window ``w``'s scan (what EXPLAIN prints)."""
        return {name: f"{'cut from' if cut else 'reuses'} {scan[0][0]}"
                for scan in self.scans for name, _window, cut in scan[1:]}

    def _star_slots(self, star: ast.Star, combined: Scope) -> List[RowFn]:
        if star.table is None:
            qualifiers = [self.plan.table_alias] + [
                join.plan.right_alias for join in self.joins]
        else:
            qualifiers = [self._resolve_star_qualifier(star.table)]
        fns: List[RowFn] = []
        for qualifier in qualifiers:
            for _name, slot in combined.namespace_slots(qualifier):
                fns.append(lambda row, position=slot: row[position])
        return fns

    def _resolve_star_qualifier(self, qualifier: str) -> str:
        if qualifier in (self.plan.table_alias, self.plan.table):
            return self.plan.table_alias
        for join in self.joins:
            if qualifier in (join.plan.right_alias, join.plan.right_table):
                return join.plan.right_alias
        raise PlanError(f"{qualifier}.* references unknown table")

    def project(self, extended_row: Row) -> Row:
        """Apply the final projection to combined row + aggregate slots."""
        return tuple(fn(extended_row) for fn in self.projections)


class CompilationCache:
    """Statement-level compiled-plan cache (the paper's compilation cache).

    Keys are the structural identity of (statement AST, referenced
    schemas); frozen dataclasses make the AST hashable, so re-deploying a
    feature script — the common production event — is a dictionary hit
    instead of a full parse/plan/compile pass.
    """

    def __init__(self, capacity: int = 256,
                 obs: Optional[Observability] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[Any, CompiledQuery] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._obs = obs or NULL_OBS
        self._m_hits = self._obs.registry.counter("sql.compile.cache_hits")
        self._m_misses = self._obs.registry.counter(
            "sql.compile.cache_misses")

    @staticmethod
    def _key(statement: ast.SelectStatement,
             catalog: Mapping[str, Schema]) -> Any:
        referenced = {statement.table}
        referenced.update(join.table for join in statement.joins)
        for window in statement.windows:
            referenced.update(window.union_tables)
        # Unknown tables key as None so the compile step (not the cache)
        # raises the proper PlanError.
        schema_part = tuple(sorted(
            (name, catalog.get(name)) for name in referenced))
        return statement, schema_part

    def get_or_compile(self, statement: ast.SelectStatement,
                       catalog: Mapping[str, Schema]) -> CompiledQuery:
        key = self._key(statement, catalog)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._m_hits.inc()
                return cached
        if self._obs.enabled:
            started = time.perf_counter()
            compiled = compile_plan(build_plan(statement, catalog), catalog)
            self._obs.registry.histogram("sql.compile.ms").observe(
                (time.perf_counter() - started) * 1_000)
        else:
            compiled = compile_plan(build_plan(statement, catalog), catalog)
        with self._lock:
            self.misses += 1
            self._m_misses.inc()
            if len(self._entries) >= self.capacity:
                # FIFO eviction keeps the implementation simple and the
                # common redeploy-immediately pattern hot.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = compiled
        return compiled


def compile_plan(plan: QueryPlan,
                 catalog: Mapping[str, Schema]) -> CompiledQuery:
    """Compile a logical plan against ``catalog``."""
    return CompiledQuery(plan, catalog)


# ----------------------------------------------------------------------
# index access paths (Section 4.2) and EXPLAIN

#: table name → its declared indexes.
TableIndexes = Mapping[str, Sequence[IndexDef]]


def pick_index(table_indexes: TableIndexes, table: str,
               keys: Sequence[str], ts: Optional[str] = None
               ) -> Optional[str]:
    """The first declared index on ``table`` serving ``PARTITION BY
    keys [ORDER BY ts]``, or None: the lookup would need a full scan."""
    for index in table_indexes.get(table, ()):
        if index.matches(tuple(keys), ts):
            return index.name
    return None


def index_access_paths(plan: QueryPlan, table_indexes: TableIndexes
                       ) -> Dict[str, str]:
    """Section 4.2's index optimisation: operator label → the index
    serving it, for every window source and LAST JOIN of ``plan``.

    Raises:
        PlanError: when any access path would need a full scan — a
            deployment is rejected then, never a request.
    """
    paths = [(f"window {name} over {table}", table,
              window.partition_columns, window.order_column)
             for name, window in plan.windows.items()
             for table in (plan.table, *window.union_tables)]
    paths.extend((f"last join {join.right_table}", join.right_table,
                  [column for _expr, column in join.eq_keys], join.order_by)
                 for join in plan.joins)
    chosen: Dict[str, str] = {}
    for label, table, keys, ts in paths:
        index = pick_index(table_indexes, table, keys, ts)
        if index is None:
            raise PlanError(
                f"{label}: no index on {table}({tuple(keys)} ORDER BY "
                f"{ts}); the plan would need a full scan")
        chosen[label] = index
    return chosen


def _sql(expr: ast.Expr) -> str:
    """Compact SQL text of an expression, for EXPLAIN."""
    if isinstance(expr, ast.Literal):
        return "NULL" if expr.value is None else repr(expr.value)
    if isinstance(expr, ast.FuncCall):
        return f"{expr.name}({', '.join(map(_sql, expr.args))})"
    if isinstance(expr, ast.BinaryOp):
        return f"({_sql(expr.left)} {expr.op} {_sql(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        operand = _sql(expr.operand)
        return f"({operand} {expr.op})" if expr.op.startswith("IS") \
            else f"({expr.op} {operand})"
    return str(expr) if isinstance(expr, ast.ColumnRef) else "CASE ... END"


def _frame(plan: WindowPlan) -> str:
    if plan.rows_preceding is not None:
        start = f"ROWS {plan.rows_preceding - 1} PRECEDING"
    elif plan.range_preceding_ms is not None:
        start = f"ROWS_RANGE {plan.range_preceding_ms}ms PRECEDING"
    else:
        start = "UNBOUNDED PRECEDING"
    flags = (plan.maxsize is not None and f"MAXSIZE {plan.maxsize}",
             plan.exclude_current_row and "EXCLUDE CURRENT_ROW",
             plan.instance_not_in_window and "INSTANCE_NOT_IN_WINDOW")
    return ", ".join([start, *filter(None, flags)])


def explain(compiled: CompiledQuery, table_indexes: TableIndexes) -> str:
    """EXPLAIN: the compiled query both engines run, one operator a
    line (docs/architecture.md §1 reads an example).  Only windows with
    aggregates run, so only they are shown; an index no declared one
    serves — a deployment would be rejected — shows as ``none``."""
    plan = compiled.plan
    lines = [f"Project({', '.join(compiled.output_names)})"]
    running = [name for name, _window in compiled.running_windows]
    shared = compiled.shared_reads()
    indent = "  "
    if len(running) > 1:
        lines.append(f"  ConcatJoin({', '.join(running)}) over "
                     "SimpleProject(+index)")
        indent = "    "
    for name in running:
        window = compiled.windows[name]
        window_plan = window.plan
        lines.append(f"{indent}WindowAgg({name}) {_frame(window_plan)}")
        indexes = [(pick_index(table_indexes, table,
                               window_plan.partition_columns,
                               window_plan.order_column), table)
                   for table in (plan.table, *window_plan.union_tables)]
        details = ["index: " + ", ".join(f"{index or 'none'} ({table})"
                                         for index, table in indexes)]
        for path in ("summary", "column", "rows"):
            calls = [_sql(agg.binding.call) for agg in window.aggregates
                     if window.fold_path(agg) == path]
            if calls:
                details.append(f"{path}: {', '.join(calls)}")
        details.append(f"state_groups: {window.state_groups}")
        if name in shared:
            details.append(f"scan: {shared[name]}")
        details.append("skew: carry end states" if window.carry_eligible
                       else "skew: expand rows")
        lines.extend(f"{indent}  {detail}" for detail in details)
    for join in compiled.joins:
        join_plan = join.plan
        keys = ", ".join(f"{_sql(expr)} = {join_plan.right_alias}.{column}"
                         for expr, column in join_plan.eq_keys)
        if join_plan.residual is not None:
            keys += f" filter {_sql(join_plan.residual)}"
        index = pick_index(table_indexes, join_plan.right_table,
                           join.key_columns, join.order_by)
        lines.append(f"  LastJoin({join_plan.right_table}) index="
                     f"{index or 'none'} on {keys}")
    lines.append(f"  DataProvider({plan.table})")
    return "\n".join(lines)
