"""The offline engine's window fold and its carry path (paper Section 6).

The offline engine splits a window computation into ``(key, PART_ID)``
tasks.  :meth:`WindowKernel.fold` folds one task: it replays the task's
rows through a :class:`~repro.online.incremental.SlidingWindowAggregator`.
A task is one of three kinds, all run by that one loop:

* **plain** — a whole key's rows;
* **expanded rows** — a later partition of a hot key, prefixed with
  the earlier rows its frames reach (``skip`` of them, emitting
  nothing);
* **carried** — §6.2's skew plan with no copies.  A hot key's partitions
  form a chain: each partition's aggregator is seeded with the end
  state of the partition before it.  The adds run in the same order as
  one serial fold, so the answer is byte-identical, doubles included.

Whether a window carries is decided once, from the registry flags, by
:attr:`~repro.sql.compiler.CompiledWindow.carry_eligible`: the frame
never evicts and every aggregate is ``mergeable and merge_exact``.  A
frame that never evicts keeps every aggregate's running state clean
(time-ordered adds, no removes), so a partition's end state *is* the
serial prefix state.  The engine runs a chain in order, so it never
calls ``merge``.  The flag still matters: an exact merge means a
two-phase (map, then prefix-merge) plan for the chain exists, and that
is what lets the makespan model schedule its partitions as independent
tasks (larsql's parallel-safety analysis, SNIPPETS Snippet 1: state the
property a split relies on).  ``ew_avg`` has no merge and
``drawdown``'s is exact only for positive series, so windows containing
them fall back to expanded rows.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["WindowKernel", "TaskEvent"]


# One task event: (ts, row, anchor_index or None).  anchor_index is the
# primary-row position for instance rows, None for WINDOW UNION rows,
# which only feed the window.  A task's leading skew context rows keep
# their anchor_index; the fold's ``skip`` count silences them.
TaskEvent = Tuple[int, Tuple[Any, ...], Optional[int]]


class WindowKernel:
    """The per-window fold of the offline engine.

    Wraps a :class:`~repro.sql.compiler.CompiledWindow` with the frame
    arithmetic; :meth:`fold` runs a plain, expanded-row or carried task.
    """

    def __init__(self, window: Any) -> None:
        plan = window.plan
        self.functions = [agg.function for agg in window.aggregates]
        self.extractors = [agg.arg_fn for agg in window.aggregates]
        self.slots = [agg.slot for agg in window.aggregates]
        self.include_current = not (plan.exclude_current_row
                                    or plan.instance_not_in_window)
        max_rows = plan.rows_preceding
        if max_rows is not None and not self.include_current:
            max_rows = max(max_rows - 1, 0)
        if plan.maxsize is not None:
            max_rows = (plan.maxsize if max_rows is None
                        else min(max_rows, plan.maxsize))
        self.max_rows = max_rows
        self.range_ms = plan.range_preceding_ms
        self.exclude_current_row = plan.exclude_current_row
        self.instance_not_in_window = plan.instance_not_in_window

    def fold(self, events: Sequence[TaskEvent], skip: int = 0,
             seed: Optional[List[Any]] = None
             ) -> Tuple[List[Tuple[int, List[Any]]], List[Any]]:
        """Slide one (key[, PART_ID]) task through the window frame.

        The first ``skip`` events are context: they enter the frame as
        usual and emit nothing.  ``seed`` is a carry chain's previous
        partition's end states (None starts afresh; only a
        ``carry_eligible`` window passes one).  It is advanced in place,
        never reused.  Returns ``(emits, end_states)``: the end states
        seed the next partition.
        """
        from ..online.incremental import SlidingWindowAggregator

        aggregator = SlidingWindowAggregator(
            self.functions, self.extractors,
            range_ms=self.range_ms, max_rows=self.max_rows, states=seed)
        emits: List[Tuple[int, List[Any]]] = []
        include_current = self.include_current
        for position, (ts, row, anchor_index) in enumerate(events):
            emit = position >= skip
            if anchor_index is None:
                aggregator.insert(ts, row)
                continue
            if include_current:
                aggregator.insert(ts, row)
                if emit:
                    emits.append((anchor_index, aggregator.results()))
            elif self.instance_not_in_window:
                # Instance rows never enter the window; the anchor
                # participates transiently unless also excluded.
                aggregator.evict_to(ts)
                if emit:
                    values = (aggregator.results()
                              if self.exclude_current_row
                              else aggregator.results_with(row))
                    emits.append((anchor_index, values))
            else:
                # EXCLUDE CURRENT_ROW: evaluate the frame anchored at
                # ts before adding the row (it joins later windows).
                aggregator.evict_to(ts)
                if emit:
                    emits.append((anchor_index, aggregator.results()))
                aggregator.insert(ts, row)
        return emits, aggregator.states
