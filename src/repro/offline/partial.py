"""Mergeable task partials and the shared window fold (paper Section 6).

The offline engine splits a window computation into ``(key, PART_ID)``
tasks.  For a split to be more than task-level pipelining, aggregates
must be an explicit map-reduce: each task folds its own rows into a
**partial state**, and partials combine with an associative ``merge`` —
larsql's parallel-safety analysis (SNIPPETS Snippet 1) calls this the
post-merge that makes naive query splitting correct again.

There is one aggregate protocol, the registry's
:class:`~repro.sql.functions.AggregateFunction` (``create / add / merge
/ result``); :class:`WindowPartialState` drives it directly over a
window's aggregates.  Whether carried partials may *replace* replayed
rows is decided once, from the registry flags, by
:attr:`~repro.sql.compiler.CompiledWindow.carry_eligible`: the frame
never evicts and every aggregate is ``mergeable and merge_exact`` (its
merge is op-for-op a continuation of the serial fold).  ``ew_avg`` has
no merge and ``drawdown``'s is exact only for positive series, so
windows containing them fall back to expanded rows.

:class:`WindowKernel` at the bottom is the shared fold: the same code
object runs inside the engine and inside hand-in pool workers, which is
what keeps their output byte-identical.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..sql.functions import AggregateFunction

__all__ = ["WindowPartialState", "WindowKernel", "TaskEvent"]


# One task event: (ts, row, anchor_index or None).  anchor_index is the
# primary-row position for instance rows, None for context-only rows
# (WINDOW UNION contributions and skew-expanded copies carry emit=False
# separately, in the parallel emit_flags sequence).
TaskEvent = Tuple[int, Tuple[Any, ...], Optional[int]]


class WindowPartialState:
    """Vector of partials — one per aggregate of a window.

    The engine's carry path threads these through ``(key, PART_ID)``
    tasks: each task folds its own rows into a segment, segments
    prefix-merge into the *carry* seeding the next partition, replacing
    the skew resolver's expanded-row replay for unbounded frames.
    ``merge`` raises for a non-mergeable member; callers gate on
    ``CompiledWindow.carry_eligible``.
    """

    def __init__(self, functions: Sequence[AggregateFunction],
                 extractors: Sequence[Callable[[Any], Tuple[Any, ...]]]
                 ) -> None:
        self._members = list(zip(functions, extractors))

    def init(self) -> List[Any]:
        return [function.create() for function, _extract in self._members]

    def accumulate_row(self, states: List[Any], row: Any) -> None:
        for state, (function, extract) in zip(states, self._members):
            function.add(state, *extract(row))

    def merge(self, older: List[Any], newer: List[Any]) -> List[Any]:
        """Combine two vectors; ``older``'s rows precede ``newer``'s."""
        return [function.merge(left, right) for left, right,
                (function, _extract) in zip(older, newer, self._members)]

    def finalize(self, states: List[Any]) -> List[Any]:
        return [function.result(state) for state, (function, _extract)
                in zip(states, self._members)]

    @staticmethod
    def copy_states(states: List[Any]) -> List[Any]:
        """Deep-copy a state vector (seeding must not alias the carry)."""
        return pickle.loads(pickle.dumps(states))


class WindowKernel:
    """The per-window fold shared by the engine and pool workers.

    Wraps a :class:`~repro.sql.compiler.CompiledWindow` with the frame
    arithmetic, exposing three entry points:

    * :meth:`fold` — replay events through a
      :class:`~repro.online.incremental.SlidingWindowAggregator`
      (the in-process path and the worker "fold" task);
    * :meth:`segment_states` — map phase of the carry path: fold a
      partition's rows into mergeable partials;
    * :meth:`seeded_fold` — reduce phase: continue the fold from a
      carried state vector, emitting per-anchor values.

    Pool workers rebuild the kernel from a pickled
    :class:`~repro.sql.planner.WindowPlan` and run *this same code*,
    which is what makes pool output byte-identical to in-process.
    """

    def __init__(self, window: Any) -> None:
        plan = window.plan
        self.window = window
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
        self.partials = WindowPartialState(self.functions, self.extractors)

    # -- entry points --------------------------------------------------

    def fold(self, events: Sequence[TaskEvent],
             emit_flags: Sequence[bool]
             ) -> List[Tuple[int, List[Any]]]:
        """Slide one (key[, PART_ID]) group through the window frame."""
        from ..online.incremental import SlidingWindowAggregator

        aggregator = SlidingWindowAggregator(
            self.functions, self.extractors,
            range_ms=self.range_ms, max_rows=self.max_rows,
            stream_ordered=not self.instance_not_in_window)
        emits: List[Tuple[int, List[Any]]] = []
        include_current = self.include_current
        for (ts, row, anchor_index), emit in zip(events, emit_flags):
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
        return emits

    def segment_states(self, events: Sequence[TaskEvent]) -> List[Any]:
        """Map phase: fold a partition's rows into a partial vector."""
        partials = self.partials
        states = partials.init()
        for _ts, row, _anchor in events:
            partials.accumulate_row(states, row)
        return states

    def seeded_fold(self, events: Sequence[TaskEvent],
                    emit_flags: Sequence[bool], seed: List[Any]
                    ) -> Tuple[List[Tuple[int, List[Any]]], List[Any]]:
        """Reduce phase: continue the fold from carried partials.

        Only valid when ``window.carry_eligible``; the seed
        stands in for every preceding partition's rows, so accumulate /
        finalize here replays the exact serial operation sequence.
        Returns ``(emits, end_states)`` — the end states *are* the
        carry for the next partition when folding in-process.
        """
        partials = self.partials
        states = WindowPartialState.copy_states(seed)
        emits: List[Tuple[int, List[Any]]] = []
        include_current = self.include_current
        for (ts, row, anchor_index), emit in zip(events, emit_flags):
            if anchor_index is None:
                partials.accumulate_row(states, row)
                continue
            if include_current:
                partials.accumulate_row(states, row)
                if emit:
                    emits.append((anchor_index,
                                  partials.finalize(states)))
            else:  # EXCLUDE CURRENT_ROW (instance_not_in_window is
                # never carry-eligible)
                if emit:
                    emits.append((anchor_index,
                                  partials.finalize(states)))
                partials.accumulate_row(states, row)
        return emits, states
