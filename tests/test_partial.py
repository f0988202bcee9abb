"""Mergeable partials and the offline carry path.

Splitting a window's rows into partitions is sound when folding a
stream in segments and merging the partials gives the same answer as
one serial fold.  These tests pin that invariant per registry function
(the one aggregate protocol: ``create / add / merge / result``), the
``mergeable`` / ``merge_exact`` declarations that gate the carry path,
the carry chain of :class:`repro.offline.partial.WindowKernel`, and
the histogram state merge.
"""

import pickle
import random

import pytest

from repro.errors import ExecutionError
from repro.obs.metrics import Histogram
from repro.offline.partial import WindowKernel
from repro.schema import Schema
from repro.sql.compiler import compile_plan
from repro.sql.functions import get_aggregate
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan

random.seed(20250809)

VALUES = [random.choice([None] + list(range(-40, 40))) for _ in range(120)]


def serial_result(function, values):
    state = function.create()
    for value in values:
        function.add(state, value)
    return function.result(state)


def merged_result(function, values, cut):
    older, newer = function.create(), function.create()
    for value in values[:cut]:
        function.add(older, value)
    for value in values[cut:]:
        function.add(newer, value)
    return function.result(function.merge(older, newer))


MERGE_EXACT_AGGS = ["sum", "count", "avg", "min", "max",
                    "distinct_count", "variance", "stddev"]


class TestRegistryMerges:
    @pytest.mark.parametrize("name", MERGE_EXACT_AGGS)
    @pytest.mark.parametrize("cut", [0, 1, 37, 119, 120])
    def test_merge_equals_serial_fold(self, name, cut):
        function = get_aggregate(name)
        assert function.mergeable and function.merge_exact
        assert serial_result(function, VALUES) \
            == merged_result(function, VALUES, cut)

    def test_topn_merge(self):
        function = get_aggregate("topn_frequency", 3)
        values = [v % 5 if v is not None else None for v in VALUES]
        assert serial_result(function, values) \
            == merged_result(function, values, 50)

    def test_ew_avg_states_it_has_no_merge(self):
        # decay ** n re-associates float rounding, so no bit-exact merge
        # exists: the class says so and the base merge raises.
        function = get_aggregate("ew_avg", 0.5)
        assert not function.mergeable
        with pytest.raises(ExecutionError):
            function.merge(function.create(), function.create())

    def test_drawdown_merge_not_exact(self):
        # drawdown's merge is algebraically fine for pre-aggregation
        # (positive series) but NOT an exact fold continuation: a
        # segment's standalone drawdown uses its internal peak, which a
        # larger carried-in peak supersedes.  [20] ++ [5, -10]:
        # continued gives (20-(-10))/20 = 1.5, standalone (5-(-10))/5
        # = 3.0 — so it must stay off the carry path.
        function = get_aggregate("drawdown")
        assert function.mergeable and not function.merge_exact
        values = [20, 5, -10]
        assert serial_result(function, values) == pytest.approx(1.5)
        assert merged_result(function, values, 1) == pytest.approx(3.0)

    @pytest.mark.parametrize("offset", [0, 1, 3])
    @pytest.mark.parametrize("cut", [0, 2, 60, 120])
    def test_lag_merge_exact(self, offset, cut):
        function = get_aggregate("lag", offset)
        assert function.mergeable and function.merge_exact
        assert serial_result(function, VALUES) \
            == merged_result(function, VALUES, cut)

    def test_lag_merge_is_associative(self):
        function = get_aggregate("lag", 2)
        parts = []
        for chunk in (VALUES[:3], VALUES[3:4], VALUES[4:50], VALUES[50:]):
            state = function.create()
            for value in chunk:
                function.add(state, value)
            parts.append(state)
        a, b, c, d = parts
        merge = function.merge
        left = merge(merge(merge(a, b), c), d)
        right = merge(a, merge(b, merge(c, d)))
        assert function.result(left) == function.result(right) \
            == serial_result(function, VALUES)

    def test_lag_short_stream_is_null(self):
        assert serial_result(get_aggregate("lag", 5), [1, 2]) is None

    def test_lag_state_stays_bounded(self):
        function = get_aggregate("lag", 2)
        state = function.create()
        for value in range(1000):
            function.add(state, value)
        assert len(state) <= 6  # cap * 2
        assert function.result(state) == 997


def _window(aggregates, frame="UNBOUNDED"):
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "int"),
        ("d", "double")])
    sql = ("SELECT " + ", ".join(
        f"{call} OVER w AS c{i}" for i, call in enumerate(aggregates))
        + " FROM t WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE "
        f"BETWEEN {frame} PRECEDING AND CURRENT ROW)")
    catalog = {"t": schema}
    return compile_plan(build_plan(parse_select(sql), catalog),
                        catalog).windows["w"]


class TestTierDecisions:
    """The decision CompiledWindow derives from the flags."""

    def test_carry_needs_exact_merges_and_a_frame_that_never_evicts(self):
        assert _window(["sum(v)", "lag(v, 1)"]).carry_eligible
        assert not _window(["sum(v)", "drawdown(v)"]).carry_eligible
        assert not _window(["sum(v)", "ew_avg(v, 0.5)"]).carry_eligible
        assert not _window(["sum(v)"], frame="50").carry_eligible


class TestCarryChain:
    def test_chained_partitions_equal_the_plain_fold(self):
        # Each partition continues the previous one's end state, so the
        # adds run in serial order and doubles keep their bits.
        kernel = WindowKernel(_window(
            ["sum(d)", "avg(d)", "variance(d)", "stddev(d)", "lag(d, 1)"]))
        doubles = [1e16, 0.1, -1e16, 1.0, None, 0.1, 1e16, -1e16, 1.0]
        events = [(ts, ("k", ts, 0, doubles[ts % len(doubles)]), ts)
                  for ts in range(60)]
        chained, seed = [], None
        for lo, hi in ((0, 7), (7, 8), (8, 33), (33, 60)):
            emits, seed = kernel.fold(events[lo:hi], 0, seed)
            chained.extend(emits)
        assert repr(chained) == repr(kernel.fold(events)[0])

    def test_skipped_context_rows_emit_nothing(self):
        # A later skew partition starts early; its first ``skip`` rows
        # only fill the frame, so it emits what the plain fold emits
        # for its own rows.
        kernel = WindowKernel(_window(["sum(d)", "lag(d, 1)"], "4"))
        events = [(ts, ("k", ts, 0, float(ts % 7)), ts) for ts in range(40)]
        plain = kernel.fold(events)[0]
        emits, _states = kernel.fold(events[21:], 4)
        assert repr(emits) == repr(plain[25:])


class TestHistogramStateShipping:
    def test_merge_state_equals_observing_in_one_process(self):
        samples_a = [0.01, 0.5, 3.0, 200.0]
        samples_b = [0.002, 40.0]
        worker = Histogram("offline.task.ms")
        for sample in samples_a:
            worker.observe(sample)
        state = worker.state()
        assert pickle.loads(pickle.dumps(state)) == state  # wire-safe
        parent = Histogram("offline.task.ms")
        for sample in samples_b:
            parent.observe(sample)
        parent.merge_state(state)
        oracle = Histogram("offline.task.ms")
        for sample in samples_a + samples_b:
            oracle.observe(sample)
        assert parent.counts == oracle.counts
        assert parent.count == oracle.count
        assert parent.total == pytest.approx(oracle.total)
        assert (parent.min, parent.max) == (oracle.min, oracle.max)

    def test_merge_state_into_empty(self):
        worker = Histogram("offline.task.ms")
        worker.observe(1.5)
        parent = Histogram("offline.task.ms")
        parent.merge_state(worker.state())
        assert parent.count == 1
        assert parent.min == parent.max == 1.5
