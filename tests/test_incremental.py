"""Tests for subtract-and-evict sliding aggregation (Section 5.2)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.online.incremental import SlidingWindowAggregator
from repro.sql.functions import get_aggregate


def make(functions=(("sum", ()),), range_ms=None, max_rows=None):
    extractors = [lambda row: (row,)] * len(functions)
    return SlidingWindowAggregator(
        [get_aggregate(name, *constants) for name, constants in functions],
        extractors, range_ms=range_ms, max_rows=max_rows)


class TestTimeWindow:
    def test_rolling_sum(self):
        aggregator = make(range_ms=100)
        aggregator.insert(0, 1.0)
        aggregator.insert(50, 2.0)
        assert aggregator.results() == [3.0]
        aggregator.insert(140, 4.0)  # evicts ts=0 (horizon 40)
        assert aggregator.results() == [6.0]
        aggregator.insert(300, 1.0)  # evicts everything else
        assert aggregator.results() == [1.0]

    def test_horizon_is_inclusive(self):
        aggregator = make(range_ms=100)
        aggregator.insert(0, 1.0)
        aggregator.insert(100, 2.0)  # horizon exactly 0: ts=0 stays
        assert aggregator.results() == [3.0]


class TestCountWindow:
    def test_max_rows(self):
        aggregator = make(max_rows=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            aggregator.insert(value, value)
        assert aggregator.results() == [9.0]  # 2+3+4
        assert len(aggregator) == 3


class TestMultipleFunctions:
    def test_mixed_functions(self):
        aggregator = SlidingWindowAggregator(
            [get_aggregate(name) for name in ("sum", "max", "count")],
            [lambda row: (row,)] * 3, max_rows=2)
        aggregator.insert(1, 5.0)
        aggregator.insert(2, 1.0)
        aggregator.insert(3, 3.0)
        assert aggregator.results() == [4.0, 3.0, 2]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowAggregator([get_aggregate("sum")], [])


def count_refolds(aggregator):
    """Record each refold of ``aggregator`` (an aggregate recomputed
    over the buffer instead of read off its running state)."""
    calls = []
    refold = aggregator._refold

    def counted(*args):
        calls.append(args)
        return refold(*args)

    aggregator._refold = counted
    return calls


def refold(name, constants, values):
    function = get_aggregate(name, *constants)
    state = function.create()
    for value in values:
        function.add(state, value)
    return function.result(state)


class TestDirtyFallback:
    def test_order_sensitive_recomputed(self):
        aggregator = make((("drawdown", ()),), max_rows=10)
        refolds = count_refolds(aggregator)
        for ts, value in enumerate((100.0, 120.0, 90.0)):
            aggregator.insert(ts, value)
        assert aggregator.results() == [pytest.approx(0.25)]
        assert len(refolds) >= 1

    def test_invertible_does_not_recompute(self):
        aggregator = make(range_ms=10)
        refolds = count_refolds(aggregator)
        for ts in range(5):
            aggregator.insert(ts, 1.0)
        assert aggregator.results() == [5.0]
        assert refolds == []


class TestDemotion:
    """A frame that never evicts folds ``lag`` incrementally until an
    arrival breaks that: then it refolds, and still answers as one."""

    LAG = (("lag", (1,)),)

    def test_out_of_order_insert_demotes_lag(self):
        aggregator = make(self.LAG)
        refolds = count_refolds(aggregator)
        aggregator.insert(10, 1.0)
        aggregator.insert(20, 2.0)
        assert aggregator.results() == [1.0]
        assert refolds == []
        aggregator.insert(15, 3.0)     # sorts between the two
        assert repr(aggregator.results()) \
            == repr([refold("lag", (1,), [1.0, 3.0, 2.0])])
        assert len(refolds) == 1

    def test_results_with_demotes_lag(self):
        aggregator = make(self.LAG)
        refolds = count_refolds(aggregator)
        aggregator.insert(10, 1.0)
        aggregator.insert(20, 2.0)
        assert aggregator.results() == [1.0]
        assert refolds == []
        assert repr(aggregator.results_with(5.0)) \
            == repr([refold("lag", (1,), [1.0, 2.0, 5.0])])
        # The transient row is gone again, and lag stays demoted.
        assert repr(aggregator.results()) \
            == repr([refold("lag", (1,), [1.0, 2.0])])
        assert len(refolds) == 2


class TestEvictTo:
    def test_explicit_eviction(self):
        aggregator = make(range_ms=100)
        aggregator.insert(0, 1.0)
        aggregator.insert(90, 2.0)
        aggregator.evict_to(200)  # horizon 100 → ts 0 and 90 leave
        assert aggregator.results() == [None]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000),
                          st.floats(-100, 100, allow_nan=False)),
                min_size=1, max_size=80),
       st.integers(10, 200))
def test_incremental_equals_recompute(events, range_ms):
    """Property: subtract-and-evict == full recomputation, always."""
    events = sorted(events, key=lambda pair: pair[0])
    aggregator = SlidingWindowAggregator(
        [get_aggregate(name) for name in ("sum", "min", "max", "count")],
        [lambda row: (row,)] * 4, range_ms=range_ms)
    for index, (ts, value) in enumerate(events):
        aggregator.insert(ts, value)
        now = ts
        window = [v for t, v in events[:index + 1]
                  if t >= now - range_ms]
        got = aggregator.results()
        assert got[0] == math.fsum(window)  # exact, not approximately
        assert got[1] == min(window)
        assert got[2] == max(window)
        assert got[3] == len(window)
