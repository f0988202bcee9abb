"""Tests for the built-in aggregate and scalar functions (Table 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompileError, ExecutionError
from repro.sql.functions import (SCALARS, ExactSum, aggregate_arity,
                                 get_aggregate, get_scalar, is_aggregate)


def one_shot(name, values, *constants):
    """Fold values (newest-first list of arg tuples) through an aggregate."""
    function = get_aggregate(name, *constants)
    return fold(function, [v if isinstance(v, tuple) else (v,)
                           for v in values])


def fold(function, rows_newest_first):
    """``create`` / ``add`` / ``result`` over argument tuples, oldest
    first for an order-sensitive aggregate."""
    state = function.create()
    for values in (reversed(rows_newest_first) if function.order_sensitive
                   else rows_newest_first):
        function.add(state, *values)
    return function.result(state)


class TestStandardAggregates:
    def test_sum_avg_count(self):
        values = [3.0, 1.0, 2.0]
        assert one_shot("sum", values) == 6.0
        assert one_shot("avg", values) == 2.0
        assert one_shot("count", values) == 3

    def test_nulls_skipped(self):
        values = [3.0, None, 1.0]
        assert one_shot("sum", values) == 4.0
        assert one_shot("count", values) == 2
        assert one_shot("avg", values) == 2.0

    def test_empty_window(self):
        assert one_shot("sum", []) is None
        assert one_shot("avg", []) is None
        assert one_shot("count", []) == 0
        assert one_shot("min", []) is None
        assert one_shot("max", []) is None

    def test_min_max(self):
        values = [5, 2, 9, 2]
        assert one_shot("min", values) == 2
        assert one_shot("max", values) == 9

    def test_distinct_count(self):
        assert one_shot("distinct_count", ["a", "b", "a", None]) == 2


class TestInvertibility:
    """add/remove must be exact inverses for invertible aggregates."""

    @pytest.mark.parametrize("name,values", [
        ("sum", [1.0, 2.0, 3.0]),
        ("count", [1, 2, 3]),
        ("avg", [2.0, 4.0]),
        ("min", [5, 1, 5]),
        ("max", [5, 1, 5]),
        ("distinct_count", ["a", "a", "b"]),
    ])
    def test_remove_undoes_add(self, name, values):
        function = get_aggregate(name)
        assert function.invertible
        state = function.create()
        for value in values:
            function.add(state, value)
        extra = values[0]
        function.add(state, extra)
        function.remove(state, extra)
        reference = function.create()
        for value in values:
            function.add(reference, value)
        assert function.result(state) == function.result(reference)

    def test_min_survives_duplicate_eviction(self):
        # A plain min would break when one of two equal minima leaves the
        # window; the multiset implementation must not.
        function = get_aggregate("min")
        state = function.create()
        for value in (1, 1, 5):
            function.add(state, value)
        function.remove(state, 1)
        assert function.result(state) == 1
        function.remove(state, 1)
        assert function.result(state) == 5

    def test_non_invertible_raises(self):
        function = get_aggregate("drawdown")
        with pytest.raises(ExecutionError):
            function.remove(function.create(), 1.0)


class TestMerge:
    @pytest.mark.parametrize("name,constants", [
        ("sum", ()), ("count", ()), ("avg", ()), ("min", ()), ("max", ()),
        ("distinct_count", ()), ("topn_frequency", (2,)),
    ])
    def test_merge_equals_combined(self, name, constants):
        function = get_aggregate(name, *constants)
        assert function.mergeable
        left_values = [1, 2, 2, 3]
        right_values = [3, 4]
        left = function.create()
        right = function.create()
        for value in left_values:
            function.add(left, value)
        for value in right_values:
            function.add(right, value)
        combined = function.create()
        for value in left_values + right_values:
            function.add(combined, value)
        assert function.result(function.merge(left, right)) \
            == function.result(combined)


INF, NAN = math.inf, math.nan


class TestExactSums:
    """``sum`` / ``avg`` return the IEEE double of the exact sum —
    correctly rounded, ±inf past the double range, NaN with a NaN or
    both infinities — whatever the order, grouping or evictions."""

    @pytest.mark.parametrize("values,want", [
        ([0.1, 0.2, 0.3], 0.6),  # a left-to-right `+` gives ...01
        ([1e16, 1.0, -1e16, 0.1], 1.1),
        ([1e308, 1e308], INF),
        ([-1e308, -1e308, 1.0], -INF),
        ([1e308, 1e308, -1e308], 1e308),  # exact, so no overflow
        ([INF, 1.0, 2.0], INF),
        ([INF, -INF, 1.0], NAN),
        ([NAN, 1.0], NAN),
        ([1e308, 1e308, -INF], -INF),
        ([1e308, 1e308, INF, -INF], NAN),
        ([2 ** 60, 1, 0.5], 1.152921504606847e18),
        ([-0.0, -0.0], 0.0),
        ([3, -2, 4], 5),
    ])
    def test_every_order_and_grouping_gives_the_ieee_sum(self, values, want):
        sum_agg, avg_agg = get_aggregate("sum"), get_aggregate("avg")
        for ordered in (values, values[::-1], values[1:] + values[:1]):
            state = sum_agg.create()
            for value in ordered:
                sum_agg.add(state, value)
            left, right = sum_agg.create(), sum_agg.create()
            for index, value in enumerate(ordered):
                sum_agg.add(left if index % 2 else right, value)
            merged = sum_agg.merge(left, right)
            folded = ExactSum.of(list(ordered) + [None])
            for got in (sum_agg.result(state), sum_agg.result(merged),
                        folded.total()):
                assert repr(got) == repr(want)
            assert repr(avg_agg.result(state)) \
                == repr(want / len(values))

    def test_removing_a_value_takes_it_back_exactly(self):
        function = get_aggregate("sum")
        state = function.create()
        for value in (1e16, 0.1, INF, 1.0, -INF, NAN, 3):
            function.add(state, value)
        assert repr(function.result(state)) == "nan"
        for value in (1e16, NAN, -INF):
            function.remove(state, value)
        assert function.result(state) == INF
        for value in (INF, 3):
            function.remove(state, value)
        assert repr(function.result(state)) == repr(1.1)
        for value in (0.1, 1.0):
            function.remove(state, value)
        assert function.result(state) is None

    def test_long_runs_compact_to_a_few_partials(self):
        function = get_aggregate("sum")
        state = function.create()
        values = [0.1 * (i % 7) - 0.3 for i in range(5_000)]
        for value in values:
            function.add(state, value)
        assert len(state.floats) <= 33
        assert function.result(state) == math.fsum(values)
        for value in values[:4_000]:
            function.remove(state, value)
        assert function.result(state) == math.fsum(values[4_000:])


class TestTopNFrequency:
    def test_ranked_by_count_then_key(self):
        values = ["b", "a", "b", "c", "a", "b"]
        assert one_shot("topn_frequency", values, 2) == "b,a"

    def test_tie_broken_by_key(self):
        assert one_shot("topn_frequency", ["x", "y"], 2) == "x,y"

    def test_n_larger_than_distinct(self):
        assert one_shot("topn_frequency", ["a"], 5) == "a"

    def test_arity_metadata(self):
        assert aggregate_arity("topn_frequency") == (1, 1)


class TestAvgCateWhere:
    def test_grouped_conditional_average(self):
        # (value, condition, category), oldest last in newest-first order.
        values = [
            (20.0, True, "shoes"), (10.0, False, "shoes"),
            (30.0, True, "hats"), (40.0, True, "shoes"),
        ]
        result = one_shot("avg_cate_where", values)
        assert result == "hats:30,shoes:30"

    def test_empty_result(self):
        assert one_shot("avg_cate_where", [(1.0, False, "x")]) == ""

    def test_null_category_skipped(self):
        result = one_shot("avg_cate_where", [(1.0, True, None)])
        assert result == ""

    def test_remove(self):
        function = get_aggregate("avg_cate_where")
        state = function.create()
        function.add(state, 10.0, True, "a")
        function.add(state, 30.0, True, "a")
        function.remove(state, 10.0, True, "a")
        assert function.result(state) == "a:30"


class TestWhereFamily:
    def test_sum_where(self):
        values = [(10.0, True), (5.0, False), (2.0, True)]
        assert one_shot("sum_where", values) == 12.0

    def test_count_where(self):
        values = [(1, True), (1, False), (1, True)]
        assert one_shot("count_where", values) == 2

    def test_avg_where(self):
        values = [(10.0, True), (99.0, False), (20.0, True)]
        assert one_shot("avg_where", values) == 15.0

    def test_min_max_where(self):
        values = [(10.0, True), (1.0, False), (20.0, True)]
        assert one_shot("min_where", values) == 10.0
        assert one_shot("max_where", values) == 20.0


class TestDrawdown:
    def test_basic_drawdown(self):
        # oldest→newest: 100, 120, 90, 110 → max decline (120-90)/120.
        values_newest_first = [110.0, 90.0, 120.0, 100.0]
        assert one_shot("drawdown", values_newest_first) \
            == pytest.approx(0.25)

    def test_monotone_rise_has_zero_drawdown(self):
        assert one_shot("drawdown", [30.0, 20.0, 10.0]) == 0.0

    def test_empty(self):
        assert one_shot("drawdown", []) is None

    def test_merge_crosses_segments(self):
        function = get_aggregate("drawdown")
        older = function.create()
        for value in (100.0, 120.0):  # oldest→newest
            function.add(older, value)
        newer = function.create()
        for value in (90.0, 110.0):
            function.add(newer, value)
        merged = function.merge(older, newer)
        assert function.result(merged) == pytest.approx(0.25)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                    max_size=60),
           st.integers(min_value=0, max_value=60))
    def test_merge_property(self, series, cut):
        """Splitting a series anywhere and merging equals one-shot."""
        cut = min(cut, len(series))
        function = get_aggregate("drawdown")
        whole = function.create()
        for value in series:
            function.add(whole, value)
        left = function.create()
        for value in series[:cut]:
            function.add(left, value)
        right = function.create()
        for value in series[cut:]:
            function.add(right, value)
        merged = function.merge(left, right)
        assert function.result(merged) == pytest.approx(
            function.result(whole), rel=1e-9, abs=1e-12)


class TestEwAvg:
    def test_newest_weighted(self):
        # newest-first [4, 2]; alpha=0.5 → (4·1 + 2·0.5)/(1+0.5)
        assert one_shot("ew_avg", [4.0, 2.0], 0.5) \
            == pytest.approx(10.0 / 3.0)

    def test_alpha_one_returns_newest(self):
        assert one_shot("ew_avg", [7.0, 1.0, 2.0], 1.0) == 7.0

    def test_bad_alpha(self):
        with pytest.raises(CompileError):
            get_aggregate("ew_avg", 0.0)
        with pytest.raises(CompileError):
            get_aggregate("ew_avg", 1.5)

    def test_empty(self):
        assert one_shot("ew_avg", [], 0.5) is None


class TestLag:
    def test_lag_offsets(self):
        values = [30, 20, 10]  # newest-first
        assert one_shot("lag", values, 0) == 30
        assert one_shot("lag", values, 1) == 20
        assert one_shot("lag", values, 2) == 10
        assert one_shot("lag", values, 3) is None


class TestRegistry:
    def test_is_aggregate(self):
        assert is_aggregate("sum")
        assert is_aggregate("TOPN_FREQUENCY")
        assert not is_aggregate("substr")

    def test_unknown_aggregate(self):
        with pytest.raises(CompileError):
            get_aggregate("bogus")

    def test_wrong_constant_count(self):
        with pytest.raises(CompileError):
            get_aggregate("topn_frequency")


class TestScalars:
    def test_null_propagation(self):
        assert get_scalar("abs")(None) is None
        assert get_scalar("upper")(None) is None

    def test_split_by_key(self):
        fn = get_scalar("split_by_key")
        assert fn("a:1,b:2", ",", ":") == "a,b"
        assert fn("no-delims", ",", ":") == ""
        assert fn(None, ",", ":") is None

    def test_split_by_value(self):
        assert get_scalar("split_by_value")("a:1,b:2", ",", ":") == "1,2"

    def test_substr_is_one_based(self):
        assert get_scalar("substr")("hello", 2, 3) == "ell"
        assert get_scalar("substr")("hello", 1) == "hello"

    def test_ifnull_and_coalesce(self):
        assert get_scalar("ifnull")(None, 5) == 5
        assert get_scalar("ifnull")(3, 5) == 3
        assert get_scalar("coalesce")(None, None, "x") == "x"
        assert get_scalar("coalesce")(None, None) is None

    def test_time_extractors(self):
        ts = 86_400_000 + 3 * 3_600_000 + 4 * 60_000 + 5_000
        assert get_scalar("hour")(ts) == 3
        assert get_scalar("minute")(ts) == 4
        assert get_scalar("second")(ts) == 5

    def test_dayofweek_epoch(self):
        # 1970-01-01 was a Thursday → 5 in the 1=Sunday convention.
        assert get_scalar("dayofweek")(0) == 5

    def test_math(self):
        assert get_scalar("sqrt")(9.0) == 3.0
        assert get_scalar("pow")(2.0, 10.0) == 1024.0
        assert get_scalar("floor")(2.7) == 2
        assert get_scalar("ceil")(2.1) == 3

    def test_concat(self):
        assert get_scalar("concat")("a", 1, "b") == "a1b"

    def test_unknown_scalar(self):
        with pytest.raises(CompileError):
            get_scalar("no_such_fn")

    def test_registry_covers_paper_functions(self):
        for name in ("split_by_key", "split_by_value"):
            assert name in SCALARS


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(),
                          st.floats(allow_nan=False, allow_infinity=False,
                                    min_value=-1e9, max_value=1e9)),
                max_size=60))
def test_sum_matches_python_sum(values):
    expected_values = [value for value in values if value is not None]
    expected = math.fsum(expected_values) if expected_values else None
    assert one_shot("sum", values) == expected  # correctly rounded
