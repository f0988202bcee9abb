"""Tests for the extended aggregate families (variance/stddev, *_cate)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql.functions import get_aggregate, get_scalar


def one_shot(name, values, *constants):
    function = get_aggregate(name, *constants)
    return fold(function, [v if isinstance(v, tuple) else (v,)
                           for v in values])


def fold(function, rows_newest_first):
    """``create`` / ``add`` / ``result`` over argument tuples."""
    state = function.create()
    for values in (reversed(rows_newest_first) if function.order_sensitive
                   else rows_newest_first):
        function.add(state, *values)
    return function.result(state)


class TestVarianceFamily:
    def test_variance(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert one_shot("variance", values) == pytest.approx(4.0)
        assert one_shot("stddev", values) == pytest.approx(2.0)

    def test_single_value(self):
        assert one_shot("variance", [5.0]) == 0.0

    def test_empty(self):
        assert one_shot("variance", []) is None
        assert one_shot("stddev", []) is None

    def test_invertible(self):
        function = get_aggregate("variance")
        state = function.create()
        for value in (1.0, 2.0, 3.0):
            function.add(state, value)
        function.add(state, 100.0)
        function.remove(state, 100.0)
        assert function.result(state) == pytest.approx(2.0 / 3.0)

    def test_mergeable(self):
        function = get_aggregate("stddev")
        left = function.create()
        right = function.create()
        for value in (1.0, 2.0):
            function.add(left, value)
        for value in (3.0, 4.0):
            function.add(right, value)
        whole = function.create()
        for value in (1.0, 2.0, 3.0, 4.0):
            function.add(whole, value)
        assert function.result(function.merge(left, right)) \
            == pytest.approx(function.result(whole))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1,
                    max_size=40))
    def test_variance_matches_reference(self, values):
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / len(values)
        got = one_shot("variance", values)
        assert got == pytest.approx(expected, abs=1e-6, rel=1e-6)


class TestCateFamily:
    VALUES = [(10.0, "a"), (20.0, "a"), (5.0, "b")]

    def test_sum_cate(self):
        assert one_shot("sum_cate", self.VALUES) == "a:30,b:5"

    def test_count_cate(self):
        assert one_shot("count_cate", self.VALUES) == "a:2,b:1"

    def test_avg_cate(self):
        assert one_shot("avg_cate", self.VALUES) == "a:15,b:5"

    def test_null_category_skipped(self):
        assert one_shot("sum_cate", [(1.0, None)]) == ""

    def test_remove(self):
        function = get_aggregate("sum_cate")
        state = function.create()
        function.add(state, 10.0, "a")
        function.add(state, 5.0, "a")
        function.remove(state, 10.0, "a")
        assert function.result(state) == "a:5"

    def test_merge(self):
        function = get_aggregate("count_cate")
        left = function.create()
        right = function.create()
        function.add(left, 1.0, "x")
        function.add(right, 1.0, "x")
        function.add(right, 1.0, "y")
        assert function.result(function.merge(left, right)) == "x:2,y:1"


class TestNewScalars:
    def test_logs(self):
        assert get_scalar("log2")(8.0) == 3.0
        assert get_scalar("log10")(1000.0) == 3.0

    def test_truncate(self):
        assert get_scalar("truncate")(3.99) == 3
        assert get_scalar("truncate")(-3.99) == -3

    def test_reverse(self):
        assert get_scalar("reverse")("abc") == "cba"

    def test_strcmp(self):
        assert get_scalar("strcmp")("a", "a") == 0
        assert get_scalar("strcmp")("a", "b") == -1
        assert get_scalar("strcmp")("b", "a") == 1

    def test_null_propagation(self):
        assert get_scalar("log2")(None) is None
        assert get_scalar("reverse")(None) is None


class TestEndToEndUse:
    def test_variance_in_a_window(self):
        from repro import OpenMLDB
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        for index, value in enumerate((2.0, 4.0, 4.0, 4.0)):
            db.insert("t", ("a", index * 100, value))
        db.deploy("d", (
            "SELECT stddev(v) OVER w AS sd, sum_cate(v, k) OVER w AS sc "
            "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)"))
        result = db.request("d", ("a", 1_000, 6.0))
        assert result["sd"] == pytest.approx(
            math.sqrt(1.6))  # var of [2,4,4,4,6]
        assert result["sc"] == "a:20"
