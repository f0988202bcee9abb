"""Tests for the online request-mode engine (paper Sections 3.2, 5)."""

import pytest

from repro.errors import ExecutionError
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.memtable import MemTable
from repro.online.engine import OnlineEngine


def build_engine(sql, tables):
    catalog = {name: table.schema for name, table in tables.items()}
    compiled = compile_plan(build_plan(parse_select(sql), catalog), catalog)
    return OnlineEngine(tables), compiled


@pytest.fixture
def trades():
    schema = Schema.from_pairs([
        ("sym", "string"), ("ts", "timestamp"), ("px", "double"),
        ("qty", "int"),
    ])
    table = MemTable("trades", schema, [IndexDef(("sym",), "ts")])
    for ts, px, qty in ((100, 10.0, 1), (200, 20.0, 2), (300, 30.0, 3)):
        table.insert(("A", ts, px, qty))
    table.insert(("B", 150, 99.0, 1))
    return table


class TestRowsWindows:
    SQL = ("SELECT sym, sum(px) OVER w AS total, count(px) OVER w AS n "
           "FROM trades WINDOW w AS (PARTITION BY sym ORDER BY ts "
           "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")

    def test_request_includes_current_and_preceding(self, trades):
        engine, compiled = build_engine(self.SQL, {"trades": trades})
        row = engine.execute_request(compiled, ("A", 400, 40.0, 4))
        assert row == ("A", 70.0, 2)  # request 40 + newest stored 30

    def test_keys_isolated(self, trades):
        engine, compiled = build_engine(self.SQL, {"trades": trades})
        row = engine.execute_request(compiled, ("B", 400, 1.0, 1))
        assert row == ("B", 100.0, 2)

    def test_unknown_key_sees_only_request(self, trades):
        engine, compiled = build_engine(self.SQL, {"trades": trades})
        row = engine.execute_request(compiled, ("ZZZ", 400, 5.0, 1))
        assert row == ("ZZZ", 5.0, 1)

    def test_request_ts_bounds_window(self, trades):
        # A request "in the past" must not see newer stored rows.
        engine, compiled = build_engine(self.SQL, {"trades": trades})
        row = engine.execute_request(compiled, ("A", 150, 1.0, 1))
        assert row == ("A", 11.0, 2)  # request + the ts=100 row only


class TestRangeWindows:
    SQL = ("SELECT sym, sum(px) OVER w AS total FROM trades WINDOW w AS "
           "(PARTITION BY sym ORDER BY ts "
           "ROWS_RANGE BETWEEN 150 PRECEDING AND CURRENT ROW)")

    def test_range_window(self, trades):
        engine, compiled = build_engine(self.SQL, {"trades": trades})
        row = engine.execute_request(compiled, ("A", 350, 5.0, 1))
        # horizon 200: rows at ts 200, 300 + request.
        assert row == ("A", 55.0)

    def test_range_inclusive_bound(self, trades):
        engine, compiled = build_engine(self.SQL, {"trades": trades})
        row = engine.execute_request(compiled, ("A", 250, 5.0, 1))
        # horizon 100 inclusive: rows 100, 200 + request.
        assert row == ("A", 35.0)


class TestWindowAttributes:
    def test_exclude_current_row(self, trades):
        sql = ("SELECT sum(px) OVER w AS total FROM trades WINDOW w AS "
               "(PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW "
               "EXCLUDE CURRENT_ROW)")
        engine, compiled = build_engine(sql, {"trades": trades})
        row = engine.execute_request(compiled, ("A", 400, 1000.0, 1))
        assert row == (50.0,)  # 20 + 30, request excluded

    def test_maxsize_caps_window(self, trades):
        sql = ("SELECT count(px) OVER w AS n FROM trades WINDOW w AS "
               "(PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 100 PRECEDING AND CURRENT ROW MAXSIZE 2)")
        engine, compiled = build_engine(sql, {"trades": trades})
        row = engine.execute_request(compiled, ("A", 400, 1.0, 1))
        assert row == (2,)


class TestWindowUnionRequests:
    def test_union_merges_tables(self, trades):
        schema = trades.schema
        orders = MemTable("orders", schema, [IndexDef(("sym",), "ts")])
        orders.insert(("A", 250, 7.0, 1))
        sql = ("SELECT sum(px) OVER w AS total FROM trades WINDOW w AS "
               "(UNION orders PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 200 PRECEDING AND CURRENT ROW)")
        engine, compiled = build_engine(
            sql, {"trades": trades, "orders": orders})
        row = engine.execute_request(compiled, ("A", 350, 5.0, 1))
        # horizon 150: trades 200, 300 + orders 250 + request.
        assert row == (62.0,)

    def test_instance_not_in_window(self, trades):
        schema = trades.schema
        orders = MemTable("orders", schema, [IndexDef(("sym",), "ts")])
        orders.insert(("A", 250, 7.0, 1))
        sql = ("SELECT sum(px) OVER w AS total FROM trades WINDOW w AS "
               "(UNION orders PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 500 PRECEDING AND CURRENT ROW "
               "INSTANCE_NOT_IN_WINDOW)")
        engine, compiled = build_engine(
            sql, {"trades": trades, "orders": orders})
        row = engine.execute_request(compiled, ("A", 350, 1000.0, 1))
        # Stored trades rows are excluded; the union row and the request
        # itself participate.
        assert row == (1007.0,)


class TestLastJoin:
    @pytest.fixture
    def profile(self):
        schema = Schema.from_pairs([
            ("sym", "string"), ("uts", "timestamp"), ("sector", "string"),
        ])
        table = MemTable("profile", schema, [IndexDef(("sym",), "uts")])
        table.insert(("A", 10, "old-tech"))
        table.insert(("A", 20, "tech"))
        return table

    def test_newest_match(self, trades, profile):
        sql = ("SELECT trades.sym AS sym, profile.sector AS sector "
               "FROM trades LAST JOIN profile ORDER BY uts "
               "ON trades.sym = profile.sym")
        engine, compiled = build_engine(
            sql, {"trades": trades, "profile": profile})
        row = engine.execute_request(compiled, ("A", 400, 1.0, 1))
        assert row == ("A", "tech")

    def test_miss_pads_nulls(self, trades, profile):
        sql = ("SELECT trades.sym AS sym, profile.sector AS sector "
               "FROM trades LAST JOIN profile ON trades.sym = profile.sym")
        engine, compiled = build_engine(
            sql, {"trades": trades, "profile": profile})
        row = engine.execute_request(compiled, ("NOPE", 400, 1.0, 1))
        assert row == ("NOPE", None)

    def test_residual_condition(self, trades, profile):
        sql = ("SELECT trades.sym AS sym, profile.sector AS sector "
               "FROM trades LAST JOIN profile ON trades.sym = profile.sym "
               "AND profile.sector = 'old-tech'")
        engine, compiled = build_engine(
            sql, {"trades": trades, "profile": profile})
        row = engine.execute_request(compiled, ("A", 400, 1.0, 1))
        assert row == ("A", "old-tech")

    @pytest.mark.parametrize("depth", [1, 32, 33, 256, 257, 400])
    def test_residual_hit_at_any_depth(self, trades, profile, depth):
        # The walk fetches a growing newest-first prefix (32, 256, …):
        # a match behind `depth - 1` newer non-matching candidates is
        # found, each candidate is probed once, and a key with no
        # match at all pads NULLs.
        for uts in range(21, 20 + depth):
            profile.insert(("A", uts, "noise"))
        sql = ("SELECT trades.sym AS sym, profile.uts AS uts "
               "FROM trades LAST JOIN profile ON trades.sym = profile.sym "
               "AND profile.sector = '{}'")
        tables = {"trades": trades, "profile": profile}
        engine, compiled = build_engine(sql.format("tech"), tables)
        assert engine.execute_request(
            compiled, ("A", 400, 1.0, 1)) == ("A", 20)
        assert engine.stats.rows_scanned == depth
        engine, compiled = build_engine(sql.format("absent"), tables)
        assert engine.execute_request(
            compiled, ("A", 400, 1.0, 1)) == ("A", None)
        assert engine.stats.rows_scanned == depth + 1

    def test_join_column_in_window_argument(self, trades, profile):
        # Aggregates reference only the primary table; joined columns in
        # the projection coexist with window features.
        sql = ("SELECT sum(px) OVER w AS total, profile.sector AS s "
               "FROM trades LAST JOIN profile ON trades.sym = profile.sym "
               "WINDOW w AS (PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)")
        engine, compiled = build_engine(
            sql, {"trades": trades, "profile": profile})
        row = engine.execute_request(compiled, ("A", 400, 40.0, 1))
        assert row == (100.0, "tech")


class TestWhereAndValidation:
    def test_where_filters_request(self, trades):
        sql = "SELECT sym FROM trades WHERE qty > 5"
        engine, compiled = build_engine(sql, {"trades": trades})
        assert engine.execute_request(compiled, ("A", 1, 1.0, 6)) == ("A",)
        with pytest.raises(ExecutionError):
            engine.execute_request(compiled, ("A", 1, 1.0, 1))

    def test_request_row_validated(self, trades):
        sql = "SELECT sym FROM trades"
        engine, compiled = build_engine(sql, {"trades": trades})
        with pytest.raises(Exception):
            engine.execute_request(compiled, ("A", "bad-ts", 1.0, 1))


class TestSharedWindowFetch:
    def test_identical_windows_fetch_once(self, trades):
        sql = ("SELECT sum(px) OVER w1 AS a, max(px) OVER w2 AS b "
               "FROM trades WINDOW "
               "w1 AS (PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW), "
               "w2 AS (PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)")
        engine, compiled = build_engine(sql, {"trades": trades})
        engine.execute_request(compiled, ("A", 400, 40.0, 1))
        # 3 stored rows scanned once, not twice.
        assert engine.stats.rows_scanned == 3

    def test_stats_accumulate(self, trades):
        sql = ("SELECT sum(px) OVER w AS a FROM trades WINDOW w AS "
               "(PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)")
        engine, compiled = build_engine(sql, {"trades": trades})
        engine.execute_request(compiled, ("A", 400, 1.0, 1))
        engine.execute_request(compiled, ("A", 400, 1.0, 1))
        assert engine.stats.requests == 2
