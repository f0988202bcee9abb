"""Tests for plan optimisations (Sections 4.2 / 6.1): independent windows
run pooled under one ConcatJoin, and every window and LAST JOIN of a
deployed plan must be served by a declared index."""

import pytest

from repro.errors import PlanError
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan, explain, index_access_paths
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan


@pytest.fixture
def catalog():
    stream = Schema.from_pairs([
        ("k", "string"), ("j", "string"), ("ts", "timestamp"),
        ("v", "double")])
    return {
        "t": stream,
        "dim": Schema.from_pairs([
            ("k", "string"), ("dts", "timestamp"), ("attr", "double")]),
    }


MULTI = ("SELECT sum(v) OVER w1 AS a, sum(v) OVER w2 AS b FROM t WINDOW "
         "w1 AS (PARTITION BY k ORDER BY ts "
         "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
         "w2 AS (PARTITION BY j ORDER BY ts "
         "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")


INDEXES = {"t": [IndexDef(("k",), "ts"), IndexDef(("j",), "ts")]}


def explain_sql(sql, catalog):
    plan = build_plan(parse_select(sql), catalog)
    return explain(compile_plan(plan, catalog), INDEXES)


class TestParallelRewrite:
    def test_serial_chain_becomes_concat_join(self, catalog):
        rendered = explain_sql(MULTI, catalog)
        assert "ConcatJoin(w1, w2)" in rendered
        assert "SimpleProject(+index)" in rendered
        # Both windows sit side by side under the ConcatJoin, not nested.
        lines = rendered.splitlines()
        depths = {len(line) - len(line.lstrip()) for line in lines
                  if line.strip().startswith("WindowAgg(")}
        assert "WindowAgg(w1)" in rendered and "WindowAgg(w2)" in rendered
        assert depths == {4}

    def test_window_declaration_order_preserved(self, catalog):
        assert "ConcatJoin(w1, w2)" in explain_sql(MULTI, catalog)
        reversed_sql = ("SELECT sum(v) OVER w1 AS a, sum(v) OVER w2 AS b "
                        "FROM t WINDOW "
                        "w2 AS (PARTITION BY j ORDER BY ts "
                        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), "
                        "w1 AS (PARTITION BY k ORDER BY ts "
                        "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
        assert "ConcatJoin(w2, w1)" in explain_sql(reversed_sql, catalog)


class TestIndexAccessPaths:
    def test_all_paths_served(self, catalog):
        sql = ("SELECT sum(v) OVER w1 AS a, dim.attr AS x FROM t "
               "LAST JOIN dim ON t.k = dim.k WINDOW w1 AS "
               "(PARTITION BY k ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
        plan = build_plan(parse_select(sql), catalog)
        chosen = index_access_paths(plan, {
            "t": [IndexDef(("k",), "ts")],
            "dim": [IndexDef(("k",), "dts")],
        })
        assert chosen["window w1 over t"] == "idx_k_ts"
        assert chosen["last join dim"] == "idx_k_dts"

    def test_missing_window_index_rejected(self, catalog):
        plan = build_plan(parse_select(MULTI), catalog)
        with pytest.raises(PlanError, match="full scan"):
            index_access_paths(plan, {"t": [IndexDef(("k",), "ts")]})

    def test_missing_join_index_rejected(self, catalog):
        sql = ("SELECT dim.attr AS x FROM t "
               "LAST JOIN dim ON t.k = dim.k")
        plan = build_plan(parse_select(sql), catalog)
        with pytest.raises(PlanError, match="last join"):
            index_access_paths(plan, {"t": [IndexDef(("k",), "ts")],
                                      "dim": []})

    def test_union_tables_checked(self, catalog):
        extended = dict(catalog)
        extended["t2"] = catalog["t"]
        sql = ("SELECT sum(v) OVER w1 AS a FROM t WINDOW w1 AS "
               "(UNION t2 PARTITION BY k ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
        plan = build_plan(parse_select(sql), extended)
        with pytest.raises(PlanError, match="t2"):
            index_access_paths(plan, {
                "t": [IndexDef(("k",), "ts")], "t2": []})
