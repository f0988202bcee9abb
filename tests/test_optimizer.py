"""Tests for plan rewrites (Sections 4.2 / 6.1)."""

import pytest

from repro.errors import PlanError
from repro.schema import IndexDef, Schema
from repro.sql.optimizer import (explain_optimized, index_access_paths,
                                 rewrite_parallel_windows)
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


class TestParallelRewrite:
    def test_serial_chain_becomes_concat_join(self, catalog):
        plan = build_plan(parse_select(MULTI), catalog)
        rendered = explain_optimized(plan)
        assert "ConcatJoin(w1, w2)" in rendered
        assert "SimpleProject(+index)" in rendered
        # The serial form had nested WindowAggs; the rewrite flattens.
        assert "WindowAgg(w1)" in rendered and "WindowAgg(w2)" in rendered

    def test_single_window_untouched(self, catalog):
        sql = ("SELECT sum(v) OVER w1 AS a FROM t WINDOW w1 AS "
               "(PARTITION BY k ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
        plan = build_plan(parse_select(sql), catalog)
        assert rewrite_parallel_windows(plan.tree) is plan.tree

    def test_window_declaration_order_preserved(self, catalog):
        plan = build_plan(parse_select(MULTI), catalog)
        concat = rewrite_parallel_windows(plan.tree).children[0]
        assert concat.windows == ("w1", "w2")

    def test_original_tree_not_mutated(self, catalog):
        plan = build_plan(parse_select(MULTI), catalog)
        before = plan.explain()
        rewrite_parallel_windows(plan.tree)
        assert plan.explain() == before


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
