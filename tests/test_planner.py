"""Tests for logical planning (planner.py)."""

import pytest

from repro.errors import PlanError
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan, explain
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan


@pytest.fixture
def catalog():
    stream = Schema.from_pairs([
        ("key", "string"), ("ts", "timestamp"), ("v", "double"),
        ("q", "int"), ("cat", "string"),
    ])
    return {
        "t": stream,
        "t2": stream,
        "dim": Schema.from_pairs([
            ("key", "string"), ("dts", "timestamp"), ("attr", "double")]),
    }


def plan_sql(sql, catalog):
    return build_plan(parse_select(sql), catalog)


WINDOWED = ("SELECT key, sum(v) OVER w AS s, sum(v) OVER w AS s2, "
            "avg(v) OVER w AS m FROM t WINDOW w AS "
            "(PARTITION BY key ORDER BY ts "
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)")


class TestWindowPlanning:
    def test_rows_frame_normalised(self, catalog):
        plan = plan_sql(WINDOWED, catalog)
        window = plan.windows["w"]
        assert window.rows_preceding == 10  # 9 preceding + current
        assert window.range_preceding_ms is None
        assert not window.is_range_frame

    def test_range_frame_normalised(self, catalog):
        plan = plan_sql(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY key ORDER BY ts "
            "ROWS_RANGE BETWEEN 2h PRECEDING AND CURRENT ROW)", catalog)
        window = plan.windows["w"]
        assert window.range_preceding_ms == 7_200_000
        assert window.rows_preceding is None

    def test_unbounded_frame(self, catalog):
        plan = plan_sql(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY key ORDER BY ts "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)", catalog)
        window = plan.windows["w"]
        assert window.rows_preceding is None
        assert window.range_preceding_ms is None

    def test_identical_calls_merged(self, catalog):
        plan = plan_sql(WINDOWED, catalog)
        # sum(v) appears twice but is bound once (Section 4.2 parsing opt).
        names = [binding.func_name
                 for binding in plan.windows["w"].aggregates]
        assert names == ["sum", "avg"]

    def test_slots_are_dense(self, catalog):
        plan = plan_sql(WINDOWED, catalog)
        slots = sorted(binding.slot
                       for binding in plan.windows["w"].aggregates)
        assert slots == [0, 1]

    def test_constants_split(self, catalog):
        plan = plan_sql(
            "SELECT topn_frequency(cat, 3) OVER w AS t3 FROM t WINDOW w "
            "AS (PARTITION BY key ORDER BY ts "
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)", catalog)
        binding = plan.windows["w"].aggregates[0]
        assert binding.constants == (3,)
        assert len(binding.value_args) == 1

    def test_non_literal_constant_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan_sql(
                "SELECT topn_frequency(cat, q) OVER w AS x FROM t WINDOW "
                "w AS (PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)", catalog)

    def test_aggregate_without_over_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan_sql("SELECT sum(v) AS s FROM t", catalog)

    def test_unknown_window_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan_sql("SELECT sum(v) OVER nope AS s FROM t", catalog)

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan_sql(
                "SELECT key FROM t WHERE sum(v) OVER w > 3 WINDOW w AS "
                "(PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)", catalog)

    def test_frame_must_end_at_current_row(self, catalog):
        with pytest.raises(PlanError):
            plan_sql(
                "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
                "(PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 5 PRECEDING AND 2 PRECEDING)", catalog)

    def test_unknown_partition_column(self, catalog):
        with pytest.raises(PlanError):
            plan_sql(
                "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
                "(PARTITION BY ghost ORDER BY ts "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)", catalog)


class TestUnionPlanning:
    def test_union_tables_recorded(self, catalog):
        plan = plan_sql(
            "SELECT count(v) OVER w AS c FROM t WINDOW w AS "
            "(UNION t2 PARTITION BY key ORDER BY ts "
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)", catalog)
        assert plan.windows["w"].union_tables == ("t2",)

    def test_union_requires_compatible_schema(self, catalog):
        with pytest.raises(PlanError, match="union-compatible"):
            plan_sql(
                "SELECT count(v) OVER w AS c FROM t WINDOW w AS "
                "(UNION dim PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)", catalog)

    def test_union_unknown_table(self, catalog):
        with pytest.raises(PlanError):
            plan_sql(
                "SELECT count(v) OVER w AS c FROM t WINDOW w AS "
                "(UNION ghost PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)", catalog)


class TestJoinPlanning:
    def test_eq_keys_extracted(self, catalog):
        plan = plan_sql(
            "SELECT key, dim.attr AS a FROM t "
            "LAST JOIN dim ORDER BY dts ON t.key = dim.key", catalog)
        join = plan.joins[0]
        assert join.eq_keys[0][1] == "key"
        assert join.residual is None
        assert join.order_by == "dts"

    def test_reversed_equality_normalised(self, catalog):
        plan = plan_sql(
            "SELECT key FROM t LAST JOIN dim ON dim.key = t.key", catalog)
        assert plan.joins[0].eq_keys[0][1] == "key"

    def test_residual_preserved(self, catalog):
        plan = plan_sql(
            "SELECT key FROM t LAST JOIN dim "
            "ON t.key = dim.key AND dim.attr > 0.5", catalog)
        join = plan.joins[0]
        assert len(join.eq_keys) == 1
        assert join.residual is not None

    def test_no_equality_rejected(self, catalog):
        with pytest.raises(PlanError, match="equality"):
            plan_sql(
                "SELECT key FROM t LAST JOIN dim ON dim.attr > 0.5",
                catalog)

    def test_unknown_join_table(self, catalog):
        with pytest.raises(PlanError):
            plan_sql("SELECT key FROM t LAST JOIN ghost ON t.key = ghost.k",
                     catalog)


class TestOutputNames:
    def test_aliases_and_defaults(self, catalog):
        plan = plan_sql("SELECT key, v AS price, v + 1 FROM t", catalog)
        assert plan.output_names == ("key", "price", "expr_2")

    def test_star_expansion(self, catalog):
        plan = plan_sql("SELECT * FROM t", catalog)
        assert plan.output_names == ("key", "ts", "v", "q", "cat")

    def test_qualified_star_for_join(self, catalog):
        plan = plan_sql(
            "SELECT dim.* FROM t LAST JOIN dim ON t.key = dim.key",
            catalog)
        assert plan.output_names == ("key", "dts", "attr")

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(PlanError):
            plan_sql("SELECT key FROM nope", catalog)


class TestPlanTree:
    def test_serial_tree_shape(self, catalog):
        plan = plan_sql(
            "SELECT sum(v) OVER w1 AS a, sum(q) OVER w2 AS b, dim.attr AS x "
            "FROM t LAST JOIN dim ON t.key = dim.key WINDOW "
            "w1 AS (PARTITION BY key ORDER BY ts "
            "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
            "w2 AS (PARTITION BY cat ORDER BY ts "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)", catalog)
        rendered = explain(compile_plan(plan, catalog), {
            "t": [IndexDef(("key",), "ts"), IndexDef(("cat",), "ts")],
            "dim": [IndexDef(("key",), "dts")]})
        assert "WindowAgg(w1)" in rendered
        assert "WindowAgg(w2)" in rendered
        # The operator chain: Project over the windows, then the join,
        # then the provider, one operator a line under the projection.
        operators = [line.split("(")[0].strip()
                     for line in rendered.splitlines()
                     if len(line) - len(line.lstrip()) <= 2]
        assert operators == ["Project", "ConcatJoin", "LastJoin",
                             "DataProvider"]
        assert rendered.splitlines()[-2].strip().startswith("LastJoin(dim)")
        assert rendered.splitlines()[-1] == "  DataProvider(t)"


class TestAggregateRegistryErrors:
    def test_unknown_aggregate_is_a_plan_error(self, catalog):
        with pytest.raises(PlanError, match="unknown aggregate"):
            plan_sql(
                "SELECT nosuch(v) OVER w AS s FROM t WINDOW w AS "
                "(PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)", catalog)

    def test_registry_bugs_are_not_masked_as_unknown(self, catalog,
                                                     monkeypatch):
        """A broken registry (any non-CompileError) must propagate —
        the planner only translates the unknown-name signal."""
        def broken(name):
            raise RuntimeError("registry exploded")

        monkeypatch.setattr("repro.sql.functions.aggregate_arity", broken)
        with pytest.raises(RuntimeError, match="registry exploded"):
            plan_sql(
                "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
                "(PARTITION BY key ORDER BY ts "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)", catalog)
