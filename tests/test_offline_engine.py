"""Tests for the offline batch engine (paper Section 6)."""

import pytest

from tests.conftest import rows_equal
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.memtable import MemTable
from repro.offline.engine import OfflineEngine
from repro.offline.skew import SkewConfig


def build(sql, tables, workers=4):
    catalog = {name: table.schema for name, table in tables.items()}
    compiled = compile_plan(build_plan(parse_select(sql), catalog), catalog)
    return OfflineEngine(tables, workers=workers), compiled


@pytest.fixture
def trades():
    schema = Schema.from_pairs([
        ("sym", "string"), ("ts", "timestamp"), ("px", "double"),
    ])
    table = MemTable("trades", schema, [IndexDef(("sym",), "ts")])
    for sym, ts, px in (("A", 100, 10.0), ("B", 150, 5.0),
                        ("A", 200, 20.0), ("A", 300, 30.0),
                        ("B", 350, 15.0)):
        table.insert((sym, ts, px))
    return table


ROLLING = ("SELECT sym, sum(px) OVER w AS total FROM trades WINDOW w AS "
           "(PARTITION BY sym ORDER BY ts "
           "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")


class TestBatchSemantics:
    def test_one_output_per_anchor(self, trades):
        engine, compiled = build(ROLLING, {"trades": trades})
        rows, stats = engine.execute(compiled)
        assert len(rows) == 5
        assert stats.rows == 5

    def test_rolling_window_values(self, trades):
        engine, compiled = build(ROLLING, {"trades": trades})
        rows, _ = engine.execute(compiled)
        # Insertion order: A@100, B@150, A@200, A@300, B@350.
        assert rows == [("A", 10.0), ("B", 5.0), ("A", 30.0),
                        ("A", 50.0), ("B", 20.0)]

    def test_range_window(self, trades):
        sql = ("SELECT sym, count(px) OVER w AS n FROM trades WINDOW w AS "
               "(PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)")
        engine, compiled = build(sql, {"trades": trades})
        rows, _ = engine.execute(compiled)
        assert rows == [("A", 1), ("B", 1), ("A", 2), ("A", 2), ("B", 1)]

    def test_where_filters_output_not_window_content(self, trades):
        sql = ("SELECT sym, sum(px) OVER w AS total FROM trades "
               "WHERE px > 9.0 WINDOW w AS "
               "(PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
        engine, compiled = build(sql, {"trades": trades})
        rows, _ = engine.execute(compiled)
        # B@150 (px 5.0) is filtered from the *output*, but B@350's
        # window still contains it — matching online semantics where
        # stored rows are never WHERE-filtered.
        assert rows == [("A", 10.0), ("A", 30.0), ("A", 50.0),
                        ("B", 20.0)]

    def test_limit(self, trades):
        engine, compiled = build(ROLLING + " LIMIT 2", {"trades": trades})
        rows, _ = engine.execute(compiled)
        assert len(rows) == 2

    def test_limit_zero_returns_nothing(self, trades):
        # Regression: both projection loops appended a row before
        # checking the limit, so LIMIT 0 returned one row.
        from repro.baselines import SparkBatchEngine
        sql = ROLLING + " LIMIT 0"
        engine, compiled = build(sql, {"trades": trades})
        rows, _ = engine.execute(compiled)
        assert rows == []
        spark = SparkBatchEngine(sql, {"trades": trades.schema})
        spark.load("trades", trades.rows())
        spark_rows, _ = spark.run()
        assert spark_rows == []

    def test_last_join(self, trades):
        dim_schema = Schema.from_pairs([
            ("sym", "string"), ("dts", "timestamp"), ("sector", "string")])
        dim = MemTable("dim", dim_schema, [IndexDef(("sym",), "dts")])
        dim.insert(("A", 1, "tech"))
        sql = ("SELECT trades.sym AS s, dim.sector AS sec FROM trades "
               "LAST JOIN dim ON trades.sym = dim.sym")
        engine, compiled = build(sql, {"trades": trades, "dim": dim})
        rows, stats = engine.execute(compiled)
        assert rows[0] == ("A", "tech")
        assert rows[1] == ("B", None)
        assert stats.join_seconds >= 0

    def test_window_union_context_rows(self, trades):
        orders = MemTable("orders", trades.schema,
                          [IndexDef(("sym",), "ts")])
        orders.insert(("A", 250, 100.0))
        sql = ("SELECT sym, sum(px) OVER w AS total FROM trades WINDOW w "
               "AS (UNION orders PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)")
        engine, compiled = build(sql, {"trades": trades, "orders": orders})
        rows, _ = engine.execute(compiled)
        # A@300 sees A@200 (trades) + A@250 (orders) + itself.
        assert ("A", 150.0) in rows
        # The union row itself never emits an output.
        assert len(rows) == 5

    def test_exclude_current_row(self, trades):
        sql = ("SELECT sym, sum(px) OVER w AS total FROM trades WINDOW w "
               "AS (PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW "
               "EXCLUDE CURRENT_ROW)")
        engine, compiled = build(sql, {"trades": trades})
        rows, _ = engine.execute(compiled)
        assert rows[0] == ("A", None)   # nothing precedes A@100
        assert rows[3] == ("A", 30.0)   # A@300 sees 10+20


class TestParallelWindows:
    WINDOWS = ("FROM trades WINDOW "
               "w1 AS (PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
               "w2 AS (PARTITION BY sym ORDER BY ts "
               "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")
    MULTI = "SELECT sym, sum(px) OVER w1 AS a, count(px) OVER w2 AS b " \
        + WINDOWS

    def test_parallel_equals_serial(self, trades):
        # The pooled run realigns each window's column on the anchor
        # index: it equals that window run on its own.
        engine, compiled = build(self.MULTI, {"trades": trades})
        rows, _ = engine.execute(compiled)
        for position, item in ((1, "sum(px) OVER w1"),
                               (2, "count(px) OVER w2")):
            _, alone = build(f"SELECT sym, {item} AS x {self.WINDOWS}",
                             {"trades": trades})
            assert rows_equal([(row[0], row[position]) for row in rows],
                              engine.execute(alone)[0])

    def test_parallel_makespan_not_worse(self):
        # Pooled scheduling must not lose to staged window barriers.
        # Both schedules are evaluated over the SAME measured task
        # times (one run), so timer noise between runs cannot flip the
        # comparison — this checks the makespan model, not the clock.
        schema = Schema.from_pairs([
            ("sym", "string"), ("ts", "timestamp"), ("px", "double")])
        table = MemTable("trades", schema, [IndexDef(("sym",), "ts")])
        for key in range(3):
            for index in range(400):
                table.insert((f"s{key}", index * 10, float(index % 7)))
        engine, compiled = build(self.MULTI, {"trades": table})
        _, stats = engine.execute(compiled)
        assert stats.parallel_seconds <= stats.staged_seconds + 1e-9

    def test_task_accounting(self, trades):
        engine, compiled = build(self.MULTI, {"trades": trades})
        _, stats = engine.execute(compiled)
        # Two windows × two keys = four tasks.
        assert stats.tasks == 4
        assert len(stats.window_seconds) == 2


class TestSkewResolving:
    def _skewed_table(self):
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        table = MemTable("t", schema, [IndexDef(("k",), "ts")])
        for index in range(600):
            table.insert(("hot", index * 10, float(index % 7)))
        for index in range(20):
            table.insert((f"cold{index}", index * 10, 1.0))
        return table

    SQL = ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
           "WINDOW w AS (PARTITION BY k ORDER BY ts "
           "ROWS_RANGE BETWEEN 500 PRECEDING AND CURRENT ROW)")

    def test_skew_results_exact(self):
        table = self._skewed_table()
        engine, compiled = build(self.SQL, {"t": table})
        plain_rows, plain_stats = engine.execute(compiled)
        skew_rows, stats = engine.execute(
            compiled, skew=SkewConfig(quantile=4, min_partition_rows=50))
        assert rows_equal(plain_rows, skew_rows)
        # The hot key really was split, and the answers match bit for bit.
        assert stats.tasks > plain_stats.tasks
        assert repr(skew_rows) == repr(plain_rows)

    def test_skew_increases_task_count(self):
        table = self._skewed_table()
        engine, compiled = build(self.SQL, {"t": table})
        _, plain_stats = engine.execute(compiled)
        _, skew_stats = engine.execute(
            compiled, skew=SkewConfig(quantile=4, min_partition_rows=50))
        assert skew_stats.tasks > plain_stats.tasks

    def test_skew_reduces_straggler(self):
        table = self._skewed_table()
        engine, compiled = build(self.SQL, {"t": table}, workers=8)
        _, plain_stats = engine.execute(compiled)
        _, skew_stats = engine.execute(
            compiled, skew=SkewConfig(quantile=4, min_partition_rows=50))
        assert max(skew_stats.task_seconds) < max(plain_stats.task_seconds)

    def test_rows_frame_with_skew(self):
        table = self._skewed_table()
        sql = ("SELECT k, sum(v) OVER w AS s FROM t WINDOW w AS "
               "(PARTITION BY k ORDER BY ts "
               "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)")
        engine, compiled = build(sql, {"t": table})
        plain_rows, _ = engine.execute(compiled)
        skew_rows, _ = engine.execute(
            compiled, skew=SkewConfig(quantile=3, min_partition_rows=50))
        assert rows_equal(plain_rows, skew_rows)


class TestExecutionModes:
    def test_single_window_never_reports_parallel_windows(self, trades):
        # One window has nothing to pool: both schedules are one stage.
        engine, compiled = build(ROLLING, {"trades": trades})
        _, stats = engine.execute(compiled)
        assert stats.parallel_seconds == stats.staged_seconds

    def test_spill_stats_surface(self, trades):
        from repro.offline import SpillConfig
        engine, compiled = build(ROLLING, {"trades": trades})
        plain, _ = engine.execute(compiled)
        rows, stats = engine.execute(
            compiled, spill=SpillConfig(memory_budget_bytes=128))
        assert rows_equal(rows, plain)
        assert stats.shuffle["rows"] == 5
        assert stats.shuffle["runs"] >= 1
        assert stats.shuffle["spilled_rows"] > 0

    def test_carry_tasks_counted_for_eligible_frames(self):
        from repro.offline import SkewConfig
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "int")])
        table = MemTable("t", schema, [IndexDef(("k",), "ts")])
        for index in range(200):
            table.insert(("hot", index * 10, index % 9))
        sql = ("SELECT k, sum(v) OVER w AS s FROM t WINDOW w AS "
               "(PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN "
               "UNBOUNDED PRECEDING AND CURRENT ROW)")
        engine, compiled = build(sql, {"t": table})
        plain, _ = engine.execute(compiled)
        skew = SkewConfig(quantile=4, min_partition_rows=20)
        rows, stats = engine.execute(compiled, skew=skew)
        assert rows_equal(rows, plain)
        assert stats.carry_tasks == 4
        # Bounded frames are not carry-eligible: expansion instead.
        bounded_sql = sql.replace("UNBOUNDED", "50")
        engine2, compiled2 = build(bounded_sql, {"t": table})
        _, bounded_stats = engine2.execute(compiled2, skew=skew)
        assert bounded_stats.carry_tasks == 0


class TestStats:
    def test_workers_validated(self, trades):
        with pytest.raises(Exception):
            OfflineEngine({"trades": trades}, workers=0)

    def test_stat_totals(self, trades):
        engine, compiled = build(ROLLING, {"trades": trades})
        _, stats = engine.execute(compiled)
        assert stats.total_parallel_seconds >= stats.parallel_seconds
