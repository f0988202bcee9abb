"""Tests for plan compilation: cycle binding, caching, merged windows."""

import pytest

from repro.schema import Schema
from repro.sql.compiler import CompilationCache, compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.skiplist import ColumnBlock


@pytest.fixture
def catalog():
    stream = Schema.from_pairs([
        ("key", "string"), ("ts", "timestamp"), ("v", "double"),
        ("w", "double"), ("cat", "string"),
    ])
    return {"t": stream, "t2": stream}


def fold_rows(window, rows_newest_first):
    """``{slot: result}`` of a compiled window over plain rows, through
    the fold the engine serves with."""
    pairs = [(window.order_value(row), row) for row in rows_newest_first]
    return window.compute_blocks(
        (ColumnBlock.from_pairs(pairs, window.width),))[0]


def compiled_for(sql, catalog):
    return compile_plan(build_plan(parse_select(sql), catalog), catalog)


WINDOW_TAIL = (" FROM t WINDOW w AS (PARTITION BY key ORDER BY ts "
               "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)")


class TestCycleBinding:
    def test_sum_count_avg_share_one_state(self, catalog):
        compiled = compiled_for(
            "SELECT sum(v) OVER w AS a, count(v) OVER w AS b, "
            "avg(v) OVER w AS c" + WINDOW_TAIL, catalog)
        assert compiled.windows["w"].state_groups == 1

    def test_min_max_share_multiset(self, catalog):
        compiled = compiled_for(
            "SELECT min(v) OVER w AS a, max(v) OVER w AS b" + WINDOW_TAIL,
            catalog)
        assert compiled.windows["w"].state_groups == 1

    def test_different_columns_do_not_share(self, catalog):
        compiled = compiled_for(
            "SELECT sum(v) OVER w AS a, sum(w) OVER w AS b" + WINDOW_TAIL,
            catalog)
        assert compiled.windows["w"].state_groups == 2

    def test_distinct_count_and_topn_share(self, catalog):
        compiled = compiled_for(
            "SELECT distinct_count(cat) OVER w AS a, "
            "topn_frequency(cat, 2) OVER w AS b" + WINDOW_TAIL, catalog)
        assert compiled.windows["w"].state_groups == 1

    def test_shared_results_are_correct(self, catalog):
        compiled = compiled_for(
            "SELECT sum(v) OVER w AS a, count(v) OVER w AS b, "
            "avg(v) OVER w AS c, min(v) OVER w AS d, max(v) OVER w AS e"
            + WINDOW_TAIL, catalog)
        rows = [("k", ts, float(ts), 0.0, "c") for ts in (3, 2, 1)]
        results = fold_rows(compiled.windows["w"], rows)
        assert results[0] == 6.0
        assert results[1] == 3
        assert results[2] == 2.0
        assert results[3] == 1.0
        assert results[4] == 3.0

    def test_order_sensitive_aggregates_not_shared(self, catalog):
        compiled = compiled_for(
            "SELECT drawdown(v) OVER w AS a, ew_avg(v, 0.5) OVER w AS b"
            + WINDOW_TAIL, catalog)
        assert compiled.windows["w"].state_groups == 0
        rows = [("k", 2, 50.0, 0.0, "c"), ("k", 1, 100.0, 0.0, "c")]
        results = fold_rows(compiled.windows["w"], rows)
        assert results[0] == pytest.approx(0.5)


def shared_scans(compiled):
    """``compiled.scans`` as ``[[(name, cut), ...], ...]``."""
    return [[(name, cut) for name, _window, cut in scan]
            for scan in compiled.scans]


def two_windows(first, second, catalog, union=""):
    return compiled_for(
        "SELECT sum(v) OVER w1 AS a, sum(w) OVER w2 AS b FROM t "
        f"WINDOW w1 AS ({union}PARTITION BY key ORDER BY ts {first}), "
        f"w2 AS (PARTITION BY key ORDER BY ts {second})", catalog)


class TestMergedWindows:
    def test_identical_definitions_share_signature(self, catalog):
        compiled = two_windows(
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW",
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW", catalog)
        assert shared_scans(compiled) == [[("w1", False), ("w2", False)]]

    def test_different_frames_not_merged(self, catalog):
        # A ROWS and a ROWS_RANGE frame bound different runs.
        compiled = two_windows(
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW",
            "ROWS_RANGE BETWEEN 5s PRECEDING AND CURRENT ROW", catalog)
        assert shared_scans(compiled) == [[("w1", False)], [("w2", False)]]

    @pytest.mark.parametrize("first, second, scans", [
        # The widest of one kind is scanned, first declared or not.
        ("ROWS BETWEEN 5 PRECEDING AND CURRENT ROW",
         "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW",
         [[("w2", False), ("w1", True)]]),
        ("ROWS_RANGE BETWEEN 20s PRECEDING AND CURRENT ROW",
         "ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW MAXSIZE 3 "
         "EXCLUDE CURRENT_ROW",
         [[("w1", False), ("w2", True)]]),
        # An unbounded frame serves either kind.
        ("ROWS BETWEEN 5 PRECEDING AND CURRENT ROW",
         "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
         [[("w2", False), ("w1", True)]]),
        ("ROWS_RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
         "ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW",
         [[("w1", False), ("w2", True)]]),
    ])
    def test_nested_frames_cut_the_widest(self, catalog, first, second,
                                          scans):
        assert shared_scans(two_windows(first, second, catalog)) == scans

    def test_other_sources_scan_apart(self, catalog):
        compiled = two_windows(
            "ROWS BETWEEN 9 PRECEDING AND CURRENT ROW",
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW", catalog,
            union="UNION t2 ")
        assert shared_scans(compiled) == [[("w1", False)], [("w2", False)]]


class TestCompilationCache:
    def test_hit_on_identical_sql(self, catalog):
        cache = CompilationCache()
        sql = "SELECT sum(v) OVER w AS a" + WINDOW_TAIL
        first = cache.get_or_compile(parse_select(sql), catalog)
        second = cache.get_or_compile(parse_select(sql), catalog)
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1

    def test_miss_on_different_sql(self, catalog):
        cache = CompilationCache()
        cache.get_or_compile(parse_select(
            "SELECT sum(v) OVER w AS a" + WINDOW_TAIL), catalog)
        cache.get_or_compile(parse_select(
            "SELECT sum(w) OVER w AS a" + WINDOW_TAIL), catalog)
        assert cache.misses == 2

    def test_schema_change_invalidates(self, catalog):
        cache = CompilationCache()
        sql = "SELECT sum(v) OVER w AS a" + WINDOW_TAIL
        cache.get_or_compile(parse_select(sql), catalog)
        changed = dict(catalog)
        changed["t"] = Schema.from_pairs([
            ("key", "string"), ("ts", "timestamp"), ("v", "double"),
            ("w", "double"), ("cat", "string"), ("extra", "int"),
        ])
        cache.get_or_compile(parse_select(sql), changed)
        assert cache.misses == 2

    def test_capacity_eviction(self, catalog):
        cache = CompilationCache(capacity=2)
        sqls = [f"SELECT sum(v) OVER w AS a{i}" + WINDOW_TAIL
                for i in range(3)]
        for sql in sqls:
            cache.get_or_compile(parse_select(sql), catalog)
        # First entry evicted: re-deploying it misses again.
        cache.get_or_compile(parse_select(sqls[0]), catalog)
        assert cache.misses == 4

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            CompilationCache(capacity=0)


class TestProjection:
    def test_star_expands_joins(self, catalog):
        extra = dict(catalog)
        extra["dim"] = Schema.from_pairs([
            ("key", "string"), ("dts", "timestamp"), ("attr", "double")])
        compiled = compiled_for(
            "SELECT * FROM t LAST JOIN dim ON t.key = dim.key", extra)
        assert len(compiled.projections) == len(compiled.output_names) == 8

    def test_where_compiled(self, catalog):
        compiled = compiled_for("SELECT key FROM t WHERE v > 1.0", catalog)
        assert compiled.where_fn(("k", 1, 2.0, 0.0, "c")) is True
        assert compiled.where_fn(("k", 1, 0.5, 0.0, "c")) is False

    def test_aggregate_slot_projection(self, catalog):
        compiled = compiled_for(
            "SELECT key, sum(v) OVER w AS total" + WINDOW_TAIL, catalog)
        extended = ("k", 1, 2.0, 0.0, "c", 42.5)
        assert compiled.project(extended) == ("k", 42.5)
