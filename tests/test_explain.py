"""EXPLAIN renders the compiled query both engines run.

The golden texts pin the rendering; the truth tests tie each claim
EXPLAIN makes to what the engines then do — a window marked ``summary``
folds sealed blocks from their summaries online, one marked ``carry``
carries end states offline, and the index it names is the one a deploy
picks.
"""

import pytest

from repro import OpenMLDB
from repro.cluster import NameServer, TabletServer
from repro.errors import PlanError
from repro.offline.skew import SkewConfig
from repro.sql.compiler import index_access_paths
from repro.sql.parser import parse_select
from repro.storage.skiplist import BLOCK_ROWS

TWO_WINDOWS = (
    "SELECT sum(v) OVER w1 AS a, ew_avg(v, 0.5) OVER w1 AS e, "
    "distinct_count(s) OVER w2 AS b, count(v) OVER w3 AS c, "
    "dim.attr AS x FROM t LAST JOIN dim ON t.k = dim.k WINDOW "
    "w1 AS (PARTITION BY k ORDER BY ts "
    "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
    "w2 AS (PARTITION BY j ORDER BY ts ROWS_RANGE BETWEEN 2s PRECEDING "
    "AND CURRENT ROW MAXSIZE 10 EXCLUDE CURRENT_ROW), "
    "w3 AS (PARTITION BY k ORDER BY ts "
    "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")

TWO_WINDOWS_PLAN = """\
Project(a, e, b, c, x)
  ConcatJoin(w1, w2, w3) over SimpleProject(+index)
    WindowAgg(w1) ROWS 1 PRECEDING
      index: idx_k_ts (t)
      summary: sum(v)
      rows: ew_avg(v, 0.5)
      state_groups: 1
      skew: expand rows
    WindowAgg(w2) ROWS_RANGE 2000ms PRECEDING, MAXSIZE 10, EXCLUDE CURRENT_ROW
      index: idx_j_ts (t)
      column: distinct_count(s)
      state_groups: 1
      skew: expand rows
    WindowAgg(w3) ROWS 1 PRECEDING
      index: idx_k_ts (t)
      summary: count(v)
      state_groups: 1
      scan: reuses w1
      skew: expand rows
  LastJoin(dim) index=idx_k_dts on t.k = dim.k
  DataProvider(t)"""

NESTED = (
    "SELECT sum(v) OVER wl AS a, max(v) OVER ws AS b FROM t WINDOW "
    "wl AS (PARTITION BY k ORDER BY ts "
    "ROWS_RANGE BETWEEN 20s PRECEDING AND CURRENT ROW), "
    "ws AS (PARTITION BY k ORDER BY ts "
    "ROWS_RANGE BETWEEN 2s PRECEDING AND CURRENT ROW MAXSIZE 5)")

SUMMARY = ("SELECT k, sum(v) OVER w AS s, max(v) OVER w AS m FROM t WINDOW "
           "w AS (PARTITION BY k ORDER BY ts "
           "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)")

ROWS = ("SELECT k, sum(v * 2) OVER w AS s FROM t WINDOW "
        "w AS (PARTITION BY k ORDER BY ts "
        "ROWS_RANGE BETWEEN 1000s PRECEDING AND CURRENT ROW)")


def make_db():
    db = OpenMLDB()
    db.execute("CREATE TABLE t (k string, j string, ts timestamp, "
               "v double, s string, INDEX(KEY=k, TS=ts), "
               "INDEX(KEY=j, TS=ts))")
    db.execute("CREATE TABLE dim (k string, dts timestamp, attr double, "
               "INDEX(KEY=k, TS=dts))")
    return db


def window_lines(rendered, name):
    """The detail lines under ``WindowAgg(name)``."""
    lines = rendered.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip().startswith(f"WindowAgg({name})"))
    depth = len(lines[start]) - len(lines[start].lstrip())
    details = []
    for line in lines[start + 1:]:
        if len(line) - len(line.lstrip()) <= depth:
            break
        details.append(line.strip())
    return details


class TestGolden:
    def test_windows_pool_under_concat_join(self):
        assert make_db().explain(TWO_WINDOWS) == TWO_WINDOWS_PLAN

    def test_one_window_has_no_concat_join(self):
        assert make_db().explain(SUMMARY) == """\
Project(k, s, m)
  WindowAgg(w) UNBOUNDED PRECEDING
    index: idx_k_ts (t)
    summary: sum(v), max(v)
    state_groups: 2
    skew: carry end states
  DataProvider(t)"""

    def test_nested_window_is_cut_from_the_widest(self):
        assert make_db().explain(NESTED) == """\
Project(a, b)
  ConcatJoin(wl, ws) over SimpleProject(+index)
    WindowAgg(wl) ROWS_RANGE 20000ms PRECEDING
      index: idx_k_ts (t)
      summary: sum(v)
      state_groups: 1
      skew: expand rows
    WindowAgg(ws) ROWS_RANGE 2000ms PRECEDING, MAXSIZE 5
      index: idx_k_ts (t)
      summary: max(v)
      state_groups: 1
      scan: cut from wl
      skew: expand rows
  DataProvider(t)"""

    def test_union_window_names_every_source(self):
        db = make_db()
        db.execute("CREATE TABLE u (k string, j string, ts timestamp, "
                   "v double, s string, INDEX(KEY=j, TS=ts))")
        rendered = db.explain(
            "SELECT sum(v) OVER w AS a FROM t WINDOW w AS (UNION u "
            "PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW "
            "INSTANCE_NOT_IN_WINDOW)")
        assert "WindowAgg(w) ROWS 3 PRECEDING, INSTANCE_NOT_IN_WINDOW" \
            in rendered
        # The union's one stored source seals blocks: summaries apply.
        assert window_lines(rendered, "w")[:2] == [
            "index: idx_k_ts (t), none (u)", "summary: sum(v)"]

    def test_sources_merged_into_one_block_fold_columns(self):
        db = make_db()
        db.execute("CREATE TABLE u (k string, j string, ts timestamp, "
                   "v double, s string, INDEX(KEY=k, TS=ts))")
        rendered = db.explain(
            "SELECT sum(v) OVER w AS a FROM t WINDOW w AS (UNION u "
            "PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)")
        assert window_lines(rendered, "w")[:2] == [
            "index: idx_k_ts (t), idx_k_ts (u)", "column: sum(v)"]

    def test_join_filter_and_expressions_render(self):
        rendered = make_db().explain(
            "SELECT dim.attr AS x FROM t LAST JOIN dim "
            "ON t.k = dim.k AND dim.attr > 1.5 AND dim.attr IS NOT NULL")
        assert rendered.splitlines()[1] == (
            "  LastJoin(dim) index=idx_k_dts on t.k = dim.k filter "
            "((dim.attr > 1.5) AND (dim.attr IS NOT NULL))")

    def test_a_cluster_explains_as_a_single_node(self):
        db = make_db()
        cluster = NameServer([TabletServer("a"), TabletServer("b")])
        try:
            for name, table in db.tables.items():
                cluster.create_table(name, table.schema, table.indexes,
                                     partitions=2)
            assert cluster.explain(TWO_WINDOWS) == TWO_WINDOWS_PLAN
        finally:
            cluster.close()

    def test_lines_follow_the_compiled_query(self):
        db = make_db()
        rendered = db.explain(TWO_WINDOWS)
        compiled = db.compile_cache.get_or_compile(
            parse_select(TWO_WINDOWS), db.catalog())
        for name, window in compiled.windows.items():
            details = window_lines(rendered, name)
            assert f"state_groups: {window.state_groups}" in details
            assert ("skew: carry end states" in details) \
                == window.carry_eligible
            reads = compiled.shared_reads()
            assert [line for line in details if line.startswith("scan:")] \
                == ([f"scan: {reads[name]}"] if name in reads else [])


class TestTruth:
    """What EXPLAIN says is what runs."""

    def _requested(self, sql):
        db = make_db()
        for index in range(3 * BLOCK_ROWS):
            db.insert("t", ("a", "x", index * 10, float(index % 7), "s"))
        db.deploy("d", sql)
        db.request("d", ("a", "x", 3 * BLOCK_ROWS * 10, 1.0, "s"))
        return db

    def test_summary_window_folds_sealed_blocks_from_summaries(self):
        db = self._requested(SUMMARY)
        assert "summary: sum(v), max(v)" in window_lines(
            db.explain(SUMMARY), "w")
        assert db.online_engine.stats.summary_blocks > 0

    def test_a_cut_window_opens_no_scan(self):
        db = OpenMLDB(observability=True)
        db.execute("CREATE TABLE t (k string, j string, ts timestamp, "
                   "v double, s string, INDEX(KEY=k, TS=ts))")
        for index in range(100):
            db.insert("t", ("a", "x", index * 100, float(index % 7), "s"))
        assert "scan: cut from wl" in window_lines(db.explain(NESTED), "ws")
        db.deploy("d", NESTED)
        db.request("d", ("a", "x", 10_000, 1.0, "s"))
        spans = [(span["name"], span["tags"].get("window"))
                 for span in db.obs.tracer.last_trace()]
        assert ("window.scan", "wl") in spans
        assert ("window.scan", "ws") not in spans
        assert ("agg.fold", "ws") in spans

    def test_rows_window_reads_no_summary(self):
        db = self._requested(ROWS)
        details = window_lines(db.explain(ROWS), "w")
        assert "rows: sum((v * 2))" in details
        assert not any(line.startswith("summary") for line in details)
        assert db.online_engine.stats.summary_blocks == 0

    @pytest.mark.parametrize("sql, carries", [(SUMMARY, True),
                                              (ROWS, False)])
    def test_skew_line_is_what_offline_runs(self, sql, carries):
        db = make_db()
        for index in range(200):
            db.insert("t", ("a", "x", index * 10, float(index % 7), "s"))
        marked = "skew: carry end states" in db.explain(sql)
        assert marked == carries
        _rows, stats = db.offline_query(
            sql, skew=SkewConfig(quantile=4, min_partition_rows=10))
        assert stats.tasks > 1
        assert (stats.carry_tasks > 0) == marked

    def test_named_index_is_the_one_deploy_picks(self):
        db = make_db()
        rendered = db.explain(TWO_WINDOWS)
        compiled = db.deploy("d", TWO_WINDOWS).compiled
        chosen = index_access_paths(compiled.plan, {
            name: table.indexes for name, table in db.tables.items()})
        for name in ("w1", "w2", "w3"):
            assert f"index: {chosen[f'window {name} over t']} (t)" \
                in window_lines(rendered, name)
        assert f"index={chosen['last join dim']} " in rendered

    def test_rejected_script_explains_as_none(self):
        db = make_db()
        sql = ("SELECT sum(v) OVER w AS a FROM t WINDOW w AS "
               "(PARTITION BY s ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")
        with pytest.raises(PlanError, match="full scan"):
            db.deploy("d", sql)
        assert "index: none (t)" in window_lines(db.explain(sql), "w")
