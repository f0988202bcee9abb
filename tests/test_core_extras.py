"""Regression and integration tests for the core layer."""

import pytest

from repro import OpenMLDB, verify_consistency
from repro.errors import ParseError, PlanError
from repro.sql.parser import parse_select


class TestConsistencyOutOfOrderInserts:
    """Regression: rows inserted out of timestamp order must still align
    offline outputs (insertion order) with replayed online results
    (time order)."""

    def test_interleaved_keys(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE txns (card string, ts timestamp, "
                   "amount double, INDEX(KEY=card, TS=ts))")
        # Deliberately not time-ordered across keys.
        for row in (("c100", 1_000, 25.0), ("c100", 61_000, 12.5),
                    ("c100", 122_000, 310.0), ("c200", 50_000, 9.99),
                    ("c200", 110_000, 42.0)):
            db.insert("txns", row)
        db.deploy("d", (
            "SELECT card, sum(amount) OVER w AS spend FROM txns WINDOW "
            "w AS (PARTITION BY card ORDER BY ts "
            "ROWS_RANGE BETWEEN 2m PRECEDING AND CURRENT ROW)"))
        report = verify_consistency(db, "d")
        assert report.consistent, report.mismatches[:3]

    def test_same_key_out_of_order(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        for ts in (500, 100, 300, 200, 400):
            db.insert("t", ("a", ts, float(ts)))
        db.deploy("d", (
            "SELECT k, count(v) OVER w AS c FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 150 PRECEDING AND CURRENT ROW)"))
        report = verify_consistency(db, "d")
        assert report.consistent, report.mismatches[:3]


class TestDeployTimeIndexValidation:
    """Section 4.2: deployments whose access paths lack indexes are
    rejected at deploy time, not at the first slow request."""

    def test_window_without_index_rejected(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, j string, ts timestamp, "
                   "v double, INDEX(KEY=k, TS=ts))")
        with pytest.raises(PlanError, match="full scan"):
            db.deploy("d", (
                "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
                "(PARTITION BY j ORDER BY ts "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)"))

    def test_join_without_index_rejected(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, "
                   "INDEX(KEY=k, TS=ts))")
        db.execute("CREATE TABLE dim (other string, dts timestamp, "
                   "INDEX(KEY=other, TS=dts))")
        with pytest.raises(PlanError, match="full scan"):
            db.deploy("d", ("SELECT t.k AS k FROM t "
                            "LAST JOIN dim ON t.k = dim.dts"))

    def test_multi_index_table_deploys(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, j string, ts timestamp, "
                   "v double, INDEX(KEY=k, TS=ts), INDEX(KEY=j, TS=ts))")
        db.deploy("d", (
            "SELECT sum(v) OVER w1 AS a, sum(v) OVER w2 AS b FROM t "
            "WINDOW w1 AS (PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
            "w2 AS (PARTITION BY j ORDER BY ts "
            "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)"))
        result = db.request("d", ("x", "y", 100, 1.0))
        assert result == {"a": 1.0, "b": 1.0}


class TestExplain:
    def test_explain_then_deploy_is_a_cache_hit(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, j string, ts timestamp, "
                   "v double, INDEX(KEY=k, TS=ts), INDEX(KEY=j, TS=ts))")
        sql = ("SELECT sum(v) OVER w1 AS a, sum(v) OVER w2 AS b FROM t "
               "WINDOW w1 AS (PARTITION BY k ORDER BY ts "
               "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
               "w2 AS (PARTITION BY j ORDER BY ts "
               "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")
        assert "ConcatJoin(w1, w2) over SimpleProject(+index)" \
            in db.explain(sql)
        assert (db.compile_cache.hits, db.compile_cache.misses) == (0, 1)
        compiled = db.deploy("d", sql).compiled
        assert (db.compile_cache.hits, db.compile_cache.misses) == (1, 1)
        assert compiled is db.compile_cache.get_or_compile(
            parse_select(sql), db.catalog())

    def test_explain_rejects_non_select(self):
        db = OpenMLDB()
        with pytest.raises(ParseError, match="explain expects a SELECT"):
            db.explain("INSERT INTO t VALUES (1)")


class TestBinlogRecovery:
    def test_table_rebuilt_from_binlog(self, tmp_path):
        db = OpenMLDB(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        for index in range(30):
            db.insert("t", ("a", index * 100, float(index)))
        db.deploy("d", (
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)"))
        before = db.request("d", ("a", 10_000, 0.0))
        old_table = db.table("t")
        assert db.recover().replayed_entries == 30
        assert db.table("t") is not old_table
        after = db.request("d", ("a", 10_000, 0.0))
        assert after == before
        db.close()

    def test_preagg_survives_recovery(self, tmp_path):
        db = OpenMLDB(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        for index in range(50):
            db.insert("t", ("a", index * 3_600_000, 1.0))
        db.deploy("d", (
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)"),
            long_windows="w:1h")
        before = db.request("d", ("a", 50 * 3_600_000, 1.0))
        db.recover()
        after = db.request("d", ("a", 50 * 3_600_000, 1.0))
        assert after == before
        db.close()

    def test_new_inserts_after_recovery(self, tmp_path):
        db = OpenMLDB(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        db.insert("t", ("a", 100, 1.0))
        db.recover()
        db.insert("t", ("a", 200, 2.0))
        assert db.table("t").row_count == 2
        db.close()


class TestDeploymentIntrospection:
    def test_preagg_stats_shape(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        db.insert("t", ("a", 3_600_000, 1.0))
        deployment = db.deploy("d", (
            "SELECT sum(v) OVER w AS s, ew_avg(v, 0.5) OVER w AS e "
            "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)"),
            long_windows="w:1h")
        # The long window keeps its option; the storage fold answers
        # both features, ew_avg's row walk too.
        assert [option.window for option in deployment.long_windows] \
            == ["w"]
        result = db.request("d", ("a", 7_200_000, 3.0))
        assert result["s"] == 4.0
        assert result["e"] is not None

    def test_backfill_counts_existing_rows(self):
        # No backfill: the rows already stored are the window.
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts))")
        for index in range(25):
            db.insert("t", ("a", index * 1_000, 1.0))
        db.deploy("d", (
            "SELECT sum(v) OVER w AS s, count(v) OVER w AS n FROM t "
            "WINDOW w AS (PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)"),
            long_windows="w:1m")
        assert db.request("d", ("a", 30_000, 1.0)) == {"s": 26.0, "n": 26}
