"""Tests for online/offline consistency verification (the paper's
headline guarantee of the unified plan generator)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import OpenMLDB, verify_consistency
from repro.errors import ConsistencyError
from repro.core.consistency import ConsistencyReport, Mismatch


def seeded_db(rows=120, keys=4, seed=5, with_union=True, with_join=True):
    db = OpenMLDB()
    db.execute("CREATE TABLE actions (uid string, ts timestamp, "
               "px double, qty int, cat string, "
               "INDEX(KEY=uid, TS=ts))")
    db.execute("CREATE TABLE orders (uid string, ts timestamp, "
               "px double, qty int, cat string, "
               "INDEX(KEY=uid, TS=ts))")
    db.execute("CREATE TABLE profile (uid string, uts timestamp, "
               "age int, INDEX(KEY=uid, TS=uts))")
    rng = random.Random(seed)
    for key in range(keys):
        db.insert("profile", (f"u{key}", 1, 20 + key))
    for index in range(rows):
        uid = f"u{rng.randrange(keys)}"
        row = (uid, 1000 + index * 97, round(rng.uniform(1, 50), 2),
               rng.randrange(1, 5), rng.choice(["a", "b"]))
        db.insert("actions" if index % 3 else "orders", row)
    return db


FULL_SQL = (
    "SELECT actions.uid AS uid, "
    "sum(px) OVER w3 AS s, count(px) OVER w3 AS c, "
    "distinct_count(cat) OVER wr AS dc, "
    "avg_cate_where(px, qty > 2, cat) OVER wr AS acw, "
    "profile.age AS age "
    "FROM actions "
    "LAST JOIN profile ORDER BY uts ON actions.uid = profile.uid "
    "WINDOW w3 AS (UNION orders PARTITION BY uid ORDER BY ts "
    "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), "
    "wr AS (PARTITION BY uid ORDER BY ts "
    "ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)")


class TestVerification:
    def test_full_feature_script_consistent(self):
        db = seeded_db()
        db.deploy("d", FULL_SQL)
        report = verify_consistency(db, "d")
        assert report.consistent
        assert report.rows_compared > 0
        report.raise_on_mismatch()  # must not raise

    def test_simple_projection_consistent(self):
        db = seeded_db(rows=30)
        db.deploy("d", "SELECT uid, px * 2 AS px2 FROM actions")
        assert verify_consistency(db, "d").consistent

    def test_exclude_current_row_consistent(self):
        db = seeded_db(rows=60)
        db.deploy("d", (
            "SELECT uid, sum(px) OVER w AS s FROM actions WINDOW w AS "
            "(PARTITION BY uid ORDER BY ts "
            "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW "
            "EXCLUDE CURRENT_ROW)"))
        assert verify_consistency(db, "d").consistent

    def test_report_mismatch_rendering(self):
        report = ConsistencyReport(rows_compared=1, mismatches=[
            Mismatch(anchor_index=0, column="f",
                     offline_value=1.0, online_value=2.0)])
        assert not report.consistent
        with pytest.raises(ConsistencyError, match="f"):
            report.raise_on_mismatch()

    def test_float_tolerance(self):
        report = ConsistencyReport(rows_compared=0, mismatches=[])
        assert report.consistent

    def test_early_return_closes_the_replay_instance(self, monkeypatch):
        # Stopping at max_mismatches used to skip replay.close(), leaking
        # the replay instance's replicator thread.
        db = seeded_db(rows=30)
        db.deploy("d", "SELECT uid, px * 2 AS px2 FROM actions")
        offline = db.offline_engine.execute
        monkeypatch.setattr(
            db.offline_engine, "execute", lambda compiled: (
                [(uid, px2 + 1.0) for uid, px2 in offline(compiled)[0]],
                None))
        closed = []
        close = OpenMLDB.close
        monkeypatch.setattr(
            OpenMLDB, "close",
            lambda self: (closed.append(self), close(self))[1])
        report = verify_consistency(db, "d", max_mismatches=1)
        assert len(report.mismatches) == 1
        assert len(closed) == 1 and closed[0] is not db


VARIANT_SQL = (
    "SELECT actions.uid AS uid, "
    "sum(px) OVER we AS s_excl, "
    "count(px) OVER wn AS c_union "
    "FROM actions "
    "WINDOW we AS (PARTITION BY uid ORDER BY ts "
    "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW), "
    "wn AS (UNION orders PARTITION BY uid ORDER BY ts "
    "ROWS_RANGE BETWEEN 20s PRECEDING AND CURRENT ROW "
    "INSTANCE_NOT_IN_WINDOW)")


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(30, 70))
def test_consistency_property_window_attributes(seed, rows):
    """EXCLUDE CURRENT_ROW and INSTANCE_NOT_IN_WINDOW must also agree
    between the replayed online path and the batch path."""
    db = seeded_db(rows=rows, keys=3, seed=seed)
    db.deploy("dv", VARIANT_SQL)
    report = verify_consistency(db, "dv")
    assert report.consistent, report.mismatches[:3]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(20, 80))
def test_consistency_property(seed, keys, rows):
    """Property: for random workloads, online replay == offline batch.

    This is the paper's core claim — the unified plan makes the two
    stages agree without manual verification — exercised as an invariant.
    """
    db = seeded_db(rows=rows, keys=keys, seed=seed)
    db.deploy("d", FULL_SQL)
    report = verify_consistency(db, "d")
    assert report.consistent, report.mismatches[:3]
