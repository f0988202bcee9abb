"""Long windows (paper Section 5.1): the ``long_windows`` option and the
multi-level pre-aggregates storage keeps for it.

Every key's history seals into blocks and the blocks into spans, each
memoizing its sums, counts and extremes; a long window folds the spans
and blocks it covers whole from those summaries and only its two edges
row by row.  Blocks and spans are shrunk here (4 rows, 3 blocks) so a
few hundred rows build several spans; answers must equal a plain
reference computed from the rows — exactly, since sums are correctly
rounded in every tier.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import OpenMLDB
from repro.core.deployment import LongWindowOption, parse_long_windows
from repro.errors import DeploymentError
from repro.storage import skiplist
from repro.storage.skiplist import SealedSpan

HOUR = 3_600_000
DAY = 24 * HOUR

SQL = ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS n, "
       "max(v) OVER w AS hi FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
       "ROWS_RANGE BETWEEN {lookback} PRECEDING AND CURRENT ROW)")


@pytest.fixture(autouse=True)
def small_storage():
    with mock.patch.object(skiplist, "BLOCK_ROWS", 4), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", 3):
        yield


def rows_for(key, count, step_ms=HOUR // 2, start=0):
    return [(key, start + i * step_ms, float(i % 10) + 0.1)
            for i in range(count)]


def make_db(rows, lookback_ms=1000 * DAY, sql=SQL):
    db = OpenMLDB()
    db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
               "INDEX(KEY=k, TS=ts))")
    for row in rows:
        db.insert("t", row)
    db.deploy("lw", sql.format(lookback=lookback_ms), long_windows="w:1h")
    return db


def raw_answer(rows, key, anchor, lookback_ms, value):
    """(k, sum, count, max) over the stored rows in the window plus the
    request row, straight from the rows."""
    values = [v for k, ts, v in rows
              if k == key and anchor - lookback_ms <= ts <= anchor]
    values.append(value)
    return key, math.fsum(values), len(values), max(values)


def request(db, key, anchor, value=7.0):
    return tuple(db.request_row("lw", (key, anchor, value)))


def scan(db, key, anchor, lookback_ms):
    return db.table("t").window_scan_blocks(
        ("k",), "ts", key, start_ts=anchor, end_ts=anchor - lookback_ms)


class TestParseLongWindows:
    def test_single(self):
        options = parse_long_windows("w1:1d")
        assert options == (LongWindowOption("w1", DAY),)

    def test_multiple_and_units(self):
        options = parse_long_windows("a:2h, b:30m,c:10s")
        assert options[0].bucket_ms == 2 * HOUR
        assert options[1].bucket_ms == 30 * 60_000
        assert options[2].bucket_ms == 10_000

    @pytest.mark.parametrize("bad", ["", "w1", "w1:xx", "w1:5y", ":1d"])
    def test_malformed(self, bad):
        with pytest.raises(DeploymentError):
            parse_long_windows(bad)

    @pytest.mark.parametrize("bad", ["w1:0h", "w1:-5m", "w1:0s",
                                     "w1:-1d"])
    def test_non_positive_bucket_count_rejected(self, bad):
        with pytest.raises(DeploymentError):
            parse_long_windows(bad)


class TestAbsorbAndQuery:
    def test_exact_aligned_query(self):
        # Rows 0..119, one an hour: spans hold rows 0-11, 12-23, ...  A
        # window of exactly spans 1-3 reads three span summaries.
        rows = rows_for("k", 120, step_ms=HOUR)
        db = make_db(rows, lookback_ms=35 * HOUR)
        blocks = scan(db, "k", 47 * HOUR, 35 * HOUR)
        assert len(blocks) == 3
        assert all(isinstance(block, SealedSpan) for block in blocks)
        assert request(db, "k", 47 * HOUR) \
            == raw_answer(rows, "k", 47 * HOUR, 35 * HOUR, 7.0)
        assert db.online_engine.stats.summary_blocks == 3

    def test_unaligned_edges_reported(self):
        db = make_db(rows_for("k", 200))
        # Rows every half hour; the window is [10:45, 70:15].
        anchor, lookback = 70 * HOUR + HOUR // 4, 59 * HOUR + HOUR // 2
        blocks = scan(db, "k", anchor, lookback)
        # Both edges are raw slices; spans and sealed blocks between.
        assert not blocks[0].sealed and not blocks[-1].sealed
        assert all(block.sealed for block in blocks[1:-1])
        assert any(isinstance(block, SealedSpan) for block in blocks)

    def test_query_plus_edges_is_exact(self):
        rows = rows_for("k", 500)
        for lookback in (HOUR // 3, 7 * HOUR, 99 * HOUR + 7, 1000 * DAY):
            db = make_db(rows, lookback_ms=lookback)
            for anchor in (0, 13 * HOUR + 5, 150 * HOUR, 300 * HOUR):
                got = request(db, "k", anchor)
                want = raw_answer(rows, "k", anchor, lookback, 7.0)
                assert got == want and repr(got) == repr(want)
            db.close()

    def test_unknown_key(self):
        db = make_db(rows_for("k", 10))
        assert request(db, "other", 10 * HOUR, 2.5) == ("other", 2.5, 1, 2.5)

    def test_multiple_keys_isolated(self):
        rows = rows_for("a", 50) + rows_for("b", 20, step_ms=HOUR)
        db = make_db(rows)
        assert request(db, "a", 100 * HOUR)[2] == 51  # count per key
        assert request(db, "b", 100 * HOUR)[2] == 21

    def test_out_of_order_rows_land_in_old_buckets(self):
        rows = rows_for("k", 100, step_ms=HOUR)
        db = make_db(rows)
        anchor = 200 * HOUR
        oldest = scan(db, "k", anchor, 1000 * DAY)[-1]
        assert isinstance(oldest, SealedSpan)
        request(db, "k", anchor)  # memoizes the span's summaries
        late = ("k", 5 * HOUR + 1, 1_000.5)  # into the oldest span
        db.insert("t", late)
        rebuilt = scan(db, "k", anchor, 1000 * DAY)[-1]
        assert isinstance(rebuilt, SealedSpan) and rebuilt is not oldest
        assert len(rebuilt) == len(oldest) + 1
        assert request(db, "k", anchor) \
            == raw_answer(rows + [late], "k", anchor, 1000 * DAY, 7.0)

    def test_late_row_sends_an_order_sensitive_key_to_the_raw_scan(self):
        # lag and drawdown have no summary: they always walk the rows,
        # in time order however the rows arrived.
        sql = ("SELECT k, lag(v, 2) OVER w AS back, drawdown(v) OVER w "
               "AS dd, sum(v) OVER w AS s FROM t WINDOW w AS (PARTITION BY "
               "k ORDER BY ts ROWS_RANGE BETWEEN {lookback} PRECEDING AND "
               "CURRENT ROW)")
        rows = [("k", hour * HOUR, float(1 + hour * 7 % 23))
                for hour in range(60)]
        db = make_db(rows, sql=sql)
        before = request(db, "k", 70 * HOUR, 1.5)
        db.insert("t", ("k", 59 * HOUR - 1, 40.0))  # just before the newest
        after = request(db, "k", 70 * HOUR, 1.5)
        assert after[1] == 40.0 != before[1]
        assert after[2] > before[2]  # 40 → 1.5 deepens the drawdown
        assert after[3] == before[3] + 40.0

    def test_rebase_for_much_older_row(self):
        rows = rows_for("k", 60, start=100 * HOUR)
        db = make_db(rows)
        late = ("k", 2 * HOUR, 5.0)  # older than everything stored
        db.insert("t", late)
        assert request(db, "k", 200 * HOUR) \
            == raw_answer(rows + [late], "k", 200 * HOUR, 1000 * DAY, 7.0)


class TestHierarchy:
    def test_coarse_level_reduces_merges(self):
        rows = rows_for("k", 2000)
        anchor, lookback = 999 * HOUR, 499 * HOUR
        answers, summaries = [], []
        for span_blocks in (3, 10 ** 6):  # spans, then blocks only
            with mock.patch.object(skiplist, "SPAN_BLOCKS", span_blocks):
                db = make_db(rows, lookback_ms=lookback)
                answers.append(request(db, "k", anchor))
                summaries.append(db.online_engine.stats.summary_blocks)
        assert answers[0] == answers[1] \
            == raw_answer(rows, "k", anchor, lookback, 7.0)
        assert summaries[0] < summaries[1] / 2

    def test_add_coarser_level_matches(self):
        # The span level appears as the key grows: the window reads one
        # summary where it read three blocks, and answers the same.
        rows = rows_for("k", 12, step_ms=HOUR)  # two blocks + a tail
        db = make_db(rows)
        assert not any(isinstance(block, SealedSpan)
                       for block in scan(db, "k", 30 * HOUR, 1000 * DAY))
        assert request(db, "k", 30 * HOUR) \
            == raw_answer(rows, "k", 30 * HOUR, 1000 * DAY, 7.0)
        assert db.online_engine.stats.summary_blocks == 2
        more = [("k", 12 * HOUR + i, 0.5) for i in range(4)]
        for row in more:  # the first seals a third block: a span
            db.insert("t", row)
        assert isinstance(scan(db, "k", 30 * HOUR, 1000 * DAY)[-1],
                          SealedSpan)
        assert request(db, "k", 30 * HOUR) \
            == raw_answer(rows + more, "k", 30 * HOUR, 1000 * DAY, 7.0)
        assert db.online_engine.stats.summary_blocks == 2 + 1


class TestMergeableOnly:
    def test_mergeable_aggregates_accepted(self):
        sql = ("SELECT k, sum(v) OVER w AS a, count(v) OVER w AS b, "
               "avg(v) OVER w AS c, min(v) OVER w AS d, max(v) OVER w AS e, "
               "distinct_count(v) OVER w AS f, "
               "topn_frequency(v, 3) OVER w AS g, drawdown(v) OVER w AS h, "
               "lag(v, 1) OVER w AS i FROM t WINDOW w AS (PARTITION BY k "
               "ORDER BY ts ROWS_RANGE BETWEEN {lookback} PRECEDING AND "
               "CURRENT ROW)")
        db = make_db(rows_for("k", 300), sql=sql)
        db.deploy("plain", sql.format(lookback=1000 * DAY))
        for anchor in (20 * HOUR, 149 * HOUR, 400 * HOUR):
            row = ("k", anchor, 3.5)
            long, plain = db.request("lw", row), db.request("plain", row)
            assert long == plain and repr(long) == repr(plain)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 72), st.floats(0, 100,
                                                        allow_nan=False)),
                min_size=1, max_size=100),
       st.integers(0, 71), st.integers(1, 72))
def test_query_refinement_exactness_property(events, lo_hour, width):
    """Property: summaries + raw edges == direct aggregation, exactly."""
    rows = [("k", hour * HOUR + 7, value) for hour, value in events]
    lookback = width * HOUR
    anchor = lo_hour * HOUR + 3 + lookback
    with mock.patch.object(skiplist, "BLOCK_ROWS", 4), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", 3):
        db = make_db(rows, lookback_ms=lookback)
        got = request(db, "k", anchor, 1.0)
    assert got == raw_answer(rows, "k", anchor, lookback, 1.0)
