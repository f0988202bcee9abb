"""Tests for long-window pre-aggregation (paper Section 5.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeploymentError
from repro.online.preagg import (LongWindowOption, PreAggregator,
                                 parse_long_windows)
from repro.sql.functions import get_aggregate

HOUR = 3_600_000
DAY = 24 * HOUR


def make_aggregator(func="sum", constants=(), bucket_ms=HOUR, levels=2,
                    factor=24):
    return PreAggregator(
        get_aggregate(func, *constants),
        arg_fn=lambda row: (row[2],),
        key_fn=lambda row: row[0],
        ts_fn=lambda row: row[1],
        bucket_ms=bucket_ms, levels=levels, factor=factor)


def rows_for(key, count, step_ms=HOUR // 2, start=0):
    return [(key, start + i * step_ms, float(i % 10)) for i in range(count)]


def raw_sum(rows, key, lo, hi):
    return sum(value for k, ts, value in rows
               if k == key and lo <= ts <= hi)


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
        # A zero/negative count makes bucket_ms <= 0, which would
        # divide-by-zero in every bucket index computation downstream.
        with pytest.raises(DeploymentError):
            parse_long_windows(bad)


class TestAbsorbAndQuery:
    def test_exact_aligned_query(self):
        aggregator = make_aggregator()
        rows = rows_for("k", 200)
        aggregator.backfill(rows)
        result = aggregator.query("k", 0, 50 * HOUR - 1)
        assert result.head_span is None
        assert result.tail_span is None
        reference = raw_sum(rows, "k", 0, 50 * HOUR - 1)
        assert result.state[0] == pytest.approx(reference)

    def test_unaligned_edges_reported(self):
        aggregator = make_aggregator()
        aggregator.backfill(rows_for("k", 200))
        lo = HOUR // 2
        hi = 10 * HOUR + HOUR // 4
        result = aggregator.query("k", lo, hi)
        assert result.head_span == (lo, HOUR - 1)
        assert result.tail_span == (10 * HOUR, hi)

    def test_query_plus_edges_is_exact(self):
        aggregator = make_aggregator()
        rows = rows_for("k", 500)
        aggregator.backfill(rows)
        lo, hi = HOUR // 3, 99 * HOUR + 7
        result = aggregator.query("k", lo, hi)
        total = result.state[0] if result.state else 0.0
        for span in (result.head_span, result.tail_span):
            if span:
                total += raw_sum(rows, "k", span[0], span[1])
        assert total == pytest.approx(raw_sum(rows, "k", lo, hi))

    def test_unknown_key(self):
        aggregator = make_aggregator()
        aggregator.backfill(rows_for("k", 10))
        result = aggregator.query("other", 0, 10 * HOUR)
        assert result.state is None

    def test_multiple_keys_isolated(self):
        aggregator = make_aggregator()
        aggregator.backfill(rows_for("a", 50))
        aggregator.backfill(rows_for("b", 20, step_ms=HOUR))
        result_a = aggregator.query("a", 0, 100 * HOUR)
        result_b = aggregator.query("b", 0, 100 * HOUR)
        assert result_a.state[1] == 50  # count per key, not mixed
        assert result_b.state[1] == 20

    def test_out_of_order_rows_land_in_old_buckets(self):
        aggregator = make_aggregator()
        aggregator.absorb(("k", 5 * HOUR, 1.0))
        aggregator.absorb(("k", 1 * HOUR, 2.0))  # late arrival
        result = aggregator.query("k", 0, 10 * HOUR)
        assert result.state[0] == pytest.approx(3.0)

    def test_late_row_sends_an_order_sensitive_key_to_the_raw_scan(self):
        # A bucket folds in arrival order; lag needs time order.
        aggregator = make_aggregator(func="lag", constants=(0,))
        for key in ("late", "ordered"):
            aggregator.absorb((key, 1 * HOUR, 1.0))
            aggregator.absorb((key, 5 * HOUR, 2.0))
            aggregator.absorb((key, 5 * HOUR, 3.0))  # a tie is in order
        aggregator.absorb(("late", 2 * HOUR, 4.0))
        late = aggregator.query("late", 0, 10 * HOUR - 1)
        assert (late.state, late.head_span, late.tail_span) \
            == (None, (0, 10 * HOUR - 1), None)
        assert not late.buckets_used
        assert aggregator.query("ordered", 0, 10 * HOUR - 1).state == [3.0]

    def test_rebase_for_much_older_row(self):
        aggregator = make_aggregator(levels=1)
        aggregator.absorb(("k", 100 * HOUR, 1.0))
        aggregator.absorb(("k", 2 * HOUR, 5.0))  # before the base bucket
        result = aggregator.query("k", 0, 200 * HOUR)
        assert result.state[0] == pytest.approx(6.0)


class TestHierarchy:
    def test_coarse_level_reduces_merges(self):
        fine_only = make_aggregator(levels=1)
        hierarchical = make_aggregator(levels=2, factor=24)
        rows = rows_for("k", 2000)
        fine_only.backfill(rows)
        hierarchical.backfill(rows)
        span = (0, 499 * HOUR - 1)
        fine_result = fine_only.query("k", *span)
        multi_result = hierarchical.query("k", *span)
        assert fine_result.state[0] == pytest.approx(multi_result.state[0])
        assert sum(multi_result.buckets_used.values()) \
            < sum(fine_result.buckets_used.values())
        assert 1 in multi_result.buckets_used  # day level actually used

    def test_add_coarser_level_matches(self):
        aggregator = make_aggregator(levels=1)
        rows = rows_for("k", 1000)
        aggregator.backfill(rows)
        before = aggregator.query("k", 0, 300 * HOUR)
        level = aggregator.add_coarser_level(factor=24)
        assert level == 1
        after = aggregator.query("k", 0, 300 * HOUR)
        assert after.state[0] == pytest.approx(before.state[0])
        assert sum(after.buckets_used.values()) \
            < sum(before.buckets_used.values())

    def test_maybe_adapt_triggers_on_wide_queries(self):
        aggregator = make_aggregator(levels=1)
        aggregator.backfill(rows_for("k", 3000))
        for _ in range(120):
            aggregator.query("k", 0, 1400 * HOUR)
        added = aggregator.maybe_adapt(min_queries=100,
                                       bucket_threshold=64)
        assert added == 1

    def test_maybe_adapt_noop_for_narrow_queries(self):
        aggregator = make_aggregator(levels=1)
        aggregator.backfill(rows_for("k", 100))
        for _ in range(120):
            aggregator.query("k", 0, 3 * HOUR)
        assert aggregator.maybe_adapt(min_queries=100,
                                      bucket_threshold=64) is None


class TestMergeableOnly:
    def test_non_mergeable_rejected(self):
        with pytest.raises(DeploymentError):
            make_aggregator(func="ew_avg", constants=(0.5,))

    def test_mergeable_aggregates_accepted(self):
        for func, constants in (("sum", ()), ("count", ()), ("avg", ()),
                                ("min", ()), ("max", ()),
                                ("distinct_count", ()),
                                ("topn_frequency", (3,)),
                                ("drawdown", ())):
            aggregator = PreAggregator(
                get_aggregate(func, *constants),
                arg_fn=lambda row: (row[2],),
                key_fn=lambda row: row[0],
                ts_fn=lambda row: row[1], bucket_ms=HOUR)
            aggregator.absorb(("k", 0, 1.0))


class TestBinlogIntegration:
    def test_update_closure(self):
        from repro.online.binlog import Replicator
        aggregator = make_aggregator()
        replicator = Replicator()
        closure = aggregator.make_update_closure()
        for row in rows_for("k", 10):
            replicator.append_entry("t", row, closure=closure)
        assert replicator.wait_idle(timeout=5)
        assert aggregator.rows_absorbed == 10
        replicator.close()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 72), st.floats(0, 100,
                                                        allow_nan=False)),
                min_size=1, max_size=100),
       st.integers(0, 71), st.integers(1, 72))
def test_query_refinement_exactness_property(events, lo_hour, width):
    """Property: bucket state + raw edges == direct aggregation."""
    aggregator = make_aggregator(levels=2, factor=6)
    rows = [("k", hour * HOUR + 7, value) for hour, value in events]
    aggregator.backfill(rows)
    lo = lo_hour * HOUR + 3
    hi = lo + width * HOUR
    result = aggregator.query("k", lo, hi)
    total = result.state[0] if result.state else 0.0
    for span in (result.head_span, result.tail_span):
        if span:
            total += raw_sum(rows, "k", span[0], span[1])
    assert total == pytest.approx(raw_sum(rows, "k", lo, hi))
