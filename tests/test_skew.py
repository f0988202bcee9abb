"""Tests for time-aware skew resolving (paper Section 6.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.offline.engine import OfflineEngine, OfflineStats
from repro.offline.shuffle import SpillConfig
from repro.offline.skew import SkewConfig, key_slices
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.memtable import MemTable


def stamps_of(count, step=10):
    return list(range(0, count * step, step))


def own_sizes(slices):
    return [end - own for _start, own, end in slices]


def contexts(slices):
    return [own - start for start, own, _end in slices]


class TestConfig:
    def test_quantile_validated(self):
        with pytest.raises(PlanError):
            SkewConfig(quantile=0)

    def test_defaults(self):
        config = SkewConfig()
        assert config.quantile == 2


class TestBoundaries:
    def test_boundaries_split_evenly(self):
        stamps = stamps_of(1000)
        slices = key_slices(stamps, SkewConfig(quantile=4), context=False)
        # Each part starts just past an exact quartile of the ts column.
        assert [stamps[own] for _start, own, _end in slices] \
            == [0, 2510, 5010, 7510]
        assert own_sizes(slices) == [251, 250, 250, 249]

    def test_quantile_one_has_no_boundaries(self):
        assert key_slices(stamps_of(1000), SkewConfig(quantile=1)) \
            == [(0, 0, 1000)]

    def test_part_for_uses_open_closed_ranges(self):
        """PART_ID i holds ts in (b_i, b_(i+1)]: the rows equal to a
        boundary stay in the earlier part."""
        stamps = [1, 2, 3, 4, 5, 5, 5, 5, 6, 7]
        slices = key_slices(stamps, SkewConfig(quantile=2,
                                               min_partition_rows=1))
        assert [(own, end) for _start, own, end in slices] \
            == [(0, 8), (8, 10)]

    def test_duplicate_heavy_stamps_still_split_evenly(self):
        stamps = sorted(ts % 100 for ts in range(50_000))
        (_first, (_start, own, _end)) = key_slices(
            stamps, SkewConfig(quantile=2), context=False)
        assert 30 <= stamps[own] <= 70  # median of uniform 0..99
        assert stamps[own - 1] < stamps[own]


# The engine's side of the split: keys in order, and the same tasks
# whether the shuffle sorts in memory or spills.
def _engine(key_counts):
    schema = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                                ("v", "double")])
    table = MemTable("t", schema, [IndexDef(("k",), "ts")])
    for key, count in key_counts.items():
        for index in range(count):
            table.insert((key, index * 10, float(index)))
    sql = ("SELECT k, sum(v) OVER w AS s FROM t WINDOW w AS "
           "(PARTITION BY k ORDER BY ts "
           "ROWS_RANGE BETWEEN 50 PRECEDING AND CURRENT ROW)")
    catalog = {"t": schema}
    compiled = compile_plan(build_plan(parse_select(sql), catalog), catalog)
    return OfflineEngine({"t": table}), compiled, list(table.rows())


def _units(key_counts, skew, spill=None):
    engine, compiled, anchors = _engine(key_counts)
    (window,) = compiled.windows.values()
    return [([event[:2] for event in events], skip, continues)
            for events, skip, continues in engine._task_units(
                compiled, window, anchors, skew, spill, OfflineStats())]


class TestTaskBuilding:
    def test_small_keys_not_split(self):
        slices = key_slices(stamps_of(10), SkewConfig(
            quantile=4, min_partition_rows=100), range_ms=50)
        assert slices == [(0, 0, 10)]

    def test_hot_key_split_into_quantiles(self):
        slices = key_slices(stamps_of(1000), SkewConfig(
            quantile=4, min_partition_rows=50), range_ms=50)
        assert len(slices) == 4

    def test_own_rows_partition_the_key(self):
        slices = key_slices(stamps_of(1000), SkewConfig(
            quantile=4, min_partition_rows=50), range_ms=50)
        owns = [(own, end) for _start, own, end in slices]
        assert owns[0][0] == 0 and owns[-1][1] == 1000
        assert all(left[1] == right[0] for left, right in zip(owns, owns[1:]))

    def test_expanded_rows_flagged_and_prefixed(self):
        """A later part's context is the time-ordered run of rows just
        before its own rows, and the first part has none."""
        slices = key_slices(stamps_of(200), SkewConfig(
            quantile=2, min_partition_rows=10), range_ms=100)
        (first, later) = slices
        assert first[0] == first[1] == 0
        start, own, _end = later
        assert 0 < start < own

    def test_expansion_width_matches_range(self):
        stamps = stamps_of(200, step=10)
        (_first, (start, own, _end)) = key_slices(
            stamps, SkewConfig(quantile=2, min_partition_rows=10),
            range_ms=100)
        # Every row the range reaches, and none it does not.
        assert stamps[start] == stamps[own] - 100
        assert stamps[start - 1] < stamps[own] - 100

    def test_rows_preceding_expansion(self):
        slices = key_slices(stamps_of(100), SkewConfig(
            quantile=2, min_partition_rows=10), rows_preceding=5)
        assert contexts(slices) == [0, 4]  # rows_preceding - 1

    def test_range_and_rows_take_the_wider(self):
        config = SkewConfig(quantile=2, min_partition_rows=10)
        stamps = stamps_of(100)
        assert contexts(key_slices(stamps, config, range_ms=100,
                                   rows_preceding=5)) == [0, 10]
        assert contexts(key_slices(stamps, config, range_ms=20,
                                   rows_preceding=5)) == [0, 4]

    def test_unbounded_frame_expands_full_history(self):
        slices = key_slices(stamps_of(100), SkewConfig(
            quantile=2, min_partition_rows=10))
        (_first, (start, own, _end)) = slices
        assert start == 0 and own > 0

    def test_augment_false_skips_expansion(self):
        """A carried window's partitions get no context: the previous
        partition's end state replaces it."""
        slices = key_slices(stamps_of(200), SkewConfig(
            quantile=4, min_partition_rows=10), context=False)
        assert len(slices) == 4
        assert contexts(slices) == [0, 0, 0, 0]
        assert sum(own_sizes(slices)) == 200

    def test_multiple_keys_sorted_deterministically(self):
        units = _units({"b": 5, "a": 5, "c": 5}, SkewConfig(quantile=1))
        assert [events[0][1][0] for events, _skip, _c in units] \
            == ["a", "b", "c"]

    def test_spill_and_memory_groups_decompose_identically(self):
        skew = SkewConfig(quantile=3, min_partition_rows=10)
        in_memory = _units({"hot": 120, "cold": 5}, skew)
        spilled = _units({"hot": 120, "cold": 5}, skew,
                         SpillConfig(memory_budget_bytes=256))
        assert len(in_memory) == 4
        assert in_memory == spilled


def brute_force_context(stamps, own, range_ms, rows_preceding):
    """The rows before ``own`` that the frame reaches, one by one."""
    if range_ms is None and rows_preceding is None:
        return set(range(own))
    reached = set()
    if range_ms is not None:
        reached |= {index for index in range(own)
                    if stamps[index] >= stamps[own] - range_ms}
    if rows_preceding is not None:
        reached |= set(range(max(own - (rows_preceding - 1), 0), own))
    return reached


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=1,
                     max_size=120),
       ties=st.booleans(),
       quantile=st.integers(1, 6),
       min_rows=st.integers(1, 20),
       range_ms=st.one_of(st.none(), st.integers(0, 30)),
       rows_preceding=st.one_of(st.none(), st.integers(0, 12)),
       context=st.booleans())
def test_slices_match_brute_force(gaps, ties, quantile, min_rows, range_ms,
                                  rows_preceding, context):
    """Random sorted stamps, with heavy ties or none: the own slices
    tile the key, no tie straddles a cut, each context is exactly what
    the frame reaches (none when carried), and without ties each part
    is within one row of an even split."""
    stamps = []
    for gap in gaps:
        stamps.append((stamps[-1] if stamps else 0)
                      + (gap if ties else max(gap, 1)))
    count = len(stamps)
    slices = key_slices(stamps, SkewConfig(quantile=quantile,
                                           min_partition_rows=min_rows),
                        range_ms=range_ms, rows_preceding=rows_preceding,
                        context=context)
    assert [own for _s, own, _e in slices] \
        == [0] + [end for _s, _o, end in slices[:-1]]
    assert slices[-1][2] == count
    assert all(own < end for _start, own, end in slices)
    assert len(slices) <= quantile
    for _start, own, _end in slices[1:]:
        assert stamps[own - 1] < stamps[own]
    for start, own, _end in slices:
        expected = (brute_force_context(stamps, own, range_ms,
                                        rows_preceding)
                    if context else set())
        assert set(range(start, own)) == expected
    if count >= min_rows and not ties:
        assert all(abs(size - count / quantile) <= 1
                   for size in own_sizes(slices))


@settings(max_examples=40, deadline=None)
@given(st.integers(100, 400), st.integers(2, 5), st.integers(1, 20))
def test_partitioning_preserves_rows_property(count, quantile, range_steps):
    """No row is lost or duplicated among own rows; context only adds
    rows the frame reaches."""
    stamps = stamps_of(count)
    range_ms = range_steps * 10
    slices = key_slices(stamps, SkewConfig(quantile=quantile,
                                           min_partition_rows=20),
                        range_ms=range_ms)
    own = [ts for _start, own, end in slices for ts in stamps[own:end]]
    assert own == stamps
    for start, own, _end in slices:
        assert all(ts >= stamps[own] - range_ms
                   for ts in stamps[start:own])
