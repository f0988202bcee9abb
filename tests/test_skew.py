"""Tests for time-aware skew resolving (paper Section 6.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.offline.skew import SkewConfig, SkewResolver


def make_rows(key_counts, step=10):
    """rows: (key, ts, value); each key gets its own time series."""
    rows = []
    for key, count in key_counts.items():
        for index in range(count):
            rows.append((key, index * step, float(index)))
    return rows


KEY = lambda row: row[0]  # noqa: E731
TS = lambda row: row[1]  # noqa: E731


def own_rows(task):
    """The task's own rows: those not expanded in from a neighbour."""
    return sum(1 for tagged in task.rows if not tagged.expanded)


def build_tasks(resolver, rows, key_fn, ts_fn, **window):
    """Tag, augment and redistribute ``rows`` of every key: group them
    by key, time-order each group and hand it to ``key_tasks``, keys in
    ``str`` order."""
    by_key = {}
    for row in rows:
        by_key.setdefault(key_fn(row), []).append((ts_fn(row), row))
    tasks = []
    for key, keyed in sorted(by_key.items(), key=lambda item: str(item[0])):
        keyed.sort(key=lambda pair: pair[0])
        tasks.extend(resolver.key_tasks(key, keyed, **window))
    return tasks


class TestConfig:
    def test_quantile_validated(self):
        with pytest.raises(PlanError):
            SkewConfig(quantile=0)

    def test_defaults(self):
        config = SkewConfig()
        assert config.quantile == 2


class TestBoundaries:
    def test_boundaries_split_evenly(self):
        resolver = SkewResolver(SkewConfig(quantile=4))
        ts_values = list(range(0, 10_000, 10))
        boundaries = resolver.partition_boundaries(ts_values)
        assert len(boundaries) == 3
        # Quartile boundaries near 2500/5000/7500.
        for boundary, expected in zip(boundaries, (2500, 5000, 7500)):
            assert abs(boundary - expected) < 500

    def test_quantile_one_has_no_boundaries(self):
        resolver = SkewResolver(SkewConfig(quantile=1))
        assert resolver.partition_boundaries([1, 2, 3]) == []

    def test_part_for_uses_open_closed_ranges(self):
        assert SkewResolver._part_for(5, [10, 20]) == 0
        assert SkewResolver._part_for(10, [10, 20]) == 0
        assert SkewResolver._part_for(11, [10, 20]) == 1
        assert SkewResolver._part_for(25, [10, 20]) == 2

    def test_hll_estimate_drives_sampling_stride(self):
        """The cardinality estimate is *used*: duplicate-heavy ts
        columns (few distinct values) sample at a stride > 1 because
        extra points past ~4×cardinality add no percentile resolution,
        while all-distinct columns of the same length keep stride 1."""
        resolver = SkewResolver(SkewConfig(quantile=4))
        duplicate_heavy = [ts % 8 for ts in range(20_000)]
        boundaries = resolver.partition_boundaries(duplicate_heavy)
        assert resolver.last_sample_stride > 1
        assert resolver.last_sample_size < len(duplicate_heavy)
        assert len(boundaries) == 3
        all_distinct = list(range(1000))
        resolver.partition_boundaries(all_distinct)
        assert resolver.last_sample_stride == 1
        assert resolver.last_sample_size == 1000

    def test_strided_boundaries_still_split_duplicates_evenly(self):
        resolver = SkewResolver(SkewConfig(quantile=2))
        ts_values = [ts % 100 for ts in range(50_000)]
        (boundary,) = resolver.partition_boundaries(ts_values)
        assert resolver.last_sample_stride > 1
        assert 30 <= boundary <= 70  # median of uniform 0..99


class TestTaskBuilding:
    def test_small_keys_not_split(self):
        resolver = SkewResolver(SkewConfig(quantile=4,
                                           min_partition_rows=100))
        rows = make_rows({"small": 10})
        tasks = build_tasks(resolver, rows, KEY, TS, range_ms=50)
        assert len(tasks) == 1
        assert tasks[0].part_id == 0

    def test_hot_key_split_into_quantiles(self):
        resolver = SkewResolver(SkewConfig(quantile=4,
                                           min_partition_rows=50))
        rows = make_rows({"hot": 1000})
        tasks = build_tasks(resolver, rows, KEY, TS, range_ms=50)
        assert len(tasks) == 4
        assert {task.part_id for task in tasks} == {0, 1, 2, 3}

    def test_own_rows_partition_the_key(self):
        resolver = SkewResolver(SkewConfig(quantile=4,
                                           min_partition_rows=50))
        rows = make_rows({"hot": 1000})
        tasks = build_tasks(resolver, rows, KEY, TS, range_ms=50)
        assert sum(own_rows(task) for task in tasks) == 1000

    def test_expanded_rows_flagged_and_prefixed(self):
        resolver = SkewResolver(SkewConfig(quantile=2,
                                           min_partition_rows=10))
        rows = make_rows({"hot": 200})
        tasks = build_tasks(resolver, rows, KEY, TS, range_ms=100)
        later = [task for task in tasks if task.part_id > 0][0]
        expanded = [tagged for tagged in later.rows if tagged.expanded]
        assert expanded  # context from the earlier partition
        # Expanded rows form a time-ordered prefix.
        flags = [tagged.expanded for tagged in later.rows]
        assert flags == sorted(flags, reverse=True)

    def test_expansion_width_matches_range(self):
        resolver = SkewResolver(SkewConfig(quantile=2,
                                           min_partition_rows=10))
        rows = make_rows({"hot": 200}, step=10)
        tasks = build_tasks(resolver, rows, KEY, TS, range_ms=100)
        later = [task for task in tasks if task.part_id > 0][0]
        first_own_ts = next(tagged.ts for tagged in later.rows
                            if not tagged.expanded)
        for tagged in later.rows:
            if tagged.expanded:
                assert tagged.ts >= first_own_ts - 100

    def test_rows_preceding_expansion(self):
        resolver = SkewResolver(SkewConfig(quantile=2,
                                           min_partition_rows=10))
        rows = make_rows({"hot": 100})
        tasks = build_tasks(resolver, rows, KEY, TS, rows_preceding=5)
        later = [task for task in tasks if task.part_id > 0][0]
        expanded = [tagged for tagged in later.rows if tagged.expanded]
        assert len(expanded) == 4  # rows_preceding - 1

    def test_unbounded_frame_expands_full_history(self):
        resolver = SkewResolver(SkewConfig(quantile=2,
                                           min_partition_rows=10))
        rows = make_rows({"hot": 100})
        tasks = build_tasks(resolver, rows, KEY, TS)
        later = [task for task in tasks if task.part_id > 0][0]
        expanded = sum(1 for tagged in later.rows if tagged.expanded)
        assert expanded == 100 - own_rows(later)

    def test_multiple_keys_sorted_deterministically(self):
        resolver = SkewResolver(SkewConfig(quantile=1))
        rows = make_rows({"b": 5, "a": 5, "c": 5})
        tasks = build_tasks(resolver, rows, KEY, TS, range_ms=10)
        assert [task.key for task in tasks] == ["a", "b", "c"]

    def test_augment_false_skips_expansion(self):
        """The engine's carry path replaces expanded-row context with
        merged partials — the resolver must emit bare partitions."""
        resolver = SkewResolver(SkewConfig(quantile=4,
                                           min_partition_rows=10))
        rows = make_rows({"hot": 200})
        tasks = build_tasks(resolver, rows, KEY, TS, augment=False)
        assert len(tasks) == 4
        assert all(not tagged.expanded
                   for task in tasks for tagged in task.rows)
        assert sum(own_rows(task) for task in tasks) == 200

    def test_key_tasks_matches_build_tasks_for_one_key(self):
        """key_tasks is the streaming entry point (spill-sorted groups
        arrive pre-grouped); it must decompose identically."""
        resolver = SkewResolver(SkewConfig(quantile=3,
                                           min_partition_rows=10))
        rows = make_rows({"hot": 120})
        via_build = build_tasks(resolver, rows, KEY, TS, range_ms=50)
        keyed = sorted((TS(row), row) for row in rows)
        via_key = resolver.key_tasks("hot", keyed, range_ms=50)
        assert [(t.part_id, [(g.ts, g.expanded) for g in t.rows])
                for t in via_build] \
            == [(t.part_id, [(g.ts, g.expanded) for g in t.rows])
                for t in via_key]


@settings(max_examples=40, deadline=None)
@given(st.integers(100, 400), st.integers(2, 5), st.integers(1, 20))
def test_partitioning_preserves_rows_property(count, quantile, range_steps):
    """No row is lost or duplicated among own rows; expansion only adds
    flagged copies reachable by the frame."""
    resolver = SkewResolver(SkewConfig(quantile=quantile,
                                       min_partition_rows=20))
    rows = make_rows({"k": count})
    tasks = build_tasks(resolver, rows, KEY, TS,
                                 range_ms=range_steps * 10)
    own = [tagged.ts for task in tasks for tagged in task.rows
           if not tagged.expanded]
    assert sorted(own) == [row[1] for row in rows]
    for task in tasks:
        stamps = [tagged.ts for tagged in task.rows]
        assert stamps == sorted(stamps)
