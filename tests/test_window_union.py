"""Tests for the self-adjusted window union (paper Section 5.2)."""

import dataclasses
import random

import pytest

from repro.online.window_union import (DynamicScheduler, StaticScheduler,
                                       WindowUnionProcessor)
from repro.sql.functions import get_aggregate


def skewed_stream(tuples=2000, keys=20, hot_fraction=0.7, seed=3):
    """Interleaved multi-table stream with one hot key."""
    rng = random.Random(seed)
    stream = []
    for index in range(tuples):
        if rng.random() < hot_fraction:
            key = "hot"
        else:
            key = f"k{rng.randrange(keys)}"
        table = ("left", "right")[index % 2]
        stream.append((table, key, index * 10, float(index % 100)))
    return stream


def processor(scheduler, incremental=True, range_ms=5_000,
              rebalance_every=200):
    return WindowUnionProcessor(
        functions=[get_aggregate("sum"), get_aggregate("count")],
        arg_extractors=[lambda row: (row,)] * 2,
        scheduler=scheduler, range_ms=range_ms,
        incremental=incremental, rebalance_every=rebalance_every)


def counted_run(scheduler, stream):
    """One incremental run's stats with each worker's load counted in
    tuples, the scheduler fed one unit of cost per tuple: a count, where
    measured seconds would let a stalled run move the placement and the
    loads."""
    tuples = [0] * scheduler.workers
    worker_for, record = scheduler.worker_for, scheduler.record

    def counting_worker_for(key):
        worker = worker_for(key)
        tuples[worker] += 1
        return worker

    scheduler.worker_for = counting_worker_for
    scheduler.record = lambda key, _seconds: record(key, 1.0)
    stats = processor(scheduler, incremental=True,
                      rebalance_every=250).run(iter(stream))
    return dataclasses.replace(stats, worker_loads=tuples)


class TestSchedulers:
    def test_static_is_rigid(self):
        scheduler = StaticScheduler(workers=4)
        worker = scheduler.worker_for("a")
        scheduler.record("a", 100.0)
        scheduler.rebalance()
        assert scheduler.worker_for("a") == worker
        assert scheduler.rebalances == 0

    def test_static_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            StaticScheduler(workers=0)

    def test_dynamic_moves_keys_to_balance(self):
        scheduler = DynamicScheduler(workers=2, share_factor=1e9)
        # Two heavy keys initially hashed to the same worker.
        keys = ["a", "b"]
        placements = {key: scheduler.worker_for(key) for key in keys}
        scheduler.record("a", 10.0)
        scheduler.record("b", 10.0)
        scheduler.rebalance()
        new_placements = {key: scheduler.worker_for(key) for key in keys}
        assert set(new_placements.values()) == {0, 1}
        del placements

    def test_dynamic_shares_hot_key(self):
        scheduler = DynamicScheduler(workers=4, share_factor=2.0)
        scheduler.record("hot", 100.0)
        for index in range(12):
            scheduler.record(f"cold{index}", 1.0)
        scheduler.rebalance()
        # The hot key must now round-robin over several workers.
        workers = {scheduler.worker_for("hot") for _ in range(8)}
        assert len(workers) >= 2

    def test_dynamic_new_key_gets_hash_placement(self):
        scheduler = DynamicScheduler(workers=3)
        assert scheduler.worker_for("fresh") == hash("fresh") % 3


class TestCorrectness:
    def test_incremental_matches_static_results(self):
        """Both strategies must compute identical window aggregates."""
        stream = skewed_stream(tuples=400)
        fast = processor(DynamicScheduler(workers=4), incremental=True)
        slow = processor(StaticScheduler(workers=4), incremental=False)
        fast.run(iter(stream))
        slow.run(iter(stream))
        assert fast.last_results.keys() == slow.last_results.keys()
        for key in fast.last_results:
            fast_sum, fast_count = fast.last_results[key]
            slow_sum, slow_count = slow.last_results[key]
            assert fast_count == slow_count
            assert fast_sum == pytest.approx(slow_sum)

    def test_count_window_variant(self):
        stream = skewed_stream(tuples=300)
        fast = WindowUnionProcessor(
            [get_aggregate("max")], [lambda row: (row,)],
            DynamicScheduler(workers=2), max_rows=10)
        slow = WindowUnionProcessor(
            [get_aggregate("max")], [lambda row: (row,)],
            StaticScheduler(workers=2), max_rows=10, incremental=False)
        fast.run(iter(stream))
        slow.run(iter(stream))
        for key in fast.last_results:
            assert fast.last_results[key] == slow.last_results[key]


class TestStats:
    def test_stats_shape(self):
        stats = processor(DynamicScheduler(workers=4)).run(
            iter(skewed_stream(tuples=500)))
        assert stats.tuples == 500
        assert stats.makespan_seconds <= stats.compute_seconds + 1e-9
        assert len(stats.worker_loads) == 4
        assert stats.throughput > 0

    def test_dynamic_balances_better_than_static(self):
        stream = skewed_stream(tuples=5000, hot_fraction=0.75)
        static_stats = counted_run(StaticScheduler(workers=4), stream)
        dynamic_stats = counted_run(
            DynamicScheduler(workers=4, share_factor=1.2), stream)
        # With 75% of traffic on one key, static placement pins ~3/4 of
        # the tuples to one worker; sharing must visibly flatten it.
        assert dynamic_stats.imbalance < static_stats.imbalance * 0.9

    def test_incremental_beats_recompute_on_large_windows(self):
        stream = skewed_stream(tuples=1500, hot_fraction=0.9)
        incremental_stats = processor(
            DynamicScheduler(workers=4), incremental=True,
            range_ms=10 ** 9).run(iter(stream))
        recompute_stats = processor(
            StaticScheduler(workers=4), incremental=False,
            range_ms=10 ** 9).run(iter(stream))
        assert incremental_stats.compute_seconds \
            < recompute_stats.compute_seconds

    def test_rebalances_counted(self):
        stats = processor(DynamicScheduler(workers=4),
                          rebalance_every=100).run(
            iter(skewed_stream(tuples=500)))
        assert stats.rebalances == 5
