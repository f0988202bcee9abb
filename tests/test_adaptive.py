"""Tests for adaptive execution (repro.adaptive) — ISSUE 9.

Four layers of coverage:

1. **Router unit tests** with an injected deterministic clock and a
   fake host: cost-model tier choice, promotion/demotion thresholds,
   governor budget rollback, pressure sweeps, re-bucket hysteresis,
   snapshot/restore warm start.
2. **Engine satellites**: per-window incremental attribution, and the
   empty-preagg fast path staying answer-identical with observability
   on and off.
3. **Differential invariance** (the tentpole's safety contract):
   a Hypothesis-driven schedule randomly promotes/demotes incremental
   keys and re-sizes preagg buckets *mid-stream*, and every answer must
   stay byte-identical to an untouched static twin — integer-valued
   data, exact ``==``, same contract as ``tests/test_fused_fold.py``.
   Includes a durable crash (snapshot + recover) and a cluster
   ``FaultInjector.crash_restart`` with router-state survival.
4. **Smoke tests** (``-k smoke`` → ``make smoke``): compact
   end-to-end runs of the promotion and re-bucketing loops.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OpenMLDB
from repro.adaptive import ExecutionRouter, RouterConfig, Tier
from repro.cluster import FaultInjector, NameServer, TabletServer
from repro.cluster.failover import RetryPolicy
from repro.ctlplane import ShardMigrator
from repro.memory.governor import MemoryGovernor
from repro.schema import IndexDef, Schema

KEYS = ("u1", "u2", "u3", "u4")

FEATURE_SQL = (
    "SELECT k, sum(a) OVER w AS s_a, count(a) OVER w AS c_a, "
    "min(a) OVER w AS mn_a, max(a) OVER w AS mx_a "
    "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
    "ROWS_RANGE BETWEEN 2000 PRECEDING AND CURRENT ROW)")

FAST = RetryPolicy(attempts=2, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=1.0, rpc_timeout_ms=20.0)


def make_db(adaptive=False, config=None, **kwargs):
    db = OpenMLDB(observability=True, **kwargs)
    db.execute("CREATE TABLE t (k string, ts timestamp, a int, "
               "INDEX(KEY=k, TS=ts))")
    deployment = db.deploy("feat", FEATURE_SQL, adaptive=adaptive,
                           router_config=config)
    return db, deployment


# ----------------------------------------------------------------------
# 1. router unit tests (fake clock, fake host)


class FakeState:
    """Stands in for a selective IncrementalWindowState."""

    selective = True

    def __init__(self, rows_per_key=4, refuse=()):
        self.keys = {}
        self.rows_per_key = rows_per_key
        self.refuse = set(refuse)

    @property
    def key_count(self):
        return len(self.keys)

    def provision_key(self, key):
        if key in self.refuse:
            return None
        if key in self.keys:
            return 0
        self.keys[key] = True
        return self.rows_per_key

    def retire_key(self, key):
        return self.rows_per_key if self.keys.pop(key, None) else 0

    def tracked_keys(self):
        return list(self.keys)


class FakeHost:
    def __init__(self, state=None):
        self.incrementals = {"w": state or FakeState()}
        self.preaggs = {}
        self.rebucketed = []

    def rebucket_preagg(self, window, bucket_ms):
        self.rebucketed.append((window, bucket_ms))
        return True


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_router(config=None, state=None, governor=None):
    clock = FakeClock()
    router = ExecutionRouter(config=config or RouterConfig(),
                             clock=clock)
    host = FakeHost(state)
    router.bind_host(host)
    if governor is not None:
        router.bind_governor(governor)
    return router, host, clock


class TestDecide:
    def test_unmeasured_tiers_tie_break_incremental_first(self):
        router, _host, _clock = make_router()
        assert router.decide("w", "u1", has_incremental=True,
                             has_preagg=True) == Tier.INCREMENTAL
        assert router.decide("w", "u1", has_incremental=False,
                             has_preagg=True) == Tier.PREAGG
        assert router.decide("w", "u1", has_incremental=False,
                             has_preagg=False) == Tier.SCAN

    def test_measured_costs_pick_the_argmin(self):
        router, _host, _clock = make_router()
        router.note_request("w", "u1")
        # scan: 10 blocks × 0.1 ms = 1.0 ms; incremental: 0.02 ms.
        router.observe_scan("w", "u1", ms=1.0, blocks=10)
        router.observe_incremental("w", ms=0.02, hit=True)
        router.observe_preagg("w", ms=0.5)
        assert router.decide("w", "u1", True, True) == Tier.INCREMENTAL
        # Incremental gone (e.g. key demoted): preagg beats the scan.
        assert router.decide("w", "u1", False, True) == Tier.PREAGG

    def test_expensive_incremental_loses_to_cheap_scan(self):
        router, _host, _clock = make_router()
        router.note_request("w", "u1")
        router.observe_scan("w", "u1", ms=0.01, blocks=1)
        router.observe_incremental("w", ms=5.0, hit=True)
        assert router.decide("w", "u1", True, False) == Tier.SCAN

    def test_per_key_block_estimate_overrides_window_average(self):
        router, _host, _clock = make_router()
        router.note_request("w", "big")
        router.note_request("w", "small")
        router.observe_scan("w", "big", ms=10.0, blocks=100)
        router.observe_scan("w", "small", ms=0.01, blocks=1)
        # Blended per-block EWMA ≈ 0.082 ms: the 100-block key scans at
        # ≈ 8.2 ms, the 1-block key at ≈ 0.082 ms.
        router.observe_incremental("w", ms=0.2, hit=True)
        assert router.decide("w", "big", True, False) == Tier.INCREMENTAL
        assert router.decide("w", "small", True, False) == Tier.SCAN

    def test_decisions_counted(self):
        router, _host, _clock = make_router()
        for _ in range(3):
            router.decide("w", "u1", True, False)
        assert router.stats()["decisions"][Tier.INCREMENTAL] == 3


class TestPromotionDemotion:
    def hot_setup(self, config=None, state=None, governor=None):
        router, host, clock = make_router(config=config, state=state,
                                          governor=governor)
        # u1 hot (10 req/s for 60 s), u2 one lone request.
        for tick in range(600):
            clock.now = tick * 0.1
            router.note_request("w", "u1")
        router.note_request("w", "u2")
        router.observe_scan("w", "u1", ms=1.0, blocks=10)
        router.observe_incremental("w", ms=0.05, hit=True)
        return router, host, clock

    def test_hot_key_promoted_cold_left_alone(self):
        router, host, _clock = self.hot_setup()
        router.tick()
        assert "u1" in host.incrementals["w"].keys
        assert "u2" not in host.incrementals["w"].keys
        assert router.promotions == 1

    def test_promotion_needs_rate_and_saving(self):
        config = RouterConfig(promote_min_saved_ms_per_s=10_000.0)
        router, host, _clock = self.hot_setup(config=config)
        router.tick()
        assert host.incrementals["w"].keys == {}

    def test_declined_reservation_rolls_back(self):
        governor = MemoryGovernor("t", max_memory_mb=1)
        governor.charge(1024 * 1024 - 10)  # budget exhausted
        router, host, _clock = self.hot_setup(governor=governor)
        router.tick()
        assert host.incrementals["w"].keys == {}
        assert router.promotions == 0
        assert router.stats()["reserved_bytes"] == 0
        governor.release(governor.used_bytes)

    def test_refused_provision_retries_later(self):
        state = FakeState(refuse={"u1"})
        router, host, _clock = self.hot_setup(state=state)
        router.tick()
        assert host.incrementals["w"].keys == {}
        state.refuse.clear()
        router.tick()
        assert "u1" in host.incrementals["w"].keys

    def test_cold_key_demoted_and_reservation_released(self):
        governor = MemoryGovernor("t", max_memory_mb=8)
        router, host, clock = self.hot_setup(governor=governor)
        router.tick()
        reserved = router.stats()["reserved_bytes"]
        assert reserved > 0
        assert governor.used_bytes == reserved
        clock.now += 3600.0  # decay far past the demotion threshold
        router.tick()
        assert host.incrementals["w"].keys == {}
        assert router.demotions == 1
        assert governor.used_bytes == 0

    def test_pressure_sweeps_coldest_fraction(self):
        governor = MemoryGovernor("t", max_memory_mb=8)
        config = RouterConfig(demote_min_rate=0.0,
                              pressure_demote_fraction=1.0)
        router, host, clock = make_router(config=config,
                                          governor=governor)
        for tick in range(600):
            clock.now = tick * 0.1
            router.note_request("w", "u1")
            router.note_request("w", "u2")
        router.observe_scan("w", "u1", ms=1.0, blocks=10)
        router.tick()
        assert len(host.incrementals["w"].keys) == 2
        # Crossing the pressure fraction schedules a sweep of every
        # tracked key (fraction 1.0) on the next tick.
        governor.charge(int(8 * 1024 * 1024 * 0.95))
        assert router._pressure_pending
        clock.now += 0.1
        router.tick()
        assert host.incrementals["w"].keys == {}
        assert router.demotions == 2


class TestRebucket:
    def make(self, bucket_ms=86_400_000):
        class Slot:
            def __init__(self, width):
                self.bucket_ms = width

        config = RouterConfig(min_span_samples=4, target_bucket_merges=16,
                              min_bucket_ms=1_000)
        router, host, clock = make_router(config=config)
        host.preaggs = {"w": {0: Slot(bucket_ms)}}
        return router, host, clock

    def test_wildly_oversized_bucket_resized_to_span_p50(self):
        router, host, _clock = self.make(bucket_ms=86_400_000)
        for _ in range(8):
            router.observe_span("w", 3_600_000)
        router.tick()
        assert host.rebucketed == [("w", 3_600_000 // 16)]
        assert router.rebuckets == 1

    def test_hysteresis_leaves_close_widths_alone(self):
        router, host, _clock = self.make(bucket_ms=300_000)
        for _ in range(8):
            router.observe_span("w", 3_600_000)
        router.tick()  # desired 225 000 vs current 300 000: within 4×
        assert host.rebucketed == []

    def test_no_rebucket_before_min_samples(self):
        router, host, _clock = self.make(bucket_ms=86_400_000)
        for _ in range(3):
            router.observe_span("w", 3_600_000)
        router.tick()
        assert host.rebucketed == []
        assert router.desired_bucket_ms("w") is None

    def test_floor_applies(self):
        router, host, _clock = self.make(bucket_ms=86_400_000)
        for _ in range(8):
            router.observe_span("w", 2_000)
        router.tick()
        assert host.rebucketed == [("w", 1_000)]


class TestSnapshotRestore:
    def test_round_trip_requeues_hot_keys_and_costs(self):
        router, host, clock = make_router()
        for tick in range(600):
            clock.now = tick * 0.1
            router.note_request("w", "u1")
        router.observe_scan("w", "u1", ms=1.0, blocks=10)
        router.observe_incremental("w", ms=0.05, hit=True)
        router.tick()
        assert "u1" in host.incrementals["w"].keys
        snapshot = router.state_snapshot()
        assert snapshot["hot_keys"]["w"] == ["u1"]

        fresh, fresh_host, _fresh_clock = make_router()
        fresh.restore_state(snapshot)
        # Costs applied immediately: the restored model still knows the
        # incremental tier is cheaper than a 10-block scan.
        assert fresh.decide("w", "u1", True, False) == Tier.INCREMENTAL
        fresh.tick()  # warm keys re-provision on the first tick
        assert "u1" in fresh_host.incrementals["w"].keys

    def test_snapshot_is_plain_data(self):
        import json

        router, _host, clock = make_router()
        clock.now = 1.0
        router.note_request("w", "u1")
        router.observe_scan("w", "u1", ms=1.0, blocks=10)
        json.dumps(router.state_snapshot())  # no custom objects inside


# ----------------------------------------------------------------------
# 2. engine satellites


class TestEngineSatellites:
    def test_per_window_incremental_attribution(self):
        # Selective state makes hit/fallback deterministic: untracked
        # keys always fall back, provisioned keys always hit.
        config = RouterConfig(tick_interval=10 ** 9)  # router inert
        db, deployment = make_db(adaptive=True, config=config)
        for i in range(20):
            db.insert("t", (KEYS[i % 2], 1_000 + i * 10, i))
        db.flush_preagg()
        db.request_row("feat", ("u1", 2_000, 0))  # untracked: fallback
        assert deployment.incrementals["w"].provision_key("u1") \
            is not None
        db.request_row("feat", ("u1", 2_000, 0))  # tracked: hit
        stats = db.online_engine.stats.incremental_window_stats()
        assert stats["w"]["hits"] == 1
        assert stats["w"]["fallbacks"] == 1
        # Engine-wide counters still agree with the breakdown.
        assert db.online_engine.stats.incremental_hits == 1
        assert db.online_engine.stats.incremental_fallbacks == 1

    def test_attribution_without_observability(self):
        db = OpenMLDB()  # observability off
        db.execute("CREATE TABLE t (k string, ts timestamp, a int, "
                   "INDEX(KEY=k, TS=ts))")
        db.deploy("feat", FEATURE_SQL)
        db.insert("t", ("u1", 1_000, 1))
        db.flush_preagg()
        db.request_row("feat", ("u1", 2_000, 0))
        stats = db.online_engine.stats.incremental_window_stats()
        assert stats == {"w": {"hits": 1, "fallbacks": 0}}

    @pytest.mark.parametrize("observability", [False, True])
    def test_empty_preagg_mapping_matches_none(self, observability):
        """Satellite 1: the empty-preagg fast path (no per-request dict
        copy) must answer identically to passing no preagg at all,
        with observability on and off."""
        db = OpenMLDB(observability=observability)
        db.execute("CREATE TABLE t (k string, ts timestamp, a int, "
                   "INDEX(KEY=k, TS=ts))")
        deployment = db.deploy("feat", FEATURE_SQL)
        for i in range(10):
            db.insert("t", ("u1", 1_000 + i * 10, i))
        db.flush_preagg()
        request = ("u1", 2_000, 0)
        baseline = db.online_engine.execute_request(
            deployment.compiled, request, preagg=None)
        empty = db.online_engine.execute_request(
            deployment.compiled, request, preagg={"w": {}})
        assert empty == baseline


# ----------------------------------------------------------------------
# 3. differential invariance (the tentpole's safety contract)


def _twin_dbs(events, config=None):
    adaptive_db, adaptive_dep = make_db(adaptive=True, config=config)
    static_db, _static_dep = make_db(adaptive=False)
    for key, ts, value in events:
        adaptive_db.insert("t", (key, ts, value))
        static_db.insert("t", (key, ts, value))
    adaptive_db.flush_preagg()
    static_db.flush_preagg()
    return adaptive_db, adaptive_dep, static_db


_events = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(0, 3000),
              st.integers(-50, 50)),
    min_size=1, max_size=60)
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(KEYS),
                  st.integers(0, 4000), st.integers(-50, 50)),
        st.tuples(st.just("request"), st.sampled_from(KEYS + ("cold",)),
                  st.integers(0, 5000)),
        st.tuples(st.just("promote"), st.sampled_from(KEYS)),
        st.tuples(st.just("demote"), st.sampled_from(KEYS)),
    ),
    min_size=4, max_size=40)


class TestAnswerInvariance:
    @settings(max_examples=40, deadline=None)
    @given(events=_events, actions=_actions)
    def test_random_promote_demote_mid_stream_byte_identical(
            self, events, actions):
        """Promotions/demotions at arbitrary schedule points never
        change an answer: the adaptive instance stays ``==`` a static
        twin request-for-request (integer data → exact equality)."""
        adaptive_db, adaptive_dep, static_db = _twin_dbs(events)
        state = adaptive_dep.incrementals["w"]
        for action in actions:
            if action[0] == "insert":
                _, key, ts, value = action
                adaptive_db.insert("t", (key, ts, value))
                static_db.insert("t", (key, ts, value))
                adaptive_db.flush_preagg()
                static_db.flush_preagg()
            elif action[0] == "request":
                _, key, ts = action
                request = (key, ts, 0)
                assert adaptive_db.request_row("feat", request) \
                    == static_db.request_row("feat", request)
            elif action[0] == "promote":
                state.provision_key(action[1])
            else:
                state.retire_key(action[1])

    @settings(max_examples=25, deadline=None)
    @given(events=_events,
           widths=st.lists(st.integers(1, 4000), min_size=1, max_size=4),
           anchors=st.lists(st.integers(0, 5000), min_size=1,
                            max_size=6))
    def test_rebucket_mid_stream_byte_identical(self, events, widths,
                                                anchors):
        """Live bucket re-sizing (the rebucket_preagg swap protocol)
        never changes an answer, whatever width sequence is applied."""
        adaptive_db, adaptive_dep, _static = _twin_dbs(events)
        static_db, _dep = make_db(adaptive=False)
        # The static twin serves the same script WITHOUT preagg, so the
        # comparison crosses tiers as well as widths.
        for key, ts, value in events:
            static_db.insert("t", (key, ts, value))
        static_db.flush_preagg()
        preagg_db = OpenMLDB(observability=True)
        preagg_db.execute("CREATE TABLE t (k string, ts timestamp, "
                          "a int, INDEX(KEY=k, TS=ts))")
        preagg_dep = preagg_db.deploy("feat", FEATURE_SQL,
                                      long_windows="w:1s",
                                      adaptive=True)
        for key, ts, value in events:
            preagg_db.insert("t", (key, ts, value))
        preagg_db.flush_preagg()
        for width in widths:
            preagg_db.flush_preagg()
            preagg_dep.rebucket_preagg("w", width)
            for anchor in anchors:
                for key in KEYS:
                    request = (key, anchor, 0)
                    assert preagg_db.request_row("feat", request) \
                        == static_db.request_row("feat", request)

    def test_invariance_across_durable_crash(self, tmp_path):
        """Adaptive state adapts, crashes, recovers — answers stay
        byte-identical to a never-crashed static twin, and the router
        snapshot warm-starts the recovered instance's hot set."""
        config = RouterConfig(tick_interval=8, promote_min_rate=0.0,
                              promote_min_saved_ms_per_s=-1e9,
                              demote_min_rate=-1.0)
        data_dir = str(tmp_path / "dur")
        db = OpenMLDB(observability=True, data_dir=data_dir)
        db.execute("CREATE TABLE t (k string, ts timestamp, a int, "
                   "INDEX(KEY=k, TS=ts))")
        deployment = db.deploy("feat", FEATURE_SQL, adaptive=True,
                               router_config=config)
        static_db, _dep = make_db(adaptive=False)
        rng = random.Random(5)
        for i in range(120):
            row = (KEYS[rng.randrange(len(KEYS))], 1_000 + i * 7,
                   rng.randrange(-50, 51))
            db.insert("t", row)
            static_db.insert("t", row)
        db.flush_preagg()
        static_db.flush_preagg()
        for i in range(40):  # heat up u1 → promoted by the router
            db.request_row("feat", ("u1", 2_500 + i, 0))
        assert deployment.router.promotions > 0
        router_snapshot = deployment.router_snapshot()
        db.snapshot()
        db.close()

        recovered = OpenMLDB(observability=True, data_dir=data_dir)
        recovered.execute("CREATE TABLE t (k string, ts timestamp, "
                          "a int, INDEX(KEY=k, TS=ts))")
        recovered_dep = recovered.deploy("feat", FEATURE_SQL,
                                         adaptive=True,
                                         router_config=config)
        recovered.recover()
        recovered_dep.restore_router(router_snapshot)
        for i in range(40):
            for key in KEYS + ("cold",):
                request = (key, 3_000 + i, 0)
                assert recovered.request_row("feat", request) \
                    == static_db.request_row("feat", request)
        # The warm keys re-provisioned on the first post-restore tick.
        assert recovered_dep.incrementals["w"].key_count > 0

    def test_router_state_survives_cluster_crash_restart(self, tmp_path):
        """Tablet-hosted router snapshots live outside the wiped stores:
        a full crash_restart keeps them, and a fresh router restored
        from one re-promotes the hot set — while the served answers
        stay identical across the crash."""
        schema = Schema.from_pairs([
            ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
        servers = [TabletServer(f"tablet-{i}") for i in range(3)]
        cluster = NameServer(servers, retry_policy=FAST,
                             data_dir=str(tmp_path / "cluster"))
        cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                             partitions=2, replicas=2)
        faults = FaultInjector(cluster)
        for i in range(120):
            cluster.put("t", (i % 7, 1_000 + i, float(i % 13)))
        cluster.replication_barrier()
        cluster.snapshot("t")
        cluster.deploy(
            "feat",
            "SELECT uid, sum(v) OVER w AS s FROM t "
            "WINDOW w AS (PARTITION BY uid ORDER BY ts "
            "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
        before = {uid: cluster.request("feat", (uid, 2_000, 0.0))
                  for uid in range(7)}

        # A router calibrated on this tablet's traffic checkpoints here.
        victim = cluster.leader_of("t", 0).name
        router, _host, clock = make_router()
        for tick in range(600):
            clock.now = tick * 0.1
            router.note_request("w", "u1")
        router.observe_scan("w", "u1", ms=1.0, blocks=10)
        router.tick()
        cluster.tablets[victim].save_router_state(
            "feat", router.state_snapshot())

        report = faults.crash_restart(victim)
        assert report.node == victim

        saved = cluster.tablets[victim].load_router_state("feat")
        assert saved is not None and saved["hot_keys"]["w"] == ["u1"]
        fresh, fresh_host, _clock = make_router()
        fresh.restore_state(saved)
        fresh.tick()
        assert "u1" in fresh_host.incrementals["w"].keys
        for uid in range(7):
            assert cluster.request("feat", (uid, 2_000, 0.0)) \
                == before[uid]

    def test_migration_carries_router_state(self, tmp_path):
        schema = Schema.from_pairs([
            ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
        servers = [TabletServer(f"tablet-{i}") for i in range(3)]
        cluster = NameServer(servers, retry_policy=FAST)
        cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                             partitions=1, replicas=2)
        for i in range(50):
            cluster.put("t", (i % 5, 1_000 + i, float(i)))
        cluster.replication_barrier()
        placement = cluster.tables["t"].assignment[0]
        source = placement[0]
        target = next(name for name in cluster.tablets
                      if name not in placement)
        snapshot = {"windows": {}, "hot_keys": {"w": ["u1"]}}
        cluster.tablets[source].save_router_state("feat", snapshot)
        ShardMigrator(cluster).migrate("t", 0, source, target)
        assert cluster.tablets[target].load_router_state("feat") \
            == snapshot


# ----------------------------------------------------------------------
# 4. smoke (make smoke)


class TestAdaptiveSmoke:
    def test_smoke_router_promotes_and_matches_static_twin(self):
        """The cheap end-to-end gate: a skewed request stream drives
        real promotions through the full deploy/request path, answers
        stay byte-identical to a static twin throughout, and the
        decision mix shifts onto the incremental tier."""
        config = RouterConfig(tick_interval=16, promote_min_rate=0.1,
                              promote_min_saved_ms_per_s=-1e9,
                              demote_min_rate=-1.0)
        rng = random.Random(7)
        events = [(KEYS[rng.randrange(len(KEYS))], 1_000 + i * 3,
                   rng.randrange(-50, 51)) for i in range(400)]
        adaptive_db, adaptive_dep, static_db = _twin_dbs(events, config)
        for i in range(200):
            key = "u1" if i % 4 else KEYS[rng.randrange(len(KEYS))]
            request = (key, 3_000 + i, 0)
            assert adaptive_db.request_row("feat", request) \
                == static_db.request_row("feat", request)
        stats = adaptive_dep.router.stats()
        assert stats["ticks"] > 0
        assert stats["promotions"] > 0
        assert stats["decisions"][Tier.INCREMENTAL] > 0
        assert adaptive_dep.adaptive_stats()["tracked_keys"]["w"] > 0
        registry = adaptive_db.obs.registry
        assert registry.get("online.router.ticks").value > 0
        assert registry.get("online.router.decisions",
                            tier="incremental").value > 0

    def test_smoke_rebucket_converges_and_stays_exact(self):
        """1-day DDL buckets vs ~1-hour observed spans: the router
        re-buckets to span_p50/target and every answer stays identical
        to an un-preagged twin."""
        config = RouterConfig(tick_interval=16, min_span_samples=8,
                              promote_min_rate=1e9)
        sql = ("SELECT k, sum(a) OVER w AS s FROM t WINDOW w AS ("
               "PARTITION BY k ORDER BY ts "
               "ROWS_RANGE BETWEEN 3600000 PRECEDING AND CURRENT ROW)")
        adaptive_db = OpenMLDB(observability=True)
        plain_db = OpenMLDB()
        for db in (adaptive_db, plain_db):
            db.execute("CREATE TABLE t (k string, ts timestamp, a int, "
                       "INDEX(KEY=k, TS=ts))")
        deployment = adaptive_db.deploy("feat", sql, long_windows="w:1d",
                                        adaptive=True,
                                        router_config=config)
        plain_db.deploy("feat", sql)
        rng = random.Random(3)
        ts0 = 1_650_000_000_000
        for i in range(1500):
            row = (f"u{rng.randrange(8)}", ts0 + i * 60_000,
                   rng.randrange(-50, 51))
            adaptive_db.insert("t", row)
            plain_db.insert("t", row)
        adaptive_db.flush_preagg()
        plain_db.flush_preagg()
        assert deployment.adaptive_stats()["bucket_ms"]["w"] \
            == 86_400_000
        for i in range(200):
            request = (f"u{rng.randrange(8)}", ts0 + 1_500 * 60_000 + i,
                       0)
            assert adaptive_db.request_row("feat", request) \
                == plain_db.request_row("feat", request)
        assert deployment.router.rebuckets >= 1
        assert deployment.adaptive_stats()["bucket_ms"]["w"] \
            == 3_600_000 // config.target_bucket_merges
