"""Tests for the observability layer (repro.obs) and its wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OpenMLDB
from repro.cluster import NameServer, TabletServer
from repro.errors import DeadlineExceededError, ExecutionError
from repro.obs import (BUCKET_BOUNDS_MS, Histogram, MetricsRegistry,
                       NULL_COUNTER, NULL_SPAN, Observability, Tracer)
from repro.schema import IndexDef, Schema
from repro.serving.deadline import Deadline, deadline_scope


# ----------------------------------------------------------------------
# metrics

class TestHistogram:
    def test_bucket_layout_is_log2_from_one_microsecond(self):
        assert BUCKET_BOUNDS_MS[0] == pytest.approx(0.001)
        for left, right in zip(BUCKET_BOUNDS_MS, BUCKET_BOUNDS_MS[1:]):
            assert right == pytest.approx(left * 2)

    def test_observe_tracks_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (0.5, 1.5, 4.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(6.0)
        assert histogram.min == pytest.approx(0.5)
        assert histogram.max == pytest.approx(4.0)
        assert histogram.mean == pytest.approx(2.0)

    def test_percentile_is_bucket_upper_bound_clamped_to_max(self):
        histogram = Histogram("h")
        histogram.observe(0.9)  # falls in the (0.512, 1.024] bucket
        # The bucket bound 1.024 exceeds the observed max → clamped.
        assert histogram.percentile(50) == pytest.approx(0.9)
        assert histogram.percentile(99) == pytest.approx(0.9)

    def test_percentiles_are_ordered(self):
        histogram = Histogram("h")
        for index in range(100):
            histogram.observe(0.01 * (index + 1))
        p50, p95, p99 = (histogram.percentile(p) for p in (50, 95, 99))
        assert 0 < p50 <= p95 <= p99 <= histogram.max

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").percentile(99) == 0.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h")
        huge = BUCKET_BOUNDS_MS[-1] * 10
        histogram.observe(huge)
        assert histogram.percentile(99) == pytest.approx(huge)

    def test_merge_equals_observing_in_one_histogram(self):
        left, right, combined = (Histogram("h") for _ in range(3))
        left_samples = [0.002, 0.13, 1.7, 9.0]
        right_samples = [0.004, 0.26, 55.0]
        for value in left_samples:
            left.observe(value)
            combined.observe(value)
        for value in right_samples:
            right.observe(value)
            combined.observe(value)
        left.merge(right)
        assert left.counts == combined.counts
        assert left.count == combined.count
        assert left.total == pytest.approx(combined.total)
        assert left.min == combined.min
        assert left.max == combined.max
        for p in (50, 95, 99):
            assert left.percentile(p) == combined.percentile(p)


#: Millisecond samples spanning the whole layout: sub-microsecond,
#: every log bucket, and past the top bound (the overflow slot).
_SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=BUCKET_BOUNDS_MS[-1] * 4,
              allow_nan=False, allow_infinity=False),
    max_size=60)
_PERCENTILES = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False)


class TestHistogramProperties:
    """Property tests: mergeability is *exact*, not approximate.

    The fixed log-bucket layout makes per-bucket counts additive, so a
    merged histogram must answer every percentile identically to one
    that observed the union directly — that exactness is what lets
    offline pool workers ship state dicts instead of raw samples.
    """

    @given(left=_SAMPLES, right=_SAMPLES, p=_PERCENTILES)
    @settings(deadline=None, max_examples=150)
    def test_merged_percentiles_equal_union_percentiles(
            self, left, right, p):
        one, other, union = (Histogram("h") for _ in range(3))
        for value in left:
            one.observe(value)
            union.observe(value)
        for value in right:
            other.observe(value)
            union.observe(value)
        one.merge_state(other.state())
        assert one.counts == union.counts
        assert one.percentile(p) == union.percentile(p)
        assert one.min == union.min and one.max == union.max

    @given(samples=_SAMPLES, p=_PERCENTILES)
    @settings(deadline=None, max_examples=150)
    def test_percentile_bounded_and_at_bucket_resolution(
            self, samples, p):
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        result = histogram.percentile(p)
        if not samples:
            assert result == 0.0
            return
        # Never below the true minimum's bucket, never above the
        # observed max, and p=100 is exactly the max.
        assert result <= max(samples)
        assert histogram.percentile(100) == max(samples)
        # Power-of-two layout: the reported quantile is the holding
        # bucket's upper bound (clamped to max) — at most 2x the true
        # quantile for in-range values.
        ordered = sorted(samples)
        target = max(1, int(p / 100.0 * len(ordered) + 0.9999))
        true_quantile = ordered[target - 1]
        if 0 < true_quantile <= BUCKET_BOUNDS_MS[-1]:
            assert result <= max(true_quantile * 2, BUCKET_BOUNDS_MS[0])

    @given(samples=_SAMPLES)
    @settings(deadline=None, max_examples=100)
    def test_percentile_is_monotone_in_p(self, samples):
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        results = [histogram.percentile(p)
                   for p in (0, 25, 50, 75, 90, 99, 99.9, 100)]
        assert results == sorted(results)

    @given(value=st.floats(min_value=0.0,
                           max_value=BUCKET_BOUNDS_MS[-1] * 4,
                           allow_nan=False, allow_infinity=False),
           p=_PERCENTILES)
    @settings(deadline=None, max_examples=100)
    def test_single_sample_answers_itself_everywhere(self, value, p):
        histogram = Histogram("h")
        histogram.observe(value)
        assert histogram.percentile(p) == value

    @given(samples=st.lists(
        st.floats(min_value=BUCKET_BOUNDS_MS[-1] * 1.001,
                  max_value=BUCKET_BOUNDS_MS[-1] * 100,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20))
    @settings(deadline=None, max_examples=100)
    def test_above_top_bucket_reports_observed_max(self, samples):
        # Overflow samples share one slot; the only honest answer for
        # any quantile landing there is the tracked exact max.
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        for p in (50, 99, 100):
            assert histogram.percentile(p) == max(samples)

    @given(left=_SAMPLES, right=_SAMPLES)
    @settings(deadline=None, max_examples=100)
    def test_merge_state_roundtrips_through_plain_data(
            self, left, right):
        import pickle
        one, union = Histogram("h"), Histogram("h")
        for value in left:
            one.observe(value)
            union.observe(value)
        other = Histogram("h")
        for value in right:
            other.observe(value)
            union.observe(value)
        # state() must pickle (it crosses process boundaries in the
        # offline pool) and merge back exactly.
        one.merge_state(pickle.loads(pickle.dumps(other.state())))
        assert one.counts == union.counts
        assert one.count == union.count
        assert one.percentile(99) == union.percentile(99)


class TestRegistry:
    def test_same_name_and_labels_return_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", table="t1")
        b = registry.counter("hits", table="t1")
        c = registry.counter("hits", table="t2")
        assert a is b
        assert a is not c
        a.inc()
        assert b.value == 1 and c.value == 0

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x", table="t", tablet="n0")
        b = registry.counter("x", tablet="n0", table="t")
        assert a is b
        assert len(list(registry.series())) == 1

    def test_labels_view_prebinds(self):
        registry = MetricsRegistry()
        view = registry.labels(table="txns")
        view.counter("storage.inserts").inc(5)
        assert registry.get("storage.inserts", table="txns").value == 5

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.inc(3)
        gauge.inc(-1)
        assert gauge.value == 2
        gauge.set(10)
        assert gauge.value == 10

    def test_registry_merge_adds_counters_and_merges_histograms(self):
        fleet, tablet = MetricsRegistry(), MetricsRegistry()
        fleet.counter("rpc", tablet="a").inc(2)
        tablet.counter("rpc", tablet="a").inc(3)
        tablet.histogram("lat").observe(1.0)
        fleet.merge(tablet)
        assert fleet.get("rpc", tablet="a").value == 5
        assert fleet.get("lat").count == 1

    def test_render_text_and_json(self):
        registry = MetricsRegistry()
        registry.counter("hits", table="t").inc(7)
        registry.histogram("lat").observe(0.5)
        text = registry.render()
        assert "counter   hits{table=t} 7" in text
        assert "histogram lat count=1" in text
        import json
        snapshots = json.loads(registry.render(format="json"))
        assert {"name": "hits", "type": "counter", "labels": {"table": "t"},
                "value": 7} in snapshots

    def test_empty_render(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"

    def test_disabled_registry_hands_out_shared_null(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("hits", table="t")
        assert counter is NULL_COUNTER
        counter.inc(100)
        assert len(list(registry.series())) == 0


# ----------------------------------------------------------------------
# tracing

class TestTracer:
    def test_with_blocks_nest_via_thread_local_stack(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert child.trace_id == root.trace_id == grandchild.trace_id

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_explicit_parent_for_other_thread(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        span = tracer.span("pool-task", parent=root)
        span.finish()
        assert span.parent_id == root.span_id

    def test_inject_start_from_stitches_across_hops(self):
        tracer = Tracer()
        with tracer.span("frontend"):
            ctx = tracer.inject()
            # the "remote" side resumes from the wire context
            with tracer.start_from(ctx, "tablet-side") as remote:
                pass
        assert remote.trace_id == ctx["trace_id"]
        assert remote.parent_id == ctx["span_id"]

    def test_export_is_sorted_and_filterable(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        ids = tracer.trace_ids()
        assert len(ids) == 2
        only = tracer.export(ids[0])
        assert [span["name"] for span in only] == ["one"]
        assert all("duration_ms" in span for span in tracer.export())

    def test_render_draws_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        text = tracer.render()
        assert "root" in text and "└─ leaf" in text

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", tag=1)
        assert span is NULL_SPAN
        with span:
            span.set_tag(more=2)
        assert tracer.export() == []
        assert tracer.inject() is None


# ----------------------------------------------------------------------
# single-node wiring

class TestSingleNodeWiring:
    @pytest.fixture
    def db(self):
        db = OpenMLDB(observability=True)
        db.execute(
            "CREATE TABLE txns (card string, ts timestamp, amount double,"
            " INDEX(KEY=card, TS=ts))")
        for k in range(20):
            db.insert("txns", (f"c{k % 4}", 1_000 + k * 100, float(k)))
        db.deploy(
            "feat",
            "SELECT card, sum(amount) OVER w AS s FROM txns "
            "WINDOW w AS (PARTITION BY card ORDER BY ts "
            "  ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
        return db

    def test_request_produces_full_span_set(self, db):
        db.request("feat", ("c1", 10_000, 5.0))
        spans = {span["name"]: span for span in db.obs.tracer.last_trace()}
        assert {"deployment.execute", "window.scan", "agg.fold",
                "encode"} <= spans.keys()

    def test_request_metrics_accumulate(self, db):
        for _ in range(3):
            db.request("feat", ("c1", 10_000, 5.0))
        registry = db.obs.registry
        assert registry.get("online.requests").value == 3
        assert registry.get("online.request.ms").count == 3
        assert registry.get("storage.inserts", table="txns").value == 20
        assert registry.get("sql.compile.cache_misses").value >= 1

    def test_offline_run_traced_with_task_histogram(self, db):
        db.offline_query(
            "SELECT card, count(amount) OVER w AS n FROM txns "
            "WINDOW w AS (PARTITION BY card ORDER BY ts "
            "  ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
        names = {span["name"] for span in db.obs.tracer.last_trace()}
        assert {"offline.execute", "offline.window",
                "offline.project"} <= names
        assert db.obs.registry.get("offline.task.ms", window="w").count > 0

    def test_disabled_db_records_nothing(self):
        db = OpenMLDB()
        db.execute(
            "CREATE TABLE t (k string, ts timestamp, v double,"
            " INDEX(KEY=k, TS=ts))")
        db.insert("t", ("a", 1_000, 1.0))
        db.deploy("d", "SELECT k, sum(v) OVER w AS s FROM t "
                       "WINDOW w AS (PARTITION BY k ORDER BY ts "
                       "  ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)")
        db.request("d", ("a", 2_000, 2.0))
        db.offline_query("SELECT k, count(v) OVER w AS n FROM t "
                         "WINDOW w AS (PARTITION BY k ORDER BY ts "
                         "  ROWS_RANGE BETWEEN 1s PRECEDING "
                         "  AND CURRENT ROW)")
        assert not db.obs.enabled
        assert len(list(db.obs.registry.series())) == 0
        assert db.obs.tracer.export() == []

    def test_registry_equals_engine_stats_on_every_exit(self):
        """One publish step feeds both views, whatever ends the request.

        Three exits used to diverge: rows a residual ``LAST JOIN``
        walked never reached ``online.rows_scanned``; a ``WHERE``
        rejection dropped its ``online.join_lookups``; and a deadline
        expiring mid-plan skipped ``EngineStats`` altogether.
        """
        db = OpenMLDB(observability=True)
        db.execute(
            "CREATE TABLE txns (card string, ts timestamp, amount double,"
            " INDEX(KEY=card, TS=ts))")
        db.execute(
            "CREATE TABLE cards (cid string, cts timestamp, tier string,"
            " INDEX(KEY=cid, TS=cts))")
        for k in range(6):
            db.insert("txns", ("c1", 1_000 + k * 100, float(k)))
        for k, tier in enumerate(("gold", "basic", "basic")):
            db.insert("cards", ("c1", 100 + k, tier))
        db.deploy(
            "feat",
            "SELECT txns.card AS card, cards.tier AS tier, "
            "  count(amount) OVER w AS n "
            "FROM txns LAST JOIN cards ON txns.card = cards.cid "
            "  AND cards.tier = 'gold' "
            "WHERE txns.amount > 0 "
            "WINDOW w AS (PARTITION BY card ORDER BY ts "
            "  ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)")
        stats = db.online_engine.stats
        registry = db.obs.registry

        def check(requests, join_lookups, rows_scanned):
            assert (stats.requests, stats.join_lookups,
                    stats.rows_scanned) \
                == (requests, join_lookups, rows_scanned)
            for series, field in (
                    ("online.requests", "requests"),
                    ("online.rows_scanned", "rows_scanned"),
                    ("online.scan.blocks", "scan_blocks"),
                    ("online.join_lookups", "join_lookups")):
                assert registry.get(series).value \
                    == getattr(stats, field), series

        # (a) residual join: walks past two 'basic' rows to the gold
        # one; the window is a three-row scan.
        assert db.request("feat", ("c1", 1_250, 1.0)) \
            == {"card": "c1", "tier": "gold", "n": 4}
        check(1, 1, 3 + 3)
        # (b) WHERE rejects the tuple after the join already ran.
        with pytest.raises(ExecutionError):
            db.request("feat", ("c1", 1_250, -1.0))
        check(2, 2, 6 + 3)
        # (c) the deadline is spent when the window loop checks it.
        with deadline_scope(Deadline.after(0)):
            with pytest.raises(DeadlineExceededError):
                db.request("feat", ("c1", 1_250, 1.0))
        check(3, 3, 9 + 3)

    def test_preagg_counters_via_long_window(self):
        # A long window is served by the storage fold: its sealed blocks'
        # summaries show in online.fold.summary_blocks.
        db = OpenMLDB(observability=True)
        db.execute(
            "CREATE TABLE t (k string, ts timestamp, v double,"
            " INDEX(KEY=k, TS=ts))")
        for k in range(600):
            db.insert("t", ("a", k * 60_000, 1.0))
        db.deploy("lw", "SELECT k, sum(v) OVER w AS s FROM t "
                        "WINDOW w AS (PARTITION BY k ORDER BY ts "
                        "  ROWS_RANGE BETWEEN 1d PRECEDING "
                        "  AND CURRENT ROW)",
                  long_windows="w:1h")
        assert db.request("lw", ("a", 600 * 60_000, 1.0))["s"] == 601.0
        registry = db.obs.registry
        assert registry.get("online.fold.summary_blocks").value == 2
        names = {span["name"] for span in db.obs.tracer.last_trace()}
        assert {"window.scan", "agg.fold"} <= names


# ----------------------------------------------------------------------
# cluster: cross-tablet trace stitching

class TestClusterStitching:
    @pytest.fixture
    def cluster(self):
        obs = Observability(enabled=True)
        tablets = [TabletServer(f"tablet-{i}") for i in range(2)]
        ns = NameServer(tablets, obs=obs)
        events = Schema.from_pairs(
            [("uid", "int"), ("ts", "timestamp"), ("amt", "double")])
        profile = Schema.from_pairs(
            [("puid", "int"), ("pts", "timestamp"), ("tier", "string")])
        # Routing uses the cluster's stable hash, so partition choice
        # is deterministic.  Different partition counts make uid=6 land
        # on different tablets for the two tables (events → partition 0
        # on tablet-0, profile → partition 1 on tablet-1).
        ns.create_table("events", events, [IndexDef(("uid",), "ts")],
                        partitions=4, replicas=2)
        ns.create_table("profile", profile, [IndexDef(("puid",), "pts")],
                        partitions=3, replicas=2)
        for uid in range(8):
            for k in range(5):
                ns.put("events", (uid, 1_000 + k * 100, float(k)))
            ns.put("profile", (uid, 500, f"tier-{uid % 3}"))
        ns.deploy(
            "feat",
            "SELECT uid, sum(amt) OVER w AS s, tier "
            "FROM events LAST JOIN profile ORDER BY pts "
            "  ON events.uid = profile.puid "
            "WINDOW w AS (PARTITION BY uid ORDER BY ts "
            "  ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
        return ns, obs

    def test_one_request_yields_one_stitched_trace(self, cluster):
        ns, obs = cluster
        features = ns.request("feat", (6, 1_500, 9.0))
        assert features["s"] == pytest.approx(19.0)
        assert features["tier"] == "tier-0"
        spans = obs.tracer.last_trace()
        trace_ids = {span["trace_id"] for span in spans}
        assert len(trace_ids) == 1  # one request, one trace
        names = {span["name"] for span in spans}
        assert {"deployment.execute", "index.seek",
                "window.scan", "agg.fold"} <= names
        # The trace must include spans emitted on more than one tablet.
        tablets_in_trace = {span["tags"]["tablet"] for span in spans
                            if "tablet" in span["tags"]}
        assert len(tablets_in_trace) == 2
        # Tablet-side spans hang off the frontend's spans (stitched,
        # not orphaned roots).
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if "tablet" in span["tags"]:
                assert span["parent_id"] in by_id

    def test_render_shows_nonzero_percentiles(self, cluster):
        ns, obs = cluster
        for _ in range(5):
            ns.request("feat", (3, 1_500, 9.0))
        histogram = obs.registry.get("cluster.request.ms")
        assert histogram.count == 5
        assert histogram.percentile(99) > 0
        text = obs.registry.render()
        assert "cluster.request.ms" in text
        assert "p99=0.0000" not in text.split("cluster.request.ms")[1] \
            .splitlines()[0]

    def test_rpc_counters_labelled_per_tablet(self, cluster):
        ns, obs = cluster
        ns.request("feat", (3, 1_500, 9.0))
        writes = sum(
            obs.registry.get("tablet.rpc.writes", tablet=f"tablet-{i}")
            .value for i in range(2))
        replicated = sum(
            obs.registry.get("tablet.rpc.replicated", tablet=f"tablet-{i}")
            .value for i in range(2))
        # 8 uids × (5 events + 1 profile) rows: one leader write plus one
        # replicated follower apply each.
        assert writes == 8 * 6
        assert replicated == 8 * 6
        assert obs.registry.get("ns.requests").value == 1

    def test_failover_counter(self, cluster):
        ns, obs = cluster
        transfers = ns.handle_failure("tablet-0")
        assert transfers > 0
        assert obs.registry.get("ns.failovers").value == transfers

