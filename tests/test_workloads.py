"""Tests for the workload generators (Section 9.1)."""

import pytest

from repro.workloads.glq import (GLQConfig, GridGLQEngine, SparkGLQEngine,
                                 generate_points)
from repro.workloads.microbench import (MicroBenchConfig, build_feature_sql,
                                        generate)
from repro.workloads.rtp import RTPConfig, generate_events
from repro.workloads.talkingdata import TalkingDataConfig, generate_clicks
from repro.workloads import adctr, iot
from repro.workloads.adctr import AdCTRConfig, generate_impressions
from repro.workloads.iot import IoTConfig, generate_readings
from repro import OpenMLDB
from repro.errors import ExecutionError


class TestMicroBench:
    def test_deterministic(self):
        config = MicroBenchConfig(keys=5, rows_per_key=10, seed=1)
        first = generate(config)
        second = generate(config)
        assert first.rows == second.rows
        assert first.requests == second.requests

    def test_row_counts(self):
        config = MicroBenchConfig(keys=5, rows_per_key=12, union_tables=2)
        data = generate(config)
        stream_total = sum(
            len(rows) for name, rows in data.rows.items()
            if name.startswith("mb_main") or name.startswith("mb_stream"))
        assert stream_total == 60

    def test_join_tables_one_row_per_key(self):
        config = MicroBenchConfig(keys=7, rows_per_key=4, joins=2)
        data = generate(config)
        assert len(data.rows["mb_dim0"]) == 7
        assert len(data.rows["mb_dim1"]) == 7

    def test_sql_scales_with_config(self):
        small = build_feature_sql(MicroBenchConfig(windows=1, joins=0,
                                                   value_columns=1))
        large = build_feature_sql(MicroBenchConfig(windows=4, joins=2,
                                                   value_columns=3))
        assert small.count("OVER") == 1
        assert large.count("OVER") == 12
        assert large.count("LAST JOIN") == 2

    def test_sql_parses_and_plans(self):
        from repro.sql.parser import parse_select
        from repro.sql.planner import build_plan
        config = MicroBenchConfig(keys=3, rows_per_key=5, windows=3,
                                  joins=2)
        data = generate(config)
        plan = build_plan(parse_select(build_feature_sql(config)),
                          data.schemas)
        assert len(plan.windows) == 3

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            MicroBenchConfig(union_tables=5)
        with pytest.raises(ValueError):
            MicroBenchConfig(windows=0)


class TestTalkingData:
    def test_schema_shape(self):
        rows = list(generate_clicks(TalkingDataConfig(rows=100)))
        assert len(rows) == 100
        ip, app, device, os_v, channel, ts, attributed = rows[0]
        assert isinstance(ip, str)
        assert isinstance(ts, int)
        assert isinstance(attributed, bool)

    def test_time_ordered(self):
        rows = list(generate_clicks(TalkingDataConfig(rows=500)))
        stamps = [row[5] for row in rows]
        assert stamps == sorted(stamps)

    def test_zipf_skew(self):
        from collections import Counter
        rows = list(generate_clicks(TalkingDataConfig(
            rows=20_000, distinct_ips=1000)))
        counts = Counter(row[0] for row in rows)
        top_share = sum(count for _ip, count
                        in counts.most_common(10)) / len(rows)
        assert top_share > 0.15  # hot ips dominate

    def test_deterministic(self):
        config = TalkingDataConfig(rows=50)
        assert list(generate_clicks(config)) \
            == list(generate_clicks(config))


class TestRTP:
    def test_event_shape(self):
        events = list(generate_events(RTPConfig(events=100)))
        assert len(events) == 100
        user, ts, item, score = events[0]
        assert user.startswith("u")
        assert 0.0 <= score <= 1.0

    def test_time_monotone(self):
        events = list(generate_events(RTPConfig(events=500)))
        stamps = [event[1] for event in events]
        assert stamps == sorted(stamps)


class TestGLQ:
    def test_points_deterministic(self):
        config = GLQConfig(points=200)
        assert list(generate_points(config)) \
            == list(generate_points(config))

    def test_grid_and_spark_agree(self):
        points = list(generate_points(GLQConfig(points=3000)))
        grid = GridGLQEngine(cell=0.05)
        spark = SparkGLQEngine()
        for point in points:
            grid.insert(point)
            spark.insert(point)
        centre = points[0]
        for radius in (0.05, 0.1, 0.2):
            left = grid.query(centre, radius)
            right = spark.query(centre, radius)
            assert left.count == right.count
            assert left.mean_distance == pytest.approx(
                right.mean_distance)
            assert left.nearest == right.nearest

    def test_spark_oom_on_full_table(self):
        points = list(generate_points(GLQConfig(points=2000)))
        spark = SparkGLQEngine(memory_limit_rows=500)
        for point in points:
            spark.insert(point)
        with pytest.raises(ExecutionError, match="OOM"):
            spark.query(points[0], radius=1e9)  # full-table query

    def test_grid_handles_full_table(self):
        points = list(generate_points(GLQConfig(points=2000)))
        grid = GridGLQEngine(cell=1.0)
        for point in points:
            grid.insert(point)
        result = grid.query(points[0], radius=400.0)
        assert result.count == 2000

    def test_empty_result(self):
        grid = GridGLQEngine()
        result = grid.query((0.0, 0.0), 1.0)
        assert result.count == 0
        assert result.nearest is None


class TestAdCTR:
    def test_deterministic(self):
        config = AdCTRConfig(events=500)
        assert list(generate_impressions(config)) \
            == list(generate_impressions(config))

    def test_schema_shape_and_types(self):
        config = AdCTRConfig(events=300)
        for row in generate_impressions(config):
            assert len(row) == len(adctr.SCHEMA.columns)
            campaign, ts, advertiser, slot, cost, click = row
            assert campaign.startswith("cmp")
            assert isinstance(ts, int) and ts >= config.start_ts
            assert isinstance(cost, int) and cost > 0
            assert click in (0, 1)

    def test_heavy_hitters_dominate(self):
        config = AdCTRConfig(campaigns=200, heavy_hitters=4,
                             hot_fraction=0.7, events=4_000)
        rows = list(generate_impressions(config))
        hot = {f"cmp{i:06d}" for i in range(4)}
        hot_share = sum(r[0] in hot for r in rows) / len(rows)
        assert 0.6 < hot_share < 0.8
        # And the head clicks better than the tail.
        ctr = lambda picked: (  # noqa: E731
            sum(r[5] for r in picked) / len(picked))
        assert ctr([r for r in rows if r[0] in hot]) \
            > ctr([r for r in rows if r[0] not in hot])

    def test_requests_hit_the_same_keyspace(self):
        config = AdCTRConfig(campaigns=50, events=100)
        keys = {r[0] for r in generate_impressions(config)}
        for request in adctr.generate_requests(config, requests=200):
            assert request[0].startswith("cmp")
            assert int(request[0][3:]) < config.campaigns
        assert keys  # impressions exist to serve against

    def test_feature_sql_deploys_and_serves(self):
        db = OpenMLDB()
        db.create_table(adctr.TABLE, adctr.SCHEMA,
                        indexes=[adctr.INDEX])
        db.deploy("ctr", adctr.feature_sql())
        config = AdCTRConfig(campaigns=20, events=400)
        for row in generate_impressions(config):
            db.insert(adctr.TABLE, row)
        request = next(iter(adctr.generate_requests(config, requests=1)))
        vector = db.request_row("ctr", request)
        assert vector[0] == request[0] and vector[1] == request[1]
        assert len(vector) == 12  # 2 passthrough + 10 aggregates
        db.close()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AdCTRConfig(heavy_hitters=0)
        with pytest.raises(ValueError):
            AdCTRConfig(campaigns=5, heavy_hitters=6)
        with pytest.raises(ValueError):
            AdCTRConfig(hot_fraction=1.5)


class TestIoT:
    def test_deterministic(self):
        config = IoTConfig(devices=100, readings=500)
        assert list(generate_readings(config)) \
            == list(generate_readings(config))

    def test_schema_shape_and_integer_readings(self):
        config = IoTConfig(devices=50, readings=300)
        for row in generate_readings(config):
            assert len(row) == len(iot.SCHEMA.columns)
            device, ts, site, temp_dc, battery_bp, pulses = row
            assert device.startswith("dev") and site.startswith("site")
            # Integer telemetry is what keeps long-window folds exact.
            assert isinstance(temp_dc, int)
            assert isinstance(battery_bp, int)
            assert isinstance(pulses, int)

    def test_breadth_over_depth(self):
        config = IoTConfig(devices=2_000, readings=6_000)
        rows = list(generate_readings(config))
        per_device = {}
        for row in rows:
            per_device[row[0]] = per_device.get(row[0], 0) + 1
        # Many keys, each sparse: no device hoards the stream.
        assert len(per_device) > 1_500
        assert max(per_device.values()) <= 12

    def test_timestamps_monotone_nondecreasing(self):
        config = IoTConfig(devices=100, readings=500)
        stamps = [r[1] for r in generate_readings(config)]
        assert stamps == sorted(stamps)

    def test_feature_sql_serves_with_long_windows(self):
        db = OpenMLDB()
        db.create_table(iot.TABLE, iot.SCHEMA, indexes=[iot.INDEX])
        db.deploy("fleet", iot.feature_sql(),
                  long_windows=iot.LONG_WINDOWS)
        config = IoTConfig(devices=30, readings=600)
        for row in generate_readings(config):
            db.insert(iot.TABLE, row)
        request = next(iter(iot.generate_requests(config, requests=1)))
        vector = db.request_row("fleet", request)
        assert vector[0] == request[0] and vector[1] == request[1]
        assert len(vector) == 11  # 2 passthrough + 9 aggregates
        db.close()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            IoTConfig(devices=0)
