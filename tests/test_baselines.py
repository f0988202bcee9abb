"""Tests for the baseline engines: they must be *correct* (agree with
OpenMLDB) while keeping their modelled inefficiencies observable."""

import pytest

from repro import OpenMLDB
from repro.baselines import (DuckDBEngine, FlinkTopNEngine,
                             GreenplumTopNEngine, MySQLMemoryEngine,
                             SparkBatchEngine, TrinoRedisEngine)
from repro.workloads.microbench import (MicroBenchConfig, build_feature_sql,
                                        generate)


@pytest.fixture(scope="module")
def workload():
    config = MicroBenchConfig(keys=12, rows_per_key=24, windows=2,
                              joins=1, union_tables=2, seed=9)
    data = generate(config, request_count=25)
    sql = build_feature_sql(config)
    db = OpenMLDB()
    for name, schema in data.schemas.items():
        db.create_table(name, schema, indexes=data.indexes[name])
    for name, rows in data.rows.items():
        db.insert_many(name, rows)
    db.deploy("mb", sql)
    return data, sql, db


ONLINE_ENGINES = [MySQLMemoryEngine, DuckDBEngine, TrinoRedisEngine]


class TestOnlineBaselineCorrectness:
    @pytest.mark.parametrize("engine_cls", ONLINE_ENGINES,
                             ids=lambda cls: cls.name)
    def test_requests_match_openmldb(self, workload, engine_cls):
        data, sql, db = workload
        engine = engine_cls(sql, dict(data.schemas))
        for name, rows in data.rows.items():
            engine.load(name, rows)
        for request in data.requests[:10]:
            expected = tuple(db.request_row("mb", request))
            got = tuple(engine.request(request))
            # Sums are correctly rounded in every engine: bit for bit.
            assert got == expected and repr(got) == repr(expected), \
                (engine_cls.name, expected, got)


class TestBaselineInefficiencies:
    def test_mysql_sorts_per_request(self, workload):
        data, sql, _db = workload
        engine = MySQLMemoryEngine(sql, dict(data.schemas))
        for name, rows in data.rows.items():
            engine.load(name, rows)
        engine.request(data.requests[0])
        first = engine.stats.sorts
        engine.request(data.requests[1])
        assert engine.stats.sorts > first  # no retained time order

    def test_duckdb_scans_full_column(self, workload):
        data, sql, _db = workload
        engine = DuckDBEngine(sql, dict(data.schemas))
        for name, rows in data.rows.items():
            engine.load(name, rows)
        before = engine.stats.rows_scanned
        engine.request(data.requests[0])
        total_rows = sum(len(rows) for rows in data.rows.values())
        # Every request touches at least one full key-column scan.
        assert engine.stats.rows_scanned - before >= total_rows / 2

    def test_trino_redis_pays_rpc_and_serde(self, workload):
        data, sql, _db = workload
        engine = TrinoRedisEngine(sql, dict(data.schemas))
        for name, rows in data.rows.items():
            engine.load(name, rows)
        engine.request(data.requests[0])
        assert engine.stats.rpc_hops >= 3
        assert engine.stats.bytes_moved > 0
        assert engine.memory_bytes > 0


class TestSparkBatch:
    def test_matches_openmldb_offline(self, workload):
        data, sql, db = workload
        spark = SparkBatchEngine(sql, dict(data.schemas), workers=4)
        for name, rows in data.rows.items():
            spark.load(name, rows)
        spark_rows, stats = spark.run()
        openmldb_rows, _ = db.offline_query(sql)
        assert [tuple(row) for row in spark_rows] == openmldb_rows
        assert repr([tuple(row) for row in spark_rows]) == repr(openmldb_rows)

    def test_serial_stages_and_shuffle_accounted(self, workload):
        data, sql, _db = workload
        spark = SparkBatchEngine(sql, dict(data.schemas))
        for name, rows in data.rows.items():
            spark.load(name, rows)
        _rows, stats = spark.run()
        assert stats.shuffled_bytes > 0
        assert len(stats.stage_seconds) >= 3  # join + 2 windows (+project)
        assert sum(stats.stage_seconds.values()) > 0


class TestTopNEngines:
    def _events(self):
        import random
        rng = random.Random(1)
        return [(f"u{rng.randrange(5)}", index,
                 f"item{rng.randrange(30)}", rng.random())
                for index in range(500)]

    def test_flink_and_greenplum_agree(self):
        flink = FlinkTopNEngine()
        greenplum = GreenplumTopNEngine()
        for key, ts, item, score in self._events():
            flink.insert(key, ts, item, score)
            greenplum.insert(key, ts, item, score)
        for key in (f"u{i}" for i in range(5)):
            assert flink.top_n(key, 4) == greenplum.top_n(key, 4)

    def test_openmldb_topn_agrees(self):
        from repro.workloads.rtp import OpenMLDBTopN
        ours = OpenMLDBTopN()
        greenplum = GreenplumTopNEngine()
        for key, ts, item, score in self._events():
            ours.insert(key, ts, item, score)
            greenplum.insert(key, ts, item, score)
        for key in (f"u{i}" for i in range(5)):
            expected = greenplum.top_n(key, 3)
            got = ours.top_n(key, 3)
            assert [item for item, _ in got] == [item for item, _
                                                 in expected]

    def test_flink_windowed_eviction(self):
        flink = FlinkTopNEngine(window_ms=100)
        flink.insert("k", 0, "old", 0.9)
        flink.insert("k", 200, "new", 0.5)
        assert flink.top_n("k", 2) == [("new", 0.5)]

    def test_greenplum_full_scans_counted(self):
        greenplum = GreenplumTopNEngine()
        greenplum.insert("k", 0, "a", 1.0)
        greenplum.top_n("k", 1)
        greenplum.top_n("k", 1)
        assert greenplum.full_scans == 2

    def test_topn_deduplicates_items(self):
        flink = FlinkTopNEngine()
        flink.insert("k", 0, "same", 0.5)
        flink.insert("k", 1, "same", 0.9)
        assert flink.top_n("k", 5) == [("same", 0.9)]
