"""Tests for the OpenMLDB session facade (core/database.py)."""

import math
import random
import threading

import pytest

from repro import OpenMLDB, verify_consistency
from repro.cluster import FaultInjector, NameServer, TabletServer
from repro.core.deployment import LongWindowOption
from repro.errors import (DeploymentError, DeploymentNotFoundError,
                          MemoryLimitExceededError, ParseError, PlanError,
                          SchemaError, TableExistsError, TableNotFoundError)
from repro.schema import IndexDef, Schema, TTLKind
from repro.sql.functions import get_aggregate
from repro.storage import skiplist
from tests.conftest import BAD_ROWS, CHECKED_INDEX, CHECKED_SCHEMA, GOOD_ROW


DDL = ("CREATE TABLE trades (sym string, ts timestamp, px double, "
       "qty int, INDEX(KEY=sym, TS=ts))")
ROLLING = ("SELECT sym, sum(px) OVER w AS total FROM trades WINDOW w AS "
           "(PARTITION BY sym ORDER BY ts "
           "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")


@pytest.fixture
def db():
    database = OpenMLDB()
    database.execute(DDL)
    yield database
    database.close()


class TestDDL:
    def test_create_via_sql(self, db):
        table = db.table("trades")
        assert table.schema.column_names == ("sym", "ts", "px", "qty")
        assert table.indexes[0].key_columns == ("sym",)

    def test_duplicate_table(self, db):
        with pytest.raises(TableExistsError):
            db.execute(DDL)

    def test_unknown_table(self, db):
        with pytest.raises(TableNotFoundError):
            db.table("ghost")

    def test_default_index_derived(self):
        db = OpenMLDB()
        table = db.create_table("t", Schema.from_pairs([
            ("user", "string"), ("when", "timestamp"), ("v", "double")]))
        assert table.indexes[0].key_columns == ("user",)
        assert table.indexes[0].ts_column == "when"

    def test_default_index_failure(self):
        db = OpenMLDB()
        with pytest.raises(SchemaError):
            db.create_table("t", Schema.from_pairs([("v", "double")]))

    def test_ttl_parsing(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, "
                   "INDEX(KEY=k, TS=ts, TTL=7d, TTL_TYPE=absolute))")
        index = db.table("t").indexes[0]
        assert index.ttl.kind is TTLKind.ABSOLUTE
        assert index.ttl.abs_ttl_ms == 7 * 86_400_000

    def test_latest_ttl_parsing(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, "
                   "INDEX(KEY=k, TS=ts, TTL=100, TTL_TYPE=latest))")
        assert db.table("t").indexes[0].ttl.lat_ttl == 100

    @pytest.mark.parametrize("ttl", ["d", "xxd"])
    def test_malformed_ttl_in_sql_rejected(self, ttl):
        # Used to slip through as int("") / int("xx") ValueError or a
        # silent TTL of 0; now a SchemaError naming the value.
        db = OpenMLDB()
        with pytest.raises(SchemaError, match="TTL"):
            db.execute(f"CREATE TABLE t (k string, ts timestamp, "
                       f"INDEX(KEY=k, TS=ts, TTL={ttl}, "
                       f"TTL_TYPE=absolute))")

    @pytest.mark.parametrize("ttl", ["7x", "-3d", "1.5h", ""])
    def test_malformed_ttl_clause_rejected(self, ttl):
        # Values the SQL tokenizer would never produce still arrive via
        # the programmatic DDL path; the clause validator catches them.
        from repro.sql import ast
        clause = ast.IndexClause(key_columns=("k",), ts_column="ts",
                                 ttl_value=ttl, ttl_type="absolute")
        with pytest.raises(SchemaError, match="TTL"):
            OpenMLDB._index_from_clause(clause)

    def test_disk_storage_engine(self):
        db = OpenMLDB()
        table = db.create_table(
            "t", Schema.from_pairs([("k", "string"),
                                    ("ts", "timestamp")]),
            indexes=[IndexDef(("k",), "ts")], storage="disk")
        db.insert("t", ("a", 5))
        assert table.last_join_lookup(("k",), "a")[0] == 5

    def test_unknown_storage_engine(self):
        db = OpenMLDB()
        with pytest.raises(SchemaError):
            db.create_table(
                "t", Schema.from_pairs([("k", "string"),
                                        ("ts", "timestamp")]),
                indexes=[IndexDef(("k",), "ts")], storage="tape")


class TestDML:
    def test_insert_via_sql(self, db):
        count = db.execute(
            "INSERT INTO trades VALUES ('A', 100, 10.5, 1), "
            "('A', 200, 11.0, 2)")
        assert count == 2
        assert db.table("trades").row_count == 2

    def test_insert_validates(self, db):
        with pytest.raises(Exception):
            db.insert("trades", ("A", "bad", 1.0, 1))

    def test_inserts_flow_to_binlog(self, db):
        db.insert("trades", ("A", 100, 1.0, 1))
        db.insert("trades", ("A", 200, 2.0, 1))
        assert db.cluster.table_info("trades").binlogs[0].last_offset == 1


class TestNullPartitionKey:
    """A NULL in a nullable key column is one more partition key: it is
    indexed with its row, served online and matched offline."""

    SQL = ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
           "WINDOW w AS (PARTITION BY k ORDER BY ts "
           "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")

    def test_null_key_is_indexed_served_and_consistent(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k bigint, ts timestamp, v int, "
                   "INDEX(KEY=k, TS=ts))")
        for ts in range(6):
            db.insert("t", (ts % 2, 1000 + ts, ts))
        db.deploy("d", self.SQL)
        assert db.execute("INSERT INTO t VALUES (NULL, 1500, 7)") == 1
        table = db.table("t")
        assert table.row_count == 7
        assert len(table.structure(table.indexes[0].name)) == 7
        online = db.request("d", (None, 2000, 1))
        assert online == {"k": None, "s": 8, "c": 2}
        db.insert("t", (None, 2000, 1))
        offline, _stats = db.offline_query(self.SQL)
        assert offline[-1] == tuple(online.values())
        assert verify_consistency(db, "d").consistent


class TestOneCheckOneRow:
    """``OpenMLDB.insert`` validates a row once; the table and the
    binlog entry hold the tuple that check returned."""

    @staticmethod
    def checked_db(data_dir=None):
        db = OpenMLDB(data_dir=data_dir)
        db.create_table("c", CHECKED_SCHEMA, indexes=[CHECKED_INDEX])
        return db

    def test_table_and_binlog_share_one_tuple(self):
        db = self.checked_db()
        row = GOOD_ROW
        db.insert("c", row)
        (stored,) = db.table("c").rows()
        (logged,) = db.cluster.table_info("c").binlogs[0].rows_from(0)
        assert stored is row and logged is row
        db.close()

    @pytest.mark.parametrize("durable", [False, True])
    def test_one_check_at_the_boundary_one_in_the_table(
            self, validations, tmp_path, durable):
        db = self.checked_db(str(tmp_path) if durable else None)
        db.insert("c", GOOD_ROW)
        # OpenMLDB.insert checks the row; the table's store and the WAL
        # encode take the checked tuple as it is.
        assert validations == [GOOD_ROW]
        db.close()

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_row_raises_typed_and_writes_nothing(self, case):
        row, error = BAD_ROWS[case]
        db = self.checked_db()
        with pytest.raises(error):
            db.insert("c", row)
        assert db.cluster.table_info("c").binlogs[0].last_offset == -1
        assert db.table("c").row_count == 0
        assert db.governor.used_bytes == 0
        db.close()


class TestDeployAndRequest:
    def test_deploy_and_request(self, db):
        db.insert("trades", ("A", 100, 10.0, 1))
        db.deploy("d", ROLLING)
        features = db.request("d", ("A", 200, 20.0, 1))
        assert features == {"sym": "A", "total": 30.0}

    def test_deploy_via_sql_statement(self, db):
        deployment = db.execute("DEPLOY d " + ROLLING)
        assert deployment.name == "d"
        assert "d" in db.deployments

    def test_duplicate_deployment_rejected(self, db):
        db.deploy("d", ROLLING)
        with pytest.raises(DeploymentError):
            db.deploy("d", ROLLING)

    def test_repeated_output_names_are_rejected(self):
        # A served row is a name -> value mapping: a second ``k`` would
        # hide the first.
        db = OpenMLDB()
        for name in ("t", "d"):
            db.execute(f"CREATE TABLE {name} (k string, ts timestamp, "
                       "v double, INDEX(KEY=k, TS=ts))")
        db.insert("d", ("a", 500, 99.0))
        join = " FROM t LAST JOIN d ORDER BY d.ts ON t.k = d.k"
        with pytest.raises(DeploymentError, match="'k'.*alias"):
            db.deploy("j", "SELECT *" + join)
        assert "j" not in db.deployments
        db.deploy("j", "SELECT t.k, t.ts, t.v, d.k AS dk, d.ts AS dts, "
                       "d.v AS dv" + join)
        assert db.request("j", ("a", 2_000, 7.0)) == {
            "k": "a", "ts": 2_000, "v": 7.0,
            "dk": "a", "dts": 500, "dv": 99.0}
        db.close()

    def test_undeploy(self, db):
        db.deploy("d", ROLLING)
        db.undeploy("d")
        with pytest.raises(DeploymentNotFoundError):
            db.request("d", ("A", 1, 1.0, 1))

    def test_undeploy_then_redeploy_serves_from_storage(self, db):
        # Deploying keeps no state beside the plan: rows inserted while
        # nothing was deployed are in the window of the redeployment.
        ranged = ROLLING.replace("ROWS BETWEEN 1", "ROWS_RANGE BETWEEN 30d")
        for step in range(5):
            db.insert("trades", ("A", 100 + step, 1.0, 1))
        db.deploy("d", ROLLING)
        db.deploy("lw", ranged, long_windows="w:1h")
        db.undeploy("d")
        db.undeploy("lw")
        for step in range(5):
            db.insert("trades", ("A", 200 + step, 1.0, 1))
        db.deploy("d", ROLLING)
        assert db.request("d", ("A", 300, 1.0, 1))["total"] == 2.0

    def test_failed_deploy_registers_nothing(self, db):
        ranged = ROLLING.replace("ROWS BETWEEN 1", "ROWS_RANGE BETWEEN 30d")
        with pytest.raises(DeploymentError):
            db.deploy("lw", ranged, long_windows="w:1h,ghost:1h")
        assert "lw" not in db.deployments

    def test_request_unknown_deployment(self, db):
        with pytest.raises(DeploymentNotFoundError):
            db.request("ghost", ("A", 1, 1.0, 1))

    def test_redeploy_hits_compile_cache(self, db):
        db.deploy("d1", ROLLING)
        db.deploy("d2", ROLLING)
        assert db.compile_cache.hits == 1

    def test_long_window_option_via_sql(self, db):
        sql = ('DEPLOY lw OPTIONS(long_windows="w:1h") '
               "SELECT sym, sum(px) OVER w AS total FROM trades WINDOW w "
               "AS (PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)")
        deployment = db.execute(sql)
        assert deployment.long_windows == (LongWindowOption("w", 3_600_000),)

    def test_long_window_rows_frame_rejected(self, db):
        with pytest.raises(DeploymentError):
            db.deploy("lw", ROLLING, long_windows="w:1h")

    def test_preagg_request_matches_raw(self, db):
        for index in range(500):
            db.insert("trades", ("A", index * 3_600_000,
                                 float(index % 10) + 0.1, 1))
        sql = ("SELECT sym, sum(px) OVER w AS total, lag(px, 30) OVER w "
               "AS back, lag(px, 0) OVER w AS cur, lag(px, 999) OVER w "
               "AS gone FROM trades WINDOW w "
               "AS (PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 20d PRECEDING AND CURRENT ROW)")
        db.deploy("raw", sql)
        db.deploy("fast", sql, long_windows="w:1d")
        for step in (500, 503.5, 530):
            request = ("A", int(step * 3_600_000), 7.0, 1)
            raw_row = db.request("raw", request)
            fast_row = db.request("fast", request)
            assert fast_row == raw_row and repr(fast_row) == repr(raw_row)
        assert raw_row["back"] is not None and raw_row["gone"] is None

    @pytest.mark.parametrize("deploy_first", [False, True],
                             ids=["backfill", "live-ingest"])
    def test_preagg_matches_raw_on_out_of_order_ingest(self, db,
                                                       deploy_first,
                                                       monkeypatch):
        # Late rows land in sealed blocks and spans, which are rebuilt;
        # the summary fold must still equal a fold over the raw rows in
        # time order — exactly, for the order-sensitive lag and drawdown
        # too.  "B" arrives in time order.
        monkeypatch.setattr(skiplist, "BLOCK_ROWS", 8)
        monkeypatch.setattr(skiplist, "SPAN_BLOCKS", 4)
        sql = ("SELECT sym, sum(px) OVER w AS total, lag(px, 1) OVER w "
               "AS back, drawdown(px) OVER w AS dd FROM trades WINDOW w "
               "AS (PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 5d PRECEDING AND CURRENT ROW)")
        hours = list(range(200))
        shuffler = random.Random(18)
        for start in range(0, 200, 8):  # shuffled within 8-hour chunks
            chunk = hours[start:start + 8]
            shuffler.shuffle(chunk)
            hours[start:start + 8] = chunk
        rows = [("A", hour * 3_600_000, 1 + (hour * 7) % 23 + 0.1, 1)
                for hour in hours]
        rows += [("B", hour * 3_600_000, 1 + (hour * 7) % 23 + 0.1, 1)
                 for hour in range(200)]
        if deploy_first:
            db.deploy("fast", sql, long_windows="w:1d")
        for row in rows:
            db.insert("trades", row)
        if not deploy_first:
            db.deploy("fast", sql, long_windows="w:1d")
        drawdown = get_aggregate("drawdown")

        def drawdown_of(values):
            state = drawdown.create()
            for value in values:
                drawdown.add(state, value)
            return drawdown.result(state)
        for sym in ("A", "B"):
            for hour in (200, 203.5, 230):
                anchor = int(hour * 3_600_000)
                window = sorted((row for row in rows if row[0] == sym
                                 and anchor - 5 * 86_400_000 <= row[1]
                                 <= anchor), key=lambda row: row[1])
                values = [row[2] for row in window] + [7.0]
                want = {"sym": sym, "total": math.fsum(values),
                        "back": values[-2],
                        "dd": drawdown_of(values)}
                got = db.request("fast", (sym, anchor, 7.0, 1))
                assert got == want and repr(got) == repr(want)
        assert db.online_engine.stats.summary_blocks > 0

    def test_preagg_updates_on_insert(self, db):
        sql = ("SELECT sum(px) OVER w AS total FROM trades WINDOW w AS "
               "(PARTITION BY sym ORDER BY ts "
               "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)")
        db.deploy("lw", sql, long_windows="w:1h")
        db.insert("trades", ("A", 3_600_000, 5.0, 1))
        assert db.request("lw", ("A", 7_200_000, 1.5, 1)) == {"total": 6.5}


class TestOfflineAndPreview:
    def test_offline_query(self, db):
        db.insert("trades", ("A", 100, 10.0, 1))
        db.insert("trades", ("A", 200, 20.0, 1))
        rows, stats = db.offline_query(ROLLING)
        assert rows == [("A", 10.0), ("A", 30.0)]
        assert stats.rows == 2

    def test_execute_select_uses_offline_mode(self, db):
        db.insert("trades", ("A", 100, 10.0, 1))
        rows = db.execute(ROLLING)
        assert rows == [("A", 10.0)]

    def test_preview_limits_and_caches(self, db):
        for index in range(30):
            db.insert("trades", ("A", index, 1.0, 1))
        first = db.preview(ROLLING, limit=5)
        assert len(first) == 5
        assert db.preview(ROLLING, limit=5) == first

    def test_preview_sees_rows_inserted_since_the_last_preview(self, db):
        sql = "SELECT sym, px FROM trades"
        db.insert("trades", ("a", 100, 1.0, 1))
        assert db.preview(sql) == [("a", 1.0)]
        db.insert("trades", ("a", 200, 6.0, 1))
        assert db.preview(sql) == db.offline_query(sql)[0] \
            == [("a", 1.0), ("a", 6.0)]

    def test_preview_row_cap(self, db):
        with pytest.raises(PlanError):
            db.preview(ROLLING, limit=10_000)

    def test_preview_rejects_non_select(self, db):
        with pytest.raises(ParseError):
            db.preview(DDL.replace("trades", "other"))

    def test_preview_limits_partition_columns(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE w (a string, b string, c string, "
                   "d string, e string, ts timestamp, v double, "
                   "INDEX(KEY=(a, b, c, d, e), TS=ts))")
        with pytest.raises(PlanError, match="partition"):
            db.preview(
                "SELECT sum(v) OVER win AS s FROM w WINDOW win AS "
                "(PARTITION BY a, b, c, d, e ORDER BY ts "
                "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)")


class TestMemoryIsolation:
    def test_writes_fail_reads_continue(self):
        db = OpenMLDB(max_memory_mb=1)
        db.execute(DDL)
        with pytest.raises(MemoryLimitExceededError):
            for index in range(200_000):
                db.insert("trades", (f"s{index}", index, 1.0, 1))
        # Reads still work after write rejection.
        assert db.table("trades").row_count > 0
        rows, _ = db.offline_query("SELECT sym FROM trades LIMIT 1")
        assert rows


class TestRecover:
    def test_rebuilt_disk_table_keeps_logging_to_the_wal(self, tmp_path):
        # The rebuilt DiskTable used to miss the WAL event sink, so its
        # explicit flushes and compactions went unlogged and recover()
        # could not replay them.
        db = OpenMLDB(data_dir=str(tmp_path))
        db.create_table("t", Schema.from_pairs([("k", "string"),
                                                ("ts", "timestamp")]),
                        indexes=[IndexDef(("k",), "ts")], storage="disk")
        db.insert("t", ("a", 1))
        db.table("t").flush()
        db.recover()
        db.insert("t", ("a", 2))
        db.table("t").flush()
        db.table("t").compact(10)
        binlog = db.cluster.table_info("t").binlogs[0]
        binlog.sync()
        controls = [frame.control_text()
                    for frame in binlog.wal.replay(0)
                    if not frame.is_row]
        assert controls == ["flush", "flush", "compact:10"]
        db.close()


class TestEviction:
    def test_evict_expired_via_db(self):
        db = OpenMLDB()
        db.execute("CREATE TABLE t (k string, ts timestamp, "
                   "INDEX(KEY=k, TS=ts, TTL=1m, TTL_TYPE=absolute))")
        db.insert("t", ("a", 0))
        db.insert("t", ("a", 120_000))
        removed = db.evict_expired(now_ts=120_001)
        assert removed == 1

    def test_logged_evictions_survive_recover(self, tmp_path):
        # A TTL eviction is a logged storage event: recover() replays it
        # at its row position, so the rebuilt table answers as the live
        # one did (a replay of the rows alone would bring 3 rows back).
        db = OpenMLDB(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts, TTL=1m, TTL_TYPE=absolute))")
        db.deploy("d", "SELECT count(v) OVER w AS c FROM t WINDOW w AS "
                       "(PARTITION BY k ORDER BY ts "
                       "ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)")
        for ts in range(0, 90_000, 10_000):
            db.insert("t", ("a", ts, 1.0))
        assert db.evict_expired(now_ts=90_000) == 3
        assert db.request("d", ("a", 90_000, 1.0)) == {"c": 7}
        db.recover()
        assert db.request("d", ("a", 90_000, 1.0)) == {"c": 7}
        db.close()


class TestNoThreadOfItsOwn:
    def test_single_node_starts_no_thread(self, tmp_path):
        # A single node keeps no ingest-time state, and its binlog
        # delivers nothing in the background: no write, read, eviction,
        # recovery or snapshot starts a thread.
        before = threading.active_count()
        db = OpenMLDB(data_dir=str(tmp_path))
        db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
                   "INDEX(KEY=k, TS=ts, TTL=1m, TTL_TYPE=absolute))")
        db.deploy("d", "SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c "
                       "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
                       "ROWS_RANGE BETWEEN 30s PRECEDING AND CURRENT ROW)")
        for ts in range(0, 90_000, 10_000):
            db.insert("t", ("a", ts, 1.0))
        assert db.request("d", ("a", 90_000, 1.0)) \
            == {"k": "a", "s": 4.0, "c": 4}
        assert db.evict_expired(now_ts=90_000) == 3
        assert db.recover().replayed_entries == 9
        assert db.snapshot() == 9
        assert db.request("d", ("a", 90_000, 1.0))["c"] == 4
        assert threading.active_count() == before
        db.close()

    def test_cluster_starts_no_thread(self, tmp_path):
        # Followers are written inline with the acknowledged put, so
        # writes, a failover, a snapshot and a restart all run on the
        # caller's thread.
        before = threading.active_count()
        cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(3)],
                             data_dir=str(tmp_path))
        faults = FaultInjector(cluster)
        cluster.create_table(
            "t", Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                                    ("v", "double")]),
            [IndexDef(("k",), "ts")], partitions=2, replicas=2)
        rows = [(f"k{i % 5}", i, float(i)) for i in range(40)]
        for row in rows[:20]:
            cluster.put("t", row)
        partition_id = cluster.partition_for("t", rows[0][0])
        victim = cluster.leader_of("t", partition_id).name
        faults.kill(victim)
        for row in rows[20:]:
            cluster.put("t", row)
        assert cluster.leader_of("t", partition_id).name != victim
        assert cluster.snapshot() > 0
        cluster.tablets[victim].wipe()
        report = cluster.restart_tablet(victim)
        assert report.replayed_entries + report.snapshot_rows > 0
        assert sum(cluster.leader_of("t", pid).shard("t", pid)
                   .store.row_count for pid in (0, 1)) == 40
        assert threading.active_count() == before
        cluster.close()
