"""Concurrency tests: lock-free reads under writes (paper Section 7.2)."""

import contextlib
import gc
import itertools
import random
import sys
import threading


from repro import OpenMLDB
from repro.cluster import (FaultInjector, NameServer, RetryPolicy,
                           TabletServer)
from repro.errors import OpenMLDBError, StorageError
from repro.obs import Observability
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.storage.disk import DiskTable
from repro.storage.memtable import MemTable
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.skiplist import BLOCK_ROWS, ColumnBlock, TimeSeriesIndex
from tests.conftest import scanned


class TestSkiplistReadersWriters:
    def test_scans_never_crash_under_inserts(self):
        index = TimeSeriesIndex()
        stop = threading.Event()
        errors = []

        def writer():
            ts = 0
            while not stop.is_set():
                index.put(f"k{ts % 5}", ts, ts)
                ts += 1

        def reader():
            try:
                while not stop.is_set():
                    for key in ("k0", "k3"):
                        stamps = [ts for ts, _ in scanned(
                            index.scan_blocks(key, limit=50))]
                        # Reads must observe a consistent (sorted) view.
                        assert stamps == sorted(stamps, reverse=True)
                        index.latest(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors

    def test_one_key_writers_evictor_readers_seeded(self):
        """Several writers on ONE key (in-order and late rows), a TTL
        evictor and bounded-iteration readers, all driven from seeds with
        no sleeps: every block a reader sees is newest-first and inside
        its bounds, every row still sits beside its own timestamp, and
        the rows left equal inserted - evicted."""
        _one_key_race(width=None)

    def test_one_key_race_across_seals_folds_like_one_block(self):
        """The same race on columnar rows (``width=3``): 3,000 rows on
        one key seal, rebuild and drop blocks while readers run, and a
        fold over each reader's blocks — sealed ones answering from
        summaries other readers may be memoizing at the same moment —
        equals the fold over the same rows laid out as one block."""
        catalog = {"t": Schema.from_pairs(
            [("w", "bigint"), ("s", "bigint"), ("ts", "bigint")])}
        window = compile_plan(build_plan(parse_select(
            "SELECT sum(s) OVER x AS a, avg(s) OVER x AS b, "
            "count(w) OVER x AS c, min(ts) OVER x AS d, "
            "max(ts) OVER x AS e, distinct_count(w) OVER x AS f, "
            "distinct_count(ts) OVER x AS g FROM t WINDOW x AS "
            "(PARTITION BY w ORDER BY ts ROWS_RANGE BETWEEN 10 PRECEDING "
            "AND CURRENT ROW)"), catalog), catalog).windows["x"]

        def check(blocks, pairs):
            folded, summarized = window.compute_blocks(blocks)
            assert summarized == sum(block.sealed for block in blocks)
            assert folded == window.compute_blocks(
                [ColumnBlock.from_pairs(pairs, 3)])[0]
        _one_key_race(width=3, check=check)

    def test_first_level_race_keeps_one_time_list_per_key_seeded(self):
        """Eight threads put rows under 2,000 new keys, half of the keys
        offered by every thread, with the switch interval cut to 10 µs
        so writers interleave between a key-level miss and the create:
        a racing create keeps one time list, so every key is counted
        once and its scan holds exactly the rows offered for it."""
        index = TimeSeriesIndex()
        threads_n, keys_n = 8, 2_000
        shared = list(range(0, keys_n, 2))
        own = list(range(1, keys_n, 2))
        offered = {key: set() for key in range(keys_n)}
        errors = []

        def writer(tid):
            keys = shared + own[tid::threads_n]
            random.Random(tid).shuffle(keys)
            try:
                for key in keys:
                    index.put(key, tid, (tid, key))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        for tid in range(threads_n):
            for key in shared + own[tid::threads_n]:
                offered[key].add((tid, key))
        _race([threading.Thread(target=writer, args=(tid,))
               for tid in range(threads_n)])
        assert not errors, errors
        assert index.key_count == keys_n
        assert {key: {row for _ts, row in scanned(index.scan_blocks(key))}
                for key in range(keys_n)} == offered
        assert len(index) == sum(map(len, offered.values()))

    def test_sweeps_race_new_keys(self):
        """TTL sweeps, ``len`` and ``scan_all`` run while writers create
        new keys: nothing raises, and a sweep sees every key that
        existed when it started."""
        index = TimeSeriesIndex(ttl=TTLSpec(kind=TTLKind.LATEST,
                                            lat_ttl=1_000))
        writers, per_writer = 4, 1_500
        created = []
        errors = []

        def writer(wid):
            try:
                for step in range(per_writer):
                    key = (wid, step)
                    index.put(key, step, key)
                    created.append(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def sweeper():
            try:
                while len(created) < writers * per_writer:
                    before = set(created)
                    assert index.evict(per_writer) == 0
                    assert len(index) >= len(before)
                    swept = {key for key, _ts, _row in index.scan_all()}
                    assert before <= swept
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _race([threading.Thread(target=writer, args=(wid,))
               for wid in range(writers)]
              + [threading.Thread(target=sweeper) for _ in range(2)])
        assert not errors, errors
        assert index.key_count == len(index) == writers * per_writer

    def test_sweep_copies_the_key_level_in_one_step(self):
        """Python code that runs inside a sweep's copy of the key level
        stands for another thread's put: here a finalizer creates a key
        at every collection.  The sweep must not notice."""
        index = TimeSeriesIndex(ttl=TTLSpec(kind=TTLKind.LATEST, lat_ttl=9))
        for key in range(3_000):  # more pairs than the tuple free list
            index.put(key, 0, key)
        new_keys = itertools.count(10_000)
        with _at_every_collection(
                lambda: index.put(next(new_keys), 0, None)):
            sweep = index.scan_all()
            first = next(sweep)  # the sweep copies the key level here
            assert index.evict(0) == 0 and len(index) >= 3_000
        swept = {first[0]} | {key for key, _ts, _row in sweep}
        assert swept >= set(range(3_000))

    def test_first_put_of_a_key_keeps_a_racing_create(self):
        """A finalizer puts a row under the key being created, inside
        the put's own create (the time list's allocation collects): one
        time list survives, holding both rows."""
        index = TimeSeriesIndex()
        current, raced = [None], []

        def racing_put():
            index.put(current[0], 1, "raced")
            raced.append(current[0])
        with _at_every_collection(racing_put):
            for key in range(500):
                current[0] = key
                index.put(key, 0, "put")
        assert raced
        assert len(index) == 500 + len(raced)
        assert all(scanned(index.scan_blocks(key))[-1] == (0, "put")
                   for key in range(500))


@contextlib.contextmanager
def _at_every_collection(action):
    """Run ``action`` from a finalizer at every cyclic collection, with
    collections after every allocation of a tracked object."""
    armed = [True]

    class Rearming:
        def __init__(self):
            self.cycle = self  # only the cycle collector frees it

        def __del__(self):
            if armed[0]:
                action()
                Rearming()

    threshold = gc.get_threshold()
    gc.set_threshold(1)
    try:
        Rearming()
        yield
    finally:
        armed[0] = False
        gc.set_threshold(*threshold)


def _race(threads):
    """Run ``threads`` to completion with a 10 µs switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _one_key_race(width, check=None):
    index = TimeSeriesIndex(
        ttl=TTLSpec(kind=TTLKind.ABS_OR_LAT, abs_ttl_ms=300,
                    lat_ttl=500), width=width)
    writers, per_writer, span = 3, 1_000, 10_000
    evicted = []
    errors = []

    def writer(wid):
        rng = random.Random(100 + wid)
        for step in range(per_writer):
            ts = step * 10 + wid  # in-order within this writer
            if rng.random() < 0.3:
                ts = rng.randrange(ts + 1)  # a late row
            index.put("k", ts, (wid, step, ts))

    def evictor():
        rng = random.Random(7)
        evicted.append(sum(index.evict(rng.randrange(span))
                           for _ in range(300)))

    def reader(rid):
        rng = random.Random(200 + rid)
        try:
            for _ in range(400):
                start_ts = rng.choice((None, rng.randrange(span)))
                end_ts = rng.choice((None, rng.randrange(span)))
                limit = rng.choice((None, rng.randrange(1, 300)))
                blocks = list(index.scan_blocks(
                    "k", start_ts=start_ts, end_ts=end_ts, limit=limit))
                pairs = [pair for block in blocks for pair in block]
                stamps = [ts for ts, _row in pairs]
                # Newest-first and contiguous: no empty block, and
                # each block ends where the next older one begins.
                assert all(1 <= len(block) <= 2 * BLOCK_ROWS
                           for block in blocks)
                assert stamps == sorted(stamps, reverse=True)
                assert all(row[2] == ts for ts, row in pairs)
                assert start_ts is None or not stamps \
                    or stamps[0] <= start_ts
                assert end_ts is None or not stamps \
                    or stamps[-1] >= end_ts
                assert limit is None or len(pairs) <= limit
                if check is not None and pairs:
                    check(blocks, pairs)
                newest = index.latest("k")
                assert newest is None or newest[1][2] == newest[0]
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(wid,))
               for wid in range(writers)]
    threads.append(threading.Thread(target=evictor))
    threads += [threading.Thread(target=reader, args=(rid,))
                for rid in range(4)]
    _race(threads)  # interleavings inside one op
    assert not errors, errors
    left = scanned(index.scan_blocks("k"))
    assert len(left) == len(index) \
        == writers * per_writer - evicted[0]
    assert len({row for _ts, row in left}) == len(left)


class TestMemTableCounters:
    def test_memory_bytes_exact_under_concurrent_writers_seeded(self):
        """``memory_bytes`` sizes partitions for the rebalancer, so a
        lost ``+=`` is a wrong placement.  More writers than cores, a
        switch interval short enough to preempt inside one insert, rows
        of seeded, varying encoded size: the counter must equal the sum
        over what was inserted, and every row must be indexed."""
        schema = Schema.from_pairs(
            [("key", "string"), ("ts", "timestamp")]
            + [(f"note{i}", "string") for i in range(6)])
        table = MemTable("t", schema, [IndexDef(("key",), "ts")])
        writers, per_writer = 6, 1_500

        def rows_of(wid):
            rng = random.Random(300 + wid)
            return [(f"k{rng.randrange(8)}", step,
                     *("x" * rng.randrange(40) for _ in range(6)))
                    for step in range(per_writer)]

        threads = [threading.Thread(target=table.insert_many,
                                    args=(rows_of(wid),))
                   for wid in range(writers)]
        _race(threads)
        assert table.row_count == writers * per_writer
        assert len(table.structure(table.indexes[0].name)) \
            == writers * per_writer
        assert table.memory_bytes == sum(
            table.codec.encoded_size(row)
            for wid in range(writers) for row in rows_of(wid))


class TestConcurrentRequests:
    def test_parallel_requests_agree_with_serial(self):
        db = OpenMLDB()
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        db.create_table("t", schema, indexes=[IndexDef(("k",), "ts")])
        for key in range(5):
            for index in range(100):
                db.insert("t", (f"k{key}", index * 10, float(index % 7)))
        db.deploy("d", (
            "SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
            "WINDOW w AS (PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 200 PRECEDING AND CURRENT ROW)"))
        requests = [(f"k{i % 5}", 2_000, 1.0) for i in range(40)]
        expected = [db.request_row("d", row) for row in requests]

        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda row: db.request_row("d", row),
                                requests))
        assert got == expected

    def test_requests_during_inserts(self):
        db = OpenMLDB()
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        db.create_table("t", schema, indexes=[IndexDef(("k",), "ts")])
        db.insert("t", ("a", 0, 1.0))
        db.deploy("d", (
            "SELECT count(v) OVER w AS c FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)"))
        stop = threading.Event()
        errors = []

        def writer():
            ts = 1
            while not stop.is_set():
                db.insert("t", ("a", ts, 1.0))
                ts += 1

        def requester():
            try:
                while not stop.is_set():
                    result = db.request("d", ("a", 10 ** 9, 1.0))
                    assert result["c"] >= 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=requester),
                   threading.Thread(target=requester)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        db.close()


class TestShardHostingRaces:
    def test_host_and_drop_same_shard_race(self):
        """Threads churning host_shard/drop_shard on one (table, pid):
        losing a race must surface as StorageError (already hosted / not
        hosted), never corrupt the shard map or the memory accounting."""
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        indexes = [IndexDef(("k",), "ts")]
        tablet = TabletServer("tablet-0")
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    try:
                        tablet.host_shard("t", 0, schema, indexes)
                    except StorageError:
                        pass  # another thread hosts it right now
                    try:
                        tablet.drop_shard("t", 0)
                    except StorageError:
                        pass  # another thread already dropped it
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        # End state is coherent: either absent, or hosted exactly once
        # and immediately usable.
        if tablet.has_shard("t", 0):
            assert tablet.shard("t", 0).store.row_count == 0
            tablet.drop_shard("t", 0)
        assert not tablet.has_shard("t", 0)
        assert tablet.governor.used_bytes == 0

    def test_writes_race_shard_drop_without_corruption(self):
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        indexes = [IndexDef(("k",), "ts")]
        tablet = TabletServer("tablet-0")
        tablet.host_shard("t", 0, schema, indexes)
        stop = threading.Event()
        errors = []

        def writer():
            ts = 0
            try:
                while not stop.is_set():
                    try:
                        tablet.write("t", 0, ("a", ts, 1.0), ts)
                    except StorageError:
                        pass  # shard dropped mid-write: legal rejection
                    ts += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def dropper():
            try:
                while not stop.is_set():
                    try:
                        tablet.drop_shard("t", 0)
                    except StorageError:
                        pass
                    try:
                        tablet.host_shard("t", 0, schema, indexes)
                    except StorageError:
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=writer),
                   threading.Thread(target=dropper)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors


class TestTTLEvictionRaces:
    def test_eviction_races_inflight_window_scan(self):
        """TTL eviction truncating a key's skiplist while scans walk it:
        every scan must keep returning a consistent newest-first view
        (possibly of already-detached nodes), never crash or misorder."""
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "double")])
        ttl = TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=500)
        table = MemTable("t", schema,
                         [IndexDef(("k",), "ts", ttl=ttl)])
        stop = threading.Event()
        errors = []

        def writer():
            ts = 0
            while not stop.is_set():
                table.insert(("a", ts, 1.0))
                ts += 10

        def evictor():
            while not stop.is_set():
                now = max(table.row_count * 10, 1_000)
                table.evict_expired(now)

        def scanner():
            try:
                while not stop.is_set():
                    stamps = [ts for ts, _ in scanned(
                        table.window_scan_blocks(("k",), "ts", "a",
                                                 limit=100))]
                    assert stamps == sorted(stamps, reverse=True)
                    table.last_join_lookup(("k",), "a")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=evictor)] + [
            threading.Thread(target=scanner) for _ in range(3)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors


class TestDiskFlushRaces:
    def test_read_racing_flushes_sees_each_row_once(self):
        """Reads of one key while its rows are inserted and flushed every
        7 rows: each read is a prefix of the inserted rows, each row once
        (a read between a flush's runs and its fresh memtable used to see
        the flushed rows in both)."""
        schema = Schema.from_pairs([
            ("k", "string"), ("ts", "timestamp"), ("v", "int")])
        table = DiskTable("t", schema, [IndexDef(("k",), "ts")],
                          flush_threshold=7)
        done = threading.Event()
        reads = []

        def writer():
            for ts in range(3_000):
                table.insert(("a", ts, ts))
            done.set()

        def reader():
            while not done.is_set():
                reads.append([ts for ts, _row in scanned(
                    table.window_scan_blocks(("k",), "ts", "a"))][::-1])

        _race([threading.Thread(target=writer),
               threading.Thread(target=reader)])
        assert reads and table.flushes == 3_000 // 7
        bad = [read for read in reads if read != list(range(len(read)))]
        assert not bad, (f"{len(bad)}/{len(reads)} reads are not the "
                         f"inserted rows' prefix, each once")


class TestClusterWriteRaces:
    def test_concurrent_puts_are_all_acknowledged_exactly_once(self):
        """Parallel puts through the nameserver: per-partition locks must
        hand out distinct contiguous binlog offsets, and every replica
        ends fully caught up."""
        schema = Schema.from_pairs([
            ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
        tablets = [TabletServer(f"tablet-{i}") for i in range(3)]
        cluster = NameServer(tablets)
        cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                             partitions=2, replicas=2)
        offsets = []
        offsets_lock = threading.Lock()
        errors = []

        def put_rows(base):
            try:
                for k in range(50):
                    uid = (base * 50 + k) % 8
                    offset = cluster.put("t", (uid, base * 50 + k, 1.0))
                    pid = cluster.partition_for("t", uid)
                    with offsets_lock:
                        offsets.append((pid, offset))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=put_rows, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(offsets) == 200
        # Offsets are unique and contiguous per partition.
        for pid in range(2):
            got = sorted(o for p, o in offsets if p == pid)
            assert got == list(range(len(got)))
        # Every replica of every partition holds the full prefix.
        table = cluster.tables["t"]
        for pid in range(2):
            last = table.binlogs[pid].last_offset
            for name in table.assignment[pid]:
                shard = cluster.tablets[name].shard("t", pid)
                assert shard.applied_offset == last


class TestClosedLoopFailover:
    """A thread-pool closed loop hammers one deployment while the
    leader of a partition is killed mid-workload.  The availability
    contract under concurrency: every request either returns features
    or raises a *typed* ``OpenMLDBError`` (no bare exceptions, no
    hangs), and the ``ns.requests`` counter accounts for every attempt
    — nothing is silently dropped on the floor."""

    def test_every_request_succeeds_or_raises_typed_error(self):
        obs = Observability(enabled=True)
        fast = RetryPolicy(attempts=3, base_delay_ms=0.1,
                           multiplier=2.0, max_delay_ms=1.0,
                           rpc_timeout_ms=20.0)
        schema = Schema.from_pairs([
            ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
        tablets = [TabletServer(f"tablet-{i}") for i in range(3)]
        cluster = NameServer(tablets, retry_policy=fast, obs=obs)
        cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                             partitions=2, replicas=2)
        for uid in range(8):
            for k in range(5):
                cluster.put("t", (uid, 1_000 + k * 100, float(k)))
        cluster.deploy(
            "feat",
            "SELECT uid, sum(v) OVER w AS s FROM t "
            "WINDOW w AS (PARTITION BY uid ORDER BY ts "
            "  ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")

        clients, iters = 8, 25
        outcomes = []
        outcomes_lock = threading.Lock()
        started = threading.Barrier(clients + 1)

        def closed_loop(cid):
            started.wait()
            for i in range(iters):
                try:
                    out = cluster.request(
                        "feat", ((cid + i) % 8, 1_500, 9.0))
                except OpenMLDBError as exc:
                    out = exc
                with outcomes_lock:
                    outcomes.append(out)

        threads = [threading.Thread(target=closed_loop, args=(c,))
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        started.wait()
        # Kill a partition leader while the loop is in full swing:
        # racing requests must retry onto the promoted follower or
        # fail typed — never crash a client thread.
        FaultInjector(cluster).kill(cluster.leader_of("t", 0).name)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        attempts = clients * iters
        assert len(outcomes) == attempts
        for out in outcomes:
            assert isinstance(out, (dict, OpenMLDBError))
        assert any(isinstance(out, dict) for out in outcomes)
        # Failover complete: the deployment serves again, and the
        # request counter saw every attempt (the closed loop plus
        # this probe).
        assert isinstance(cluster.request("feat", (0, 1_500, 9.0)),
                          dict)
        assert obs.registry.get("ns.requests").value == attempts + 1


class TestLiveMigrationRaces:
    """Elastic-data-plane concurrency: traffic racing a live shard
    move, and a tablet dying in the middle of one."""

    FAST = RetryPolicy(attempts=4, base_delay_ms=0.1, multiplier=2.0,
                       max_delay_ms=2.0, rpc_timeout_ms=50.0)

    def _make_cluster(self, obs=None):
        schema = Schema.from_pairs([
            ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
        tablets = [TabletServer(f"tablet-{i}") for i in range(4)]
        cluster = NameServer(tablets, retry_policy=self.FAST, obs=obs)
        cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                             partitions=2, replicas=2)
        for uid in range(8):
            for k in range(5):
                cluster.put("t", (uid, 1_000 + k * 100, float(k)))
        cluster.deploy(
            "feat",
            "SELECT uid, sum(v) OVER w AS s FROM t "
            "WINDOW w AS (PARTITION BY uid ORDER BY ts "
            "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
        return cluster

    def _migration_edge(self, cluster, partition_id=0):
        table = cluster.tables["t"]
        source = table.assignment[partition_id][0]
        target = next(name for name in cluster.tablets
                      if name not in table.assignment[partition_id])
        return source, target

    def test_puts_and_requests_race_a_live_migration(self):
        from repro.ctlplane import ShardMigrator

        cluster = self._make_cluster()
        stop = threading.Event()
        last_acked = {}       # uid -> highest acknowledged ts
        put_errors = []
        outcomes = []
        outcomes_lock = threading.Lock()

        def writer(uid):
            # One writer per uid: the final acknowledged ts is the
            # value get_latest must serve after the dust settles.
            ts = 10_000
            try:
                while not stop.is_set():
                    cluster.put("t", (uid, ts, 1.0))
                    last_acked[uid] = ts
                    ts += 10
            except Exception as exc:  # pragma: no cover
                put_errors.append(exc)

        def requester():
            seq = 0
            while not stop.is_set():
                try:
                    out = cluster.request("feat", (seq % 8, 1_500, 9.0))
                except OpenMLDBError as exc:
                    out = exc
                with outcomes_lock:
                    outcomes.append(out)
                seq += 1

        threads = [threading.Thread(target=writer, args=(uid,))
                   for uid in range(4)]
        threads += [threading.Thread(target=requester)
                    for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            source, target = self._migration_edge(cluster)
            report = ShardMigrator(cluster, handoff_threshold=8) \
                .migrate("t", 0, source, target)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        # A migration is kill-free: racing puts are NEVER rejected.
        assert not put_errors
        assert report.target == target
        assert target in cluster.tables["t"].assignment[0]
        for out in outcomes:
            assert isinstance(out, (dict, OpenMLDBError))
        assert any(isinstance(out, dict) for out in outcomes)
        # Zero acknowledged-write loss across the move.
        for uid, ts in last_acked.items():
            hit = cluster.get_latest("t", uid)
            assert hit is not None and hit[0] == ts
        # Every replica of every partition holds the full prefix.
        table = cluster.tables["t"]
        for pid, names in table.assignment.items():
            last = table.binlogs[pid].last_offset
            for name in names:
                shard = cluster.tablets[name].shard("t", pid)
                assert shard.applied_offset == last
        cluster.close()

    def test_source_leader_dies_mid_migration(self):
        """Kill the migration's source (a partition leader) while the
        chase is running: the move must either complete — the binlog,
        not the source, is the transfer source of truth — or fail with
        a typed StorageError; either way no acknowledged write is lost
        and the cluster keeps serving."""
        from repro.ctlplane import ShardMigrator

        obs = Observability(enabled=True)
        cluster = self._make_cluster(obs=obs)
        # Bulk up partition 0's binlog so the chase has real work.
        heavy = [uid for uid in range(8)
                 if cluster.partition_for("t", uid) == 0]
        for k in range(400):
            cluster.put("t", (heavy[0], 2_000 + k, float(k)))
        source, target = self._migration_edge(cluster)
        stop = threading.Event()
        last_acked = {}
        put_outcomes = []

        def writer(uid):
            ts = 10_000
            while not stop.is_set():
                try:
                    cluster.put("t", (uid, ts, 1.0))
                    last_acked[uid] = ts
                except OpenMLDBError as exc:
                    put_outcomes.append(exc)
                ts += 10

        box = {}

        def run_migration():
            try:
                box["report"] = ShardMigrator(
                    cluster, handoff_threshold=4).migrate(
                        "t", 0, source, target)
            except StorageError as exc:
                box["error"] = exc
            except Exception as exc:  # pragma: no cover
                box["bare"] = exc

        threads = [threading.Thread(target=writer, args=(uid,))
                   for uid in heavy[:2]]
        mover = threading.Thread(target=run_migration)
        for thread in threads:
            thread.start()
        mover.start()
        FaultInjector(cluster).kill(source)
        mover.join(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not mover.is_alive()
        assert "bare" not in box, box  # only typed failures allowed
        assert "report" in box or "error" in box
        # Racing puts only ever fail typed (retries cover the blip).
        for out in put_outcomes:
            assert isinstance(out, OpenMLDBError)
        # The partition still has a live leader and serves.
        cluster.handle_failure(source)
        leader = cluster.leader_of("t", 0)
        assert leader.alive and leader.name != source
        for uid, ts in last_acked.items():
            hit = cluster.get_latest("t", uid)
            assert hit is not None and hit[0] == ts
        assert isinstance(cluster.request("feat", (heavy[0], 1_500, 9.0)),
                          dict)
        cluster.close()
