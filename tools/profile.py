#!/usr/bin/env python
"""Profile the online request hot path — where does a feature lookup
actually spend its time?

Runs cProfile over a canned fig6-style MicroBench workload (two
windows, one LAST JOIN, two union tables) and prints the top functions
by cumulative and by self time.  ``--path`` selects the execution
tier:

* ``fused`` (default) — the in-process request path: block scans +
  the window fold, called on the engine directly;
* ``cluster`` — the path users are actually served: the same data on 3
  tablets (``partitions=4, replicas=2``) answered through
  ``NameServer.request_batch``, so routing, the tablet RPC surface and
  the cluster table view are in the profile;
* ``scan`` — long windows on the served path: the perfbench
  ``scan_heavy`` shape rebuilt here (20 keys x 2,000 rows of ``k, ts, a,
  b, c``, a 2,000-row and a 200-row window, 9 aggregates and a LAST
  JOIN, 3 tablets, ``partitions=4, replicas=2``), read through
  ``NameServer.request`` at each key's newest timestamp.  After the
  profile, a split of up to 1,000 of the same reads with the tracer
  switched on: storage scans per read (tablet-side ``window.scan``
  spans), the median µs per read, and per window the median µs of its
  ``window.scan`` span (and of the tablet's span inside it) and of its
  ``agg.fold`` span — a window cut from another's scan names that
  window instead of a scan time.  Then a memo ledger: every key written
  ``LEDGER_WRITES`` times, each write followed by ``LEDGER_READS``
  reads, printing per read the values the folds reduced raw and the
  summaries answered from memos (a key's published ``tail``, a ``cut``
  edge, a ``sealed`` block or span) and the median µs, for the first
  read after a write, the second and the later ones;
* ``long`` — one long window in process: Figure 11's shape (one key,
  86,000 hourly rows of a ``double`` ``px``, a 2,000-day window of sum /
  count / max) deployed with ``long_windows``, so the storage fold
  reads sealed-block and span summaries and two raw edges;
* ``put`` — the write path instead: ``parse`` of each ``INSERT`` text
  plus ``NameServer.put`` of its row, on the perfbench table shape
  (``k, ts, a, b, c``, 2,000 keys, ``partitions=4, replicas=2``) with a
  ``data_dir``, so the row check, both replicas, the binlog and the WAL
  encode are in the profile.  Beside it, unprofiled: the wall time per
  ``NameServer.put`` of a parsed row, in memory and with the WAL, and
  the in-memory put split into its steps, each timed on its own over
  the same rows — the row check, the route (hash and directory
  lookup), the leader's ``TabletServer.write``, the binlog append, and
  a follower's ``catch_up`` of the new entry — plus the rest (the
  routed call, the partition lock, the lag gauge).  Each figure is the
  fastest of ten equal chunks of ``--rounds`` operations, after a
  preload of four rows per key;
* ``wire`` — no cProfile: the perfbench ``wire_point`` workload served
  by perfbench's own stack in a child process, read ``--rounds`` times
  and then written ``--rounds`` times (one ``INSERT`` per simple
  ``Query``, as perfbench writes) over one pg-wire connection,
  generator and server pinned to one CPU as perfbench pins them.
  Prints, for reads and for writes, the server's CPU per op for each
  of its threads (``/proc/<pid>/task/*``) and the voluntary and
  involuntary context switches per op of the server and of the
  generator — how many threads an op touches, what it costs the
  server, and how often each side is woken.  Its limit: one CPU and
  one connection, so the server's threads take turns and never run
  side by side — it measures CPU spent, and cannot show a saving that
  comes from fewer thread hops or from overlap.  So a pair segment
  follows, perfbench's pair phase in small: the workload's 90/10 mix on
  two connections, each on its own generator thread over its own half
  of the keys, ``--rounds`` ops each, printing the ops per second, the
  server's CPU per op and the mean batch the frontend ran.  Then, in
  this process over the same data, a warm split that
  places a saving layer by layer: the median µs per read of the same
  rows (at most 5,000) at ``NameServer.request_batch`` of one row, at a
  ``FrontendServer(max_wait_ms=0)`` over it (no batch window, so no
  idle wait), and as a prepared read's round trip over the wire to a
  ``NetServer`` over that frontend (client included), each with the
  difference to the boundary inside it;
* ``rss`` — no cProfile and no reads: for each of perfbench's four
  workloads, a child process loads the workload's preload (same schema,
  same rows, a ``data_dir`` where the workload writes a WAL) through
  ``NameServer.put`` into ``partitions=4, replicas=2`` tables and
  prints its RSS before the load (imports plus the empty tables) and
  after it, so the traced bytes per row times the rows can be held
  against the difference, and the share of rows in sealed blocks; it
  then loads the same rows again under ``tracemalloc`` and prints the
  ``--top`` source lines by bytes still allocated per preload row — the
  footprint ledger.  A second child, which imports only what
  ``perfbench/server.py`` imports, builds perfbench's own ``Stack``
  (load, deploy, ``FrontendServer`` and ``NetServer`` started — the
  state perfbench reads ``server_rss_mb`` in) and prints its RSS, its
  module count and whether ``asyncio`` and ``hashlib`` are loaded.

For ``scan`` and ``long``, the same reads first run once unprofiled and
their median wall time is printed beside the profile as ``p50``; ``long``
also prints the p50 of the same fold with no summaries (the figure's
"without" arm, ``benchmarks/_util.fold_without_summaries``) and the
summaries read per request.

Usage::

    make profile                       # fused path, 400 requests
    python tools/profile.py --path fused --rounds 200 --top 20
    python tools/profile.py --path cluster
    python tools/profile.py --path scan --rounds 3000
    python tools/profile.py --path long --rounds 2000
    python tools/profile.py --path put --rounds 20000
    python tools/profile.py --path wire --rounds 5000
    python tools/profile.py --path rss --top 8
"""

from __future__ import annotations

import pathlib
import sys

# This file is named like the stdlib ``profile`` module, which cProfile
# imports internally.  Drop the script's own directory (sys.path[0]
# under ``python tools/profile.py``) before touching cProfile so the
# stdlib module wins, then put the library source on the path (and the
# repository root, for ``perfbench``).
_here = str(pathlib.Path(__file__).resolve().parent)
_root = pathlib.Path(__file__).resolve().parent.parent
sys.path = [entry for entry in sys.path
            if str(pathlib.Path(entry or ".").resolve()) != _here]
sys.path.insert(0, str(_root / "src"))
sys.path.append(str(_root))
sys.path.append(str(_root / "benchmarks"))

import argparse   # noqa: E402
import cProfile   # noqa: E402
import itertools  # noqa: E402
import json       # noqa: E402
import os         # noqa: E402
import pstats     # noqa: E402
import random     # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile   # noqa: E402
import threading  # noqa: E402
import time       # noqa: E402

from repro import OpenMLDB                              # noqa: E402
from repro.cluster import NameServer, TabletServer      # noqa: E402
from repro.cluster.failover import catch_up             # noqa: E402
from repro.ctlplane.split import HashRouter, stable_hash  # noqa: E402
from repro.obs import Observability                     # noqa: E402
from repro.online.binlog import Replicator              # noqa: E402
from repro.schema import IndexDef, Schema               # noqa: E402
from repro.sql.parser import parse                      # noqa: E402
from repro.storage.skiplist import CutBlock             # noqa: E402
from repro.workloads.microbench import (MicroBenchConfig,  # noqa: E402
                                        build_feature_sql, generate)

CONFIG = MicroBenchConfig(keys=120, rows_per_key=100, windows=2,
                          joins=1, union_tables=2, value_columns=3,
                          seed=17)


PUT_KEYS = 2_000
PUT_PRELOAD = 4 * PUT_KEYS
PUT_CHUNKS = 10
PUT_SCHEMA = Schema.from_pairs([("k", "bigint"), ("ts", "timestamp"),
                                ("a", "bigint"), ("b", "bigint"),
                                ("c", "bigint")])
PUT_INDEX = IndexDef(("k",), "ts")


def put_rows(count):
    """The write workload's rows: ``PUT_KEYS`` keys round-robin, each
    key's timestamps ascending."""
    rng = random.Random(17)
    return [(index % PUT_KEYS, 1_000_000 + index // PUT_KEYS * 10,
             rng.randrange(10), rng.randrange(10), rng.randrange(10))
            for index in range(count)]


def put_cluster(data_dir=None):
    cluster = NameServer(
        [TabletServer(f"tablet-{index}") for index in range(3)],
        data_dir=data_dir)
    cluster.create_table("t", PUT_SCHEMA, [PUT_INDEX], partitions=4,
                         replicas=2)
    return cluster


def build_put_workload(rounds):
    """The write path: (INSERT text → parse → NameServer.put, texts,
    close), after a preload that gives every key a history."""
    data_dir = tempfile.TemporaryDirectory()
    cluster = put_cluster(data_dir.name)
    texts = [f"INSERT INTO t VALUES ({','.join(map(str, row))})"
             for row in put_rows(PUT_PRELOAD + 20 + rounds)]

    def insert(text):
        for row in parse(text).rows:
            cluster.put("t", row)
    for text in texts[:PUT_PRELOAD]:
        insert(text)

    def close():
        cluster.close()
        data_dir.cleanup()
    return insert, texts[PUT_PRELOAD:], close


def per_op_us(operations, preload, rows):
    """Wall microseconds per call of each ``operations[i](row)`` over
    ``rows``, once each has run untimed over ``preload``: the fastest of
    ``PUT_CHUNKS`` equal consecutive chunks, the operations taking turns
    chunk by chunk so that each sees the same spells of machine speed."""
    for operation in operations:
        for row in preload:
            operation(row)
    size = max(len(rows) // PUT_CHUNKS, 1)
    best = [float("inf")] * len(operations)
    for start in range(0, len(rows), size):
        chunk = rows[start:start + size]
        for slot, operation in enumerate(operations):
            started = time.perf_counter()
            for row in chunk:
                operation(row)
            best[slot] = min(best[slot],
                             (time.perf_counter() - started) / len(chunk))
    return [us * 1e6 for us in best]


def put_split(rounds):
    """Unprofiled wall time per put, whole and step by step:
    ``[(label, us)]``."""
    rows = put_rows(PUT_PRELOAD + rounds)
    with tempfile.TemporaryDirectory() as directory:
        memory, durable = put_cluster(), put_cluster(directory)
        router = HashRouter(4)
        leader = TabletServer("leader")
        leader.host_shard("t", 0, PUT_SCHEMA, [PUT_INDEX])
        offsets = itertools.count()

        def apply(row):
            leader.write("t", 0, row, next(offsets))
        binlog, source = Replicator("t"), Replicator("t")
        follower = TabletServer("follower")
        follower.host_shard("t", 0, PUT_SCHEMA, [PUT_INDEX])

        def deliver(row):
            source.append_entry("t", row)
            catch_up(follower, "t", 0, source)
        labels = ("put", "put with the WAL", "check", "route",
                  "leader apply", "binlog append", "follower catch-up")
        timings = dict(zip(labels, per_op_us(
            [lambda row: memory.put("t", row),
             lambda row: durable.put("t", row),
             PUT_SCHEMA.validate_row,
             lambda row: router.route(stable_hash(row[0])),
             apply,
             lambda row: binlog.append_entry("t", row),
             deliver],
            rows[:PUT_PRELOAD], rows[PUT_PRELOAD:])))
        memory.close()
        durable.close()
    # A delivery appends to its own binlog first.
    timings["follower catch-up"] -= timings["binlog append"]
    timings["the rest"] = timings["put"] - sum(
        timings[label] for label in labels[2:])
    return list(timings.items())


def print_put_split(split, rounds):
    (_, memory), (_, durable), *steps = split
    print(f"=== put path — {memory:.2f} us per put unprofiled, "
          f"{durable:.2f} us with the WAL (fastest of {PUT_CHUNKS} "
          f"chunks of {max(rounds // PUT_CHUNKS, 1)}) ===")
    for label, us in steps:
        print(f"    {label:<18} {us:6.2f} us")


SCAN_KEYS, SCAN_ROWS, SCAN_STEP, SCAN_BASE_TS = 20, 2_000, 10, 1_000_000
SCAN_WINDOWS = (("wl", 19_995, (("sum", "a"), ("avg", "b"), ("min", "c"),
                                ("max", "c"), ("distinct_count", "b"),
                                ("count", "a"))),
                ("ws", 1_995, (("sum", "b"), ("max", "a"), ("min", "a"))))
SCAN_SQL = (
    "SELECT t.k AS k, "
    + "".join(f"{func}(t.{column}) OVER {name} AS {name}_{func}_{column}, "
              for name, _span, aggregates in SCAN_WINDOWS
              for func, column in aggregates)
    + "d.attr AS d_attr FROM t LAST JOIN d ORDER BY dts ON t.k = d.k WINDOW "
    + ", ".join(f"{name} AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN "
                f"{span} PRECEDING AND CURRENT ROW)"
                for name, span, _aggregates in SCAN_WINDOWS))


def build_scan_workload(rounds):
    """Long windows on the served path: (NameServer.request, request
    rows at each key's newest timestamp, close, a report of the per-window
    split)."""
    obs = Observability(enabled=False)  # the tracer is switched on below
    cluster = NameServer(
        [TabletServer(f"tablet-{index}") for index in range(3)], obs=obs)
    cluster.create_table(
        "t", Schema.from_pairs([("k", "bigint"), ("ts", "timestamp"),
                                ("a", "bigint"), ("b", "bigint"),
                                ("c", "bigint")]),
        [IndexDef(("k",), "ts")], partitions=4, replicas=2)
    cluster.create_table(
        "d", Schema.from_pairs([("k", "bigint"), ("dts", "timestamp"),
                                ("attr", "bigint")]),
        [IndexDef(("k",), "dts")], partitions=4, replicas=2)
    rng = random.Random(13)
    for level in range(SCAN_ROWS):
        for key in range(SCAN_KEYS):
            cluster.put("t", (key, SCAN_BASE_TS + level * SCAN_STEP,
                              rng.randrange(10), rng.randrange(10),
                              rng.randrange(10)))
    for key in range(SCAN_KEYS):
        cluster.put("d", (key, SCAN_BASE_TS - 1, rng.randrange(1000)))
    compiled = cluster.deploy("scan", SCAN_SQL)
    newest = SCAN_BASE_TS + (SCAN_ROWS - 1) * SCAN_STEP
    requests = [(rng.randrange(SCAN_KEYS), newest, rng.randrange(10),
                 rng.randrange(10), rng.randrange(10))
                for _ in range(rounds)]

    def operation(row):
        return cluster.request("scan", row)

    def report():
        print_scan_split(compiled, traced_spans(
            obs.tracer, operation, requests[:SCAN_SPLIT_READS]))
        newest_of = dict.fromkeys(range(SCAN_KEYS), newest)

        def write(key):
            newest_of[key] += SCAN_STEP
            cluster.put("t", (key, newest_of[key], rng.randrange(10),
                              rng.randrange(10), rng.randrange(10)))

        def read(key):
            """One read at ``key``'s newest ``ts``: its wall µs."""
            row = (key, newest_of[key], 1, 2, 3)
            started = time.perf_counter()
            operation(row)
            return (time.perf_counter() - started) * 1e6
        print_memo_ledger(compiled, write, read)
    return operation, requests, cluster.close, report


#: Reads the ``--path scan`` split traces.
SCAN_SPLIT_READS = 1_000

#: The ``--path scan`` memo ledger: writes per key, and reads of the key
#: after each write (the first, then the repeats).
LEDGER_WRITES, LEDGER_READS = 10, 9


def print_memo_ledger(compiled, write, read):
    """Per read, the values each window's fold reduced raw and the
    summaries a memo answered, by the kind of block that held it — a
    key's published ``tail``, a ``cut`` of a block, a ``sealed`` block
    or span — for a key's first read after a write (its tail and moved
    edges fold raw), its second (they are published and reduced into
    memos) and the later ones before its next write; then the median µs
    of each kind of read, timed with nothing counting."""
    kinds = (("first", "first read after a write"),
             ("second", "second read"), ("later", "each later read"))
    tallies = {kind: {} for kind, _label in kinds}
    tally = {}

    def counting(window):
        fold, summaries = window.compute_blocks, window.summaries

        def compute_blocks(blocks):
            for block in blocks:
                kind = "sealed" if block.sealed else "cut" \
                    if isinstance(block, CutBlock) else "tail"
                for position, reduce in summaries:
                    if reduce is not None and block.memoizes \
                            and block.memoized(position, reduce):
                        tally[kind] = tally.get(kind, 0) + 1
                    else:
                        tally["raw"] = tally.get("raw", 0) + len(block)
            return fold(blocks)
        return compute_blocks

    def rounds():
        """Each key written ``LEDGER_WRITES`` times, each write followed
        by ``LEDGER_READS`` reads: yields (read's kind, its µs)."""
        for _ in range(LEDGER_WRITES):
            for key in range(SCAN_KEYS):
                write(key)
                for index in range(LEDGER_READS):
                    yield kinds[min(index, 2)][0], read(key)

    windows = [window for _name, window in compiled.running_windows]
    for window in windows:
        window.compute_blocks = counting(window)
    try:
        reads = dict.fromkeys(tallies, 0)
        for kind, _us in rounds():
            reads[kind] += 1
            into = tallies[kind]
            for name, count in tally.items():
                into[name] = into.get(name, 0) + count
            tally.clear()
    finally:
        for window in windows:
            del window.compute_blocks
    timings = {kind: [] for kind in tallies}
    for kind, us in rounds():
        timings[kind].append(us)
    print(f"=== scan path — memo ledger: {LEDGER_WRITES} writes a key, "
          f"each followed by {LEDGER_READS} reads; per read ===")
    for kind, label in kinds:
        counts = {name: count / reads[kind]
                  for name, count in tallies[kind].items()}
        print(f"    {label:<24} {counts.get('raw', 0):7.1f} values folded "
              f"raw, summaries from a memo: "
              + ", ".join(f"{name} {counts.get(name, 0):.1f}"
                          for name in ("tail", "cut", "sealed"))
              + f"; {statistics.median(timings[kind]):6.1f} us")


def traced_spans(tracer, operation, requests):
    """The spans of ``requests`` read with ``tracer`` switched on: what
    the one instrumented request path records, and nothing else."""
    tracer.reset()
    tracer.enabled = True
    try:
        for row in requests:
            operation(row)
    finally:
        tracer.enabled = False
    spans = tracer.export()
    tracer.reset()
    return spans


def print_scan_split(compiled, spans):
    """Storage scans per read and the median µs per read, then each
    window's median ``window.scan`` µs (and the part of it inside the
    tablet) and ``agg.fold`` µs.  A window served by a cut of another's
    scan opens no ``window.scan`` span: it names that window instead."""
    reads = sum(span["name"] == "deployment.execute" for span in spans)
    total = statistics.median(
        span["duration_ms"] * 1_000 for span in spans
        if span["name"] == "deployment.execute")
    # The engine's span of a window's read carries the window; the
    # tablet's span inside it, which is the storage read, the tablet.
    window_of = {span["span_id"]: span["tags"].get("window")
                 for span in spans if span["name"] == "window.scan"}
    durations = {}
    for span in spans:
        name, tags = span["name"], span["tags"]
        if "tablet" in tags and name == "window.scan":
            key = ("tablet", window_of.get(span["parent_id"]))
        elif "window" in tags:
            key = (name, tags["window"])
        else:
            continue
        durations.setdefault(key, []).append(span["duration_ms"] * 1_000)
    storage = sum(map(len, (values for (kind, _window), values
                            in durations.items() if kind == "tablet")))
    print(f"=== scan path — split of {reads} traced reads: "
          f"{storage / reads:.2f} storage scans per read, "
          f"{total:.1f} us per read ===")
    shared = compiled.shared_reads()
    for name, _window in compiled.running_windows:
        scan = durations.get(("window.scan", name))
        fold = statistics.median(durations[("agg.fold", name)])
        read = f"{shared.get(name, ''):<31}" if not scan else (
            f"scan {statistics.median(scan):6.1f} us ("
            f"{statistics.median(durations[('tablet', name)]):5.1f} in the "
            "tablet)")
        print(f"    {name:<4} {read}   fold {fold:6.1f} us")


LONG_ROWS, LONG_HOUR = 86_000, 3_600_000
LONG_SQL = ("SELECT sym, sum(px) OVER w1 AS total, count(px) OVER w1 AS n, "
            "max(px) OVER w1 AS high FROM trades WINDOW w1 AS "
            "(PARTITION BY sym ORDER BY ts "
            "ROWS_RANGE BETWEEN 2000d PRECEDING AND CURRENT ROW)")


def p50_us(operation, requests, rounds):
    """Median wall time of ``rounds`` unprofiled operations."""
    timings = []
    for index in range(rounds):
        started = time.perf_counter()
        operation(requests[index % len(requests)])
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) * 1e6


def build_long_workload(rounds):
    """Figure 11's shape: (the summary fold, request rows, close, a
    report of the fold with no summaries and the summaries read)."""
    from _util import fold_without_summaries
    db = OpenMLDB()
    db.execute("CREATE TABLE trades (sym string, ts timestamp, px double, "
               "INDEX(KEY=sym, TS=ts))")
    for index in range(LONG_ROWS):
        db.insert("trades", ("AAPL", index * LONG_HOUR,
                             float(100 + index % 50) + 0.01 * (index % 7)))
    db.deploy("long", LONG_SQL, long_windows="w1:1d")
    requests = [("AAPL", (LONG_ROWS + index % 25) * LONG_HOUR, 123.0)
                for index in range(25)]

    def operation(row):
        return db.request_row("long", row)

    def report():
        stats = db.online_engine.stats
        requests_before, summaries_before = stats.requests, \
            stats.summary_blocks
        for row in requests:
            operation(row)
        summaries = (stats.summary_blocks - summaries_before) \
            / (stats.requests - requests_before)
        raw = p50_us(fold_without_summaries(db, "long"), requests,
                     min(rounds, 200))
        print(f"=== long path — p50 {raw:.0f} us with no summaries; "
              f"{summaries:.1f} summaries read per request ===")
    return operation, requests, db.close, report


def build_workload(path, rounds):
    """Load the canned workload; returns (operation, requests, close)."""
    if path == "put":
        return build_put_workload(rounds)
    data = generate(CONFIG, request_count=160)
    sql = build_feature_sql(CONFIG)
    if path == "cluster":
        cluster = NameServer(
            [TabletServer(f"tablet-{index}") for index in range(3)])
        for name, schema in data.schemas.items():
            cluster.create_table(name, schema, data.indexes[name],
                                 partitions=4, replicas=2)
        for name, rows in data.rows.items():
            for row in rows:
                cluster.put(name, row)
        cluster.deploy("bench", sql)
        return (lambda row: cluster.request_batch("bench", [row]),
                data.requests, cluster.close)
    db = OpenMLDB()
    for name, schema in data.schemas.items():
        db.create_table(name, schema, indexes=data.indexes[name])
    for name, rows in data.rows.items():
        db.insert_many(name, rows)
    compiled = db.deploy("bench", sql).compiled
    return (lambda row: db.online_engine.execute_request(compiled, row),
            data.requests, db.close)


WIRE_WARMUP_OPS = 500
WIRE_SPLIT_READS = 5_000


def thread_counters(pid):
    """``{tid: [on-CPU ns, voluntary, involuntary context switches]}``
    for every thread of ``pid`` alive now."""
    out = {}
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", encoding="ascii") as f:
                cpu_ns = int(f.read().split()[0])
            with open(f"{task_dir}/{tid}/status", encoding="ascii") as f:
                status = dict(line.split(":", 1) for line in f)
        except FileNotFoundError:  # the thread exited meanwhile
            continue
        out[int(tid)] = [cpu_ns, int(status["voluntary_ctxt_switches"]),
                         int(status["nonvoluntary_ctxt_switches"])]
    return out


def counter_deltas(before, after):
    """Per-thread counter growth; a thread born in between counts from 0."""
    return {tid: [late - early for late, early
                  in zip(counters, before.get(tid, (0, 0, 0)))]
            for tid, counters in after.items()}


def serve_wire(spec_path):
    """The ``--serve`` child: perfbench's stack built from a launcher
    spec.  Prints its port, then answers every stdin line with
    ``{"threads": {native thread id: thread name}, "batches": [batches
    run, rows in them]}``; stdin closing stops it."""
    from perfbench.server import Stack
    with open(spec_path, encoding="utf-8") as handle:
        stack = Stack(json.load(handle))
    batches = [0, 0]
    request_batch = stack.frontend._request_batch

    def counted(name, rows, deadlines):
        batches[0] += 1
        batches[1] += len(rows)
        return request_batch(name, rows, deadlines)

    stack.frontend._request_batch = counted
    try:
        print(json.dumps({"port": stack.port}), flush=True)
        for _line in sys.stdin:
            print(json.dumps({"threads": {
                thread.native_id: thread.name
                for thread in threading.enumerate()},
                "batches": batches}), flush=True)
    finally:
        stack.close()
    return 0


def profile_wire(rounds):
    """Server CPU and context switches per read and per write, thread
    by thread."""
    from perfbench import loadgen
    from perfbench.workloads import WORKLOADS, Model, dump_json
    workload = WORKLOADS["wire_point"]
    model = Model(workload, 13)
    loadgen.pin_to_first_cpu()  # the server inherits the CPU
    with tempfile.TemporaryDirectory() as work:
        preload = os.path.join(work, "preload.json")
        with open(preload, "w", encoding="utf-8") as handle:
            handle.write(dump_json(model.preload()))
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            # wire_point's set-up: no data_dir, so writes log no WAL.
            json.dump(dict(workload.spec(), preload=preload, data_dir=None,
                           obs=False), handle)
        child = subprocess.Popen(
            [sys.executable, __file__, "--serve", spec_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = json.loads(child.stdout.readline())["port"]

            def ask():
                child.stdin.write("threads\n")
                child.stdin.flush()
                return json.loads(child.stdout.readline())

            def thread_names():
                return {int(tid): name
                        for tid, name in ask()["threads"].items()}

            connection = loadgen.connect(port)
            measured = []
            for writes in (False, True):
                ops = model.ops(0, 1, writes=writes)
                for _ in range(WIRE_WARMUP_OPS):
                    loadgen.run_op(connection, next(ops))
                names = thread_names()
                server_before = thread_counters(child.pid)
                client_before = thread_counters(os.getpid())
                started = time.perf_counter()
                wrong = sum(not loadgen.run_op(connection, next(ops))[1]
                            for _ in range(rounds))
                wall = time.perf_counter() - started
                server = counter_deltas(server_before,
                                        thread_counters(child.pid))
                client = counter_deltas(client_before,
                                        thread_counters(os.getpid()))
                names.update(thread_names())
                measured.append(("write" if writes else "read", wrong, wall,
                                 server, client, names))
            connection.close()
            pair = wire_pair(model, port, child.pid, ask, rounds)
        finally:
            child.stdin.close()
            child.wait(timeout=60)

    for kind, wrong, wall, server, client, names in measured:
        print_wire_table(kind, rounds, wrong, wall, server, client, names)
    print_wire_pair(rounds, *pair)
    print_wire_split(rounds)
    return 0


def wire_pair(model, port, server_pid, ask, rounds):
    """perfbench's pair phase in small: the workload's mix on two
    connections, each closed-loop on its own generator thread over its
    own half of the keys, ``rounds`` ops each.  Returns the ops that
    answered wrong, the wall seconds, the server's CPU seconds and the
    batches and rows the frontend ran meanwhile."""
    from perfbench import loadgen
    connections = [loadgen.connect(port) for _ in range(2)]
    streams = [model.ops(stream, 2) for stream in range(2)]
    for connection, ops in zip(connections, streams):
        for _ in range(WIRE_WARMUP_OPS):
            loadgen.run_op(connection, next(ops))
    wrong = [0, 0]
    start = threading.Barrier(3)

    def drive(index):
        start.wait()
        connection, ops = connections[index], streams[index]
        wrong[index] = sum(not loadgen.run_op(connection, next(ops))[1]
                           for _ in range(rounds))

    threads = [threading.Thread(target=drive, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    batches_before = ask()["batches"]
    server_before = sum(counters[0] for counters
                        in thread_counters(server_pid).values())
    start.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    server_ns = sum(counters[0] for counters
                    in thread_counters(server_pid).values()) - server_before
    batches = [after - before for after, before
               in zip(ask()["batches"], batches_before)]
    for connection in connections:
        connection.close()
    return sum(wrong), wall, server_ns / 1e9, batches


def print_wire_pair(rounds, wrong, wall, server_s, batches):
    ops = 2 * rounds
    print(f"=== wire path, wire_point, pair: 2 connections x {rounds} ops "
          f"({wrong} wrong), {ops / wall:.0f} ops/s, "
          f"{server_s * 1e3 / ops:.4f} server CPU-ms/op, mean batch "
          f"{batches[1] / max(batches[0], 1):.2f} ===")


def wire_split(rounds):
    """Median warm µs per read of the same rows at three boundaries,
    innermost first: ``NameServer.request_batch`` of one row, a
    ``FrontendServer(max_wait_ms=0)`` over it, and a prepared read
    over the wire to a ``NetServer`` over that frontend (a round trip
    from this process, client included)."""
    from perfbench import loadgen
    from perfbench.server import Stack
    from perfbench.workloads import WORKLOADS, Model, dump_json
    from repro.netserve import NetServer
    from repro.serving import FrontendServer
    workload = WORKLOADS["wire_point"]
    model = Model(workload, 13)
    with tempfile.TemporaryDirectory() as work:
        preload = os.path.join(work, "preload.json")
        with open(preload, "w", encoding="utf-8") as handle:
            handle.write(dump_json(model.preload()))
        stack = Stack(dict(workload.spec(), preload=preload, data_dir=None,
                           obs=False))
    ops = model.ops(0, 1, writes=False)
    rows = [(op.key, op.ts, *op.values)
            for op in itertools.islice(ops, min(rounds, WIRE_SPLIT_READS))]
    name = stack.spec["deployment"]
    cluster = stack.cluster
    frontend = FrontendServer(cluster, max_wait_ms=0)
    net = NetServer(frontend)
    connection = loadgen.connect(net.start()[1])
    layers = (("NameServer.request_batch",
               lambda row: cluster.request_batch(name, [row])),
              ("FrontendServer(max_wait_ms=0)",
               lambda row: frontend.request(name, row)),
              ("wire round trip", connection.execute))
    split = []
    try:
        for label, call in layers:
            for row in rows[:WIRE_WARMUP_OPS]:
                call(row)
            took = []
            for row in rows:
                started = time.perf_counter()
                call(row)
                took.append(time.perf_counter() - started)
            split.append((label, statistics.median(took) * 1e6))
    finally:
        connection.close()
        net.close()
        frontend.close()
        stack.close()
    return len(rows), split


def print_wire_split(rounds):
    reads, split = wire_split(rounds)
    print(f"=== wire path, warm split of {reads} reads: median us per read "
          "at each boundary ===")
    inner = 0.0
    for label, us in split:
        print(f"{label:<32} {us:>9.1f} us  (+{us - inner:.1f})")
        inner = us


def print_wire_table(kind, rounds, wrong, wall, server, client, names):
    """One ``--path wire`` table: per-thread CPU and wake-ups per op."""

    def row(label, cpu_ns, voluntary, involuntary):
        print(f"{label:<24} {cpu_ns / 1e6 / rounds:>12.4f} "
              f"{voluntary / rounds:>12.2f} {involuntary / rounds:>12.2f}")

    print(f"=== wire path, wire_point, {rounds} {kind}s ({wrong} wrong), "
          f"{wall * 1e3 / rounds:.3f} ms a {kind} ===")
    print(f"{'thread':<24} {'CPU-ms/' + kind:>12} {'vol cs/' + kind:>12} "
          f"{'invol cs/' + kind:>12}")
    total = [sum(column) for column in zip(*server.values())]
    busy = 0
    for tid, counters in sorted(server.items(), key=lambda item: -item[1][0]):
        if counters[0] >= 0.01 * total[0]:
            busy += 1
        if any(counters):
            row(names.get(tid, f"tid {tid}"), *counters)
    row(f"server ({busy} busy threads)", *total)
    row("generator", *[sum(column) for column in zip(*client.values())])


RSS_SEED = 13


def empty_cluster(spec, data_dir):
    """perfbench's set-up without the serving stack: its tables."""
    cluster = NameServer(
        [TabletServer(f"tablet-{index}") for index in range(3)],
        data_dir=data_dir)
    for table in spec["tables"]:
        cluster.create_table(
            table["name"],
            Schema.from_pairs([tuple(pair) for pair in table["columns"]]),
            [IndexDef((table["key"],), table["ts"])],
            partitions=4, replicas=2)
    return cluster


def load_preload(cluster, preload):
    """Every preload row through ``NameServer.put``."""
    for name, rows in preload.items():
        for row in rows:
            cluster.put(name, tuple(row))


def load_rss(spec_path, top):
    """The ``--rss`` child: RSS before and after one load, then the
    traced ledger of a second load of the same rows."""
    import tracemalloc
    from perfbench.loadgen import process_rss_mb
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(spec["preload"], encoding="utf-8") as handle:
        preload = json.load(handle)
    rows = sum(len(table_rows) for table_rows in preload.values())

    def data_dir(name):
        return os.path.join(spec["work"], name) if spec["durable"] else None
    cluster = empty_cluster(spec, data_dir("untraced"))
    before = process_rss_mb(os.getpid())
    load_preload(cluster, preload)
    after = process_rss_mb(os.getpid())
    print(f"=== {spec['workload']}: {rows} rows, RSS {before:.2f} MB "
          f"before the load, {after:.2f} MB after "
          f"({(after - before) * 2 ** 20 / rows:.1f} B per row) ===")
    held = sealed = 0
    for tablet in cluster.tablets.values():
        for shard in tablet.shards():
            for structure in shard.store._structures.values():
                for time_list in structure._keys.values():
                    held += len(time_list)
                    sealed += sum(map(len, time_list._sealed))
    print(f"share of rows in sealed blocks: {sealed / held:.0%}")
    cluster.close()
    del cluster
    tracemalloc.start(1)
    cluster = empty_cluster(spec, data_dir("traced"))
    load_preload(cluster, preload)
    stats = tracemalloc.take_snapshot().statistics("lineno")
    tracemalloc.stop()
    cluster.close()
    print(f"traced: {sum(stat.size for stat in stats) / rows:.1f} B per "
          "row; top lines in B per row:")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        name = frame.filename
        if name.startswith(str(_root)):
            name = os.path.relpath(name, _root)
        print(f"{stat.size / rows:>10.1f}  {name}:{frame.lineno}")
    return 0


#: The serving reading's child: perfbench's own server module and what
#: it imports, nothing of this script, so its RSS is the one perfbench
#: reads as ``server_rss_mb``.
SERVING_RSS_CHILD = """
import json, sys
from perfbench.server import Stack, rss_kb
with open(sys.argv[1], encoding="utf-8") as handle:
    stack = Stack(json.load(handle))
print(f"RSS {rss_kb() / 1024:.2f} MB serving (perfbench's Stack: "
      f"deployed, FrontendServer + NetServer started), "
      f"{len(sys.modules)} modules, "
      + ", ".join(f"{name} {'loaded' if name in sys.modules else 'absent'}"
                  for name in ("asyncio", "hashlib")), flush=True)
stack.close()
"""


def profile_rss(top):
    """RSS after loading each perfbench workload, and its ledger, each
    workload in a child process of its own; then perfbench's serving
    RSS, in a child that imports only what its server imports."""
    from perfbench.workloads import WORKLOADS, Model, dump_json
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as work:
            preload = os.path.join(work, "preload.json")
            with open(preload, "w", encoding="utf-8") as handle:
                handle.write(dump_json(Model(workload, RSS_SEED).preload()))
            spec_path = os.path.join(work, "spec.json")
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump(dict(workload.spec(), preload=preload, work=work),
                          handle)
            env = dict(os.environ, PYTHONHASHSEED="0")
            subprocess.run(
                [sys.executable, __file__, "--rss", spec_path,
                 "--top", str(top)], check=True, env=env)
            serving_path = os.path.join(work, "serving.json")
            with open(serving_path, "w", encoding="utf-8") as handle:
                json.dump(dict(
                    workload.spec(), preload=preload, obs=False,
                    data_dir=(os.path.join(work, "serving")
                              if workload.durable else None)), handle)
            subprocess.run(
                [sys.executable, "-c", SERVING_RSS_CHILD, serving_path],
                check=True, env=env, cwd=str(_root))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile the online request path or the write path; "
                    "thread CPU and wake-ups of a read over the wire; "
                    "memory after a perfbench load")
    parser.add_argument("--path", default="fused",
                        choices=("fused", "cluster", "scan", "long", "put",
                                 "wire", "rss"),
                        help="execution tier to profile, the write path, "
                             "a served read over the wire, or the "
                             "footprint of perfbench's loads")
    parser.add_argument("--rounds", type=int, default=400,
                        help="requests (or INSERTs) to profile (cycled)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows to print per ranking")
    parser.add_argument("--serve", help=argparse.SUPPRESS)
    parser.add_argument("--rss", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        return serve_wire(args.serve)
    if args.rss:
        return load_rss(args.rss, args.top)
    if args.path == "wire":
        return profile_wire(args.rounds)
    if args.path == "rss":
        return profile_rss(args.top)

    report = None
    if args.path == "long":
        operation, requests, close, report = build_long_workload(args.rounds)
    elif args.path == "scan":
        operation, requests, close, report = build_scan_workload(args.rounds)
    else:
        operation, requests, close = build_workload(args.path, args.rounds)
    for row in requests[:20]:  # warm caches outside the profile
        operation(row)
    requests = requests[20:] if args.path == "put" else requests

    # Reads only: replaying INSERTs would insert rows twice.
    p50 = p50_us(operation, requests, args.rounds) \
        if args.path in ("scan", "long") else None
    split = put_split(args.rounds) if args.path == "put" else None

    profiler = cProfile.Profile()
    profiler.enable()
    for index in range(args.rounds):
        operation(requests[index % len(requests)])
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print(f"\n=== {args.path} path, {args.rounds} operations — "
          "by cumulative time ===")
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"=== {args.path} path — by self time ===")
    stats.sort_stats("tottime").print_stats(args.top)
    if report is not None:
        report()
    close()
    if p50 is not None:
        print(f"=== {args.path} path — p50 {p50:.0f} us over "
              f"{args.rounds} unprofiled operations ===")
    if split is not None:
        print_put_split(split, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
