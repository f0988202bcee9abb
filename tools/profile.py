#!/usr/bin/env python
"""Profile the online request hot path — where does a feature lookup
actually spend its time?

Runs cProfile over a canned fig6-style MicroBench workload (two
windows, one LAST JOIN, two union tables) and prints the top functions
by cumulative and by self time.  ``--path`` selects the execution
tier:

* ``incremental`` (default) — the deployed request path: ingest-time
  window state where eligible, the scan-and-fold elsewhere;
* ``fused``   — block scans + the window fold, no ingest-time
  state;
* ``cluster`` — the path users are actually served: the same data on 3
  tablets (``partitions=4, replicas=2``) answered through
  ``NameServer.request_batch``, so routing, the tablet RPC surface and
  the cluster table view are in the profile;
* ``put`` — the write path instead: ``parse`` of each ``INSERT`` text
  plus ``NameServer.put`` of its row, on the perfbench table shape
  (``k, ts, a, b, c``, 2,000 keys, ``partitions=4, replicas=2``) with a
  ``data_dir``, so the row check, both replicas, the binlog and the WAL
  encode are in the profile.

Usage::

    make profile                       # incremental tier, 400 requests
    python tools/profile.py --path fused --rounds 200 --top 20
    python tools/profile.py --path cluster
    python tools/profile.py --path put --rounds 20000
"""

from __future__ import annotations

import pathlib
import sys

# This file is named like the stdlib ``profile`` module, which cProfile
# imports internally.  Drop the script's own directory (sys.path[0]
# under ``python tools/profile.py``) before touching cProfile so the
# stdlib module wins, then put the library source on the path.
_here = str(pathlib.Path(__file__).resolve().parent)
sys.path = [entry for entry in sys.path
            if str(pathlib.Path(entry or ".").resolve()) != _here]
sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import argparse   # noqa: E402
import cProfile   # noqa: E402
import pstats     # noqa: E402
import random     # noqa: E402
import tempfile   # noqa: E402

from repro import OpenMLDB                              # noqa: E402
from repro.cluster import NameServer, TabletServer      # noqa: E402
from repro.schema import IndexDef, Schema               # noqa: E402
from repro.sql.parser import parse                      # noqa: E402
from repro.workloads.microbench import (MicroBenchConfig,  # noqa: E402
                                        build_feature_sql, generate)

CONFIG = MicroBenchConfig(keys=120, rows_per_key=100, windows=2,
                          joins=1, union_tables=2, value_columns=3,
                          seed=17)


PUT_KEYS = 2_000


def build_put_workload(rounds):
    """The write path: (INSERT text → parse → NameServer.put, texts,
    close), after a preload that gives every key a history."""
    data_dir = tempfile.TemporaryDirectory()
    cluster = NameServer(
        [TabletServer(f"tablet-{index}") for index in range(3)],
        data_dir=data_dir.name)
    cluster.create_table(
        "t", Schema.from_pairs([("k", "bigint"), ("ts", "timestamp"),
                                ("a", "bigint"), ("b", "bigint"),
                                ("c", "bigint")]),
        [IndexDef(("k",), "ts")], partitions=4, replicas=2)
    rng = random.Random(17)
    texts = [f"INSERT INTO t VALUES ({index % PUT_KEYS},"
             f"{1_000_000 + index // PUT_KEYS * 10},{rng.randrange(10)},"
             f"{rng.randrange(10)},{rng.randrange(10)})"
             for index in range(4 * PUT_KEYS + 20 + rounds)]

    def insert(text):
        for row in parse(text).rows:
            cluster.put("t", row)
    for text in texts[:4 * PUT_KEYS]:
        insert(text)

    def close():
        cluster.close()
        data_dir.cleanup()
    return insert, texts[4 * PUT_KEYS:], close


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
    db.deploy("bench", sql)
    db.replicator.wait_idle(timeout=10.0)
    return make_operation(db, path), data.requests, db.close


def make_operation(db, path):
    if path == "incremental":
        return lambda row: db.request_row("bench", row)
    compiled = db.deployments["bench"].compiled
    return lambda row: db.online_engine.execute_request(compiled, row)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile the online request path or the write path")
    parser.add_argument("--path", default="incremental",
                        choices=("incremental", "fused", "cluster", "put"),
                        help="execution tier to profile, or the write path")
    parser.add_argument("--rounds", type=int, default=400,
                        help="requests (or INSERTs) to profile (cycled)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows to print per ranking")
    args = parser.parse_args(argv)

    operation, requests, close = build_workload(args.path, args.rounds)
    for row in requests[:20]:  # warm caches outside the profile
        operation(row)
    requests = requests[20:] if args.path == "put" else requests

    profiler = cProfile.Profile()
    profiler.enable()
    for index in range(args.rounds):
        operation(requests[index % len(requests)])
    profiler.disable()
    close()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print(f"\n=== {args.path} path, {args.rounds} operations — "
          "by cumulative time ===")
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"=== {args.path} path — by self time ===")
    stats.sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
