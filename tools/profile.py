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
  the cluster table view are in the profile.

Usage::

    make profile                       # incremental tier, 400 requests
    python tools/profile.py --path fused --rounds 200 --top 20
    python tools/profile.py --path cluster
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

from repro import OpenMLDB                              # noqa: E402
from repro.cluster import NameServer, TabletServer      # noqa: E402
from repro.workloads.microbench import (MicroBenchConfig,  # noqa: E402
                                        build_feature_sql, generate)

CONFIG = MicroBenchConfig(keys=120, rows_per_key=100, windows=2,
                          joins=1, union_tables=2, value_columns=3,
                          seed=17)


def build_workload(path):
    """Load the canned workload; returns (operation, requests, close)."""
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
        description="cProfile the online request path")
    parser.add_argument("--path", default="incremental",
                        choices=("incremental", "fused", "cluster"),
                        help="execution tier to profile")
    parser.add_argument("--rounds", type=int, default=400,
                        help="request count to profile (cycled)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows to print per ranking")
    args = parser.parse_args(argv)

    operation, requests, close = build_workload(args.path)
    for row in requests[:20]:  # warm caches outside the profile
        operation(row)

    profiler = cProfile.Profile()
    profiler.enable()
    for index in range(args.rounds):
        operation(requests[index % len(requests)])
    profiler.disable()
    close()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    print(f"\n=== {args.path} tier, {args.rounds} requests — "
          "by cumulative time ===")
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"=== {args.path} tier — by self time ===")
    stats.sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
