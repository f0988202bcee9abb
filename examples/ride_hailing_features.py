"""FEBench-style ride-hailing driver features (extension workload).

Runs the FEBench-inspired trip feature script — four windows of very
different spans over one stream, conditional and categorical aggregates
— through both execution modes, shows via EXPLAIN the compiled query
both run (its four windows pooled under one ConcatJoin), and checks
consistency.

Run:  python examples/ride_hailing_features.py
"""

from __future__ import annotations

from repro import OpenMLDB, verify_consistency
from repro.workloads.febench import (FEBenchConfig, TRIP_INDEX,
                                     TRIP_SCHEMA, feature_sql,
                                     generate_trips)


def main() -> None:
    db = OpenMLDB()
    db.create_table("trips", TRIP_SCHEMA, indexes=[TRIP_INDEX])
    config = FEBenchConfig(drivers=40, trips=4_000)
    trips = list(generate_trips(config))
    db.insert_many("trips", trips)
    sql = feature_sql()

    print("compiled query (what both engines run):")
    print(db.explain(sql))

    db.deploy("driver_features", sql)

    # A trip just ended: score the driver now.
    last = trips[-1]
    incoming = ("d0007", last[1] + 60_000, 18.5, 4.2, "downtown", 2.0)
    features = db.request("driver_features", incoming)
    print("\nfeatures for the incoming trip:")
    for name, value in features.items():
        print(f"  {name:18s} = {value}")

    rows, stats = db.offline_query(sql)
    print(f"\noffline backfill: {len(rows)} feature rows, "
          f"{stats.tasks} tasks; modelled makespan on {stats.workers} "
          f"workers {stats.parallel_seconds * 1000:.1f} ms with the "
          f"windows pooled, {stats.staged_seconds * 1000:.1f} ms staged")

    report = verify_consistency(db, "driver_features")
    print(f"consistency: {report.rows_compared} rows, "
          f"{len(report.mismatches)} mismatches")
    report.raise_on_mismatch()
    db.close()


if __name__ == "__main__":
    main()
