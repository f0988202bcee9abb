"""Real-time anti-fraud features over year-scale windows.

Models the bank anti-fraud deployments the paper cites (sub-20 ms risk
checks): a card-transaction stream with *year-scale* behavioural windows,
which Section 5.1 serves from multi-level pre-aggregates
(``OPTIONS(long_windows=...)``, Figure 11).  Here storage keeps those
aggregates itself: every 256 rows of a key seal into a block and every
16 blocks into a span, each memoizing its sums, counts and extremes, so
a year window folds a few dozen summaries and two raw edges.

Demonstrates:

* a DEPLOY with the ``long_windows`` option, which costs no backfill,
* the storage fold answering the year window from block and span
  summaries, memoized by the first request that reads them,
* a new transaction showing up in the very next request.

Run:  python examples/fraud_detection.py
"""

from __future__ import annotations

import random
import time

from repro import OpenMLDB

HOUR_MS = 3_600_000
DAY_MS = 24 * HOUR_MS

FEATURE_SQL = (
    "SELECT card, "
    "  sum(amount) OVER w_year AS spend_1y, "
    "  count(amount) OVER w_year AS txns_1y, "
    "  max(amount) OVER w_year AS max_txn_1y, "
    "  avg(amount) OVER w_day AS avg_txn_1d, "
    "  count(amount) OVER w_day AS txns_1d "
    "FROM txns WINDOW "
    "  w_year AS (PARTITION BY card ORDER BY ts "
    "    ROWS_RANGE BETWEEN 365d PRECEDING AND CURRENT ROW), "
    "  w_day AS (PARTITION BY card ORDER BY ts "
    "    ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)")


def main() -> None:
    db = OpenMLDB()
    db.execute("CREATE TABLE txns (card string, ts timestamp, "
               "amount double, INDEX(KEY=card, TS=ts))")

    # A year of hourly activity on a busy card + background cards.
    rng = random.Random(13)
    print("loading one year of transactions ...")
    for hour in range(365 * 24):
        db.insert("txns", ("hot-card", hour * HOUR_MS,
                           round(rng.uniform(5, 200), 2)))
        if hour % 7 == 0:
            db.insert("txns", (f"card-{hour % 50}", hour * HOUR_MS,
                               round(rng.uniform(5, 80), 2)))

    # Every window folds storage: the deploy backfills nothing.
    db.deploy("fraud_long", FEATURE_SQL, long_windows="w_year:1d")

    incoming = ("hot-card", 365 * DAY_MS + 1, 999.0)

    def timed():
        before = db.online_engine.stats.summary_blocks
        started = time.perf_counter()
        features = db.request("fraud_long", incoming)
        elapsed_ms = (time.perf_counter() - started) * 1_000
        return (features, elapsed_ms,
                db.online_engine.stats.summary_blocks - before)

    cold_features, cold_ms, _ = timed()  # memoizes the summaries
    features, warm_ms, summaries = timed()

    print("\nrisk features for the incoming transaction:")
    for key, value in features.items():
        print(f"  {key:12s} = {value}")
    print(f"\nfirst request (memoizes summaries): {cold_ms:8.2f} ms")
    print(f"next request (reads them):          {warm_ms:8.2f} ms, "
          f"{summaries} block/span summaries read")
    print("feature agreement:",
          "bit for bit" if repr(cold_features) == repr(features)
          else (cold_features, features))

    # A new transaction is in the next request's window: there is no
    # aggregator to update.
    db.insert("txns", ("hot-card", 365 * DAY_MS + 2, 50.0))
    later = db.request("fraud_long", ("hot-card", 365 * DAY_MS + 3, 1.0))
    print(f"\nafter one more transaction: txns_1y = {later['txns_1y']}")
    db.close()


if __name__ == "__main__":
    main()
