"""Cross-check: the streaming window-union processor vs the SQL path.

The Section 5.2 processor maintains per-key sliding aggregates over an
interleaved multi-table stream; the SQL engines compute the same union
window via index scans.  Feeding identical data through both must give
identical aggregates — tying the streaming subsystem to the declarative
semantics it implements.
"""

import random

import pytest

from repro import OpenMLDB
from repro.online.window_union import (DynamicScheduler,
                                       WindowUnionProcessor)
from repro.schema import IndexDef, Schema
from repro.sql.functions import get_aggregate

RANGE_MS = 5_000


def make_stream(tuples=300, keys=5, seed=21):
    rng = random.Random(seed)
    ts = 0
    stream = []
    for index in range(tuples):
        ts += rng.randrange(1, 200)
        stream.append((("actions", "orders")[index % 2],
                       f"k{rng.randrange(keys)}", ts,
                       float(rng.randrange(100))))
    return stream


@pytest.fixture(scope="module")
def stream():
    return make_stream()


def test_processor_matches_sql_union_window(stream):
    # Streaming side: per-key sliding (sum, count) over the union.
    processor = WindowUnionProcessor(
        functions=[get_aggregate("sum"), get_aggregate("count")],
        arg_extractors=[lambda row: (row,)] * 2,
        scheduler=DynamicScheduler(workers=4),
        range_ms=RANGE_MS, incremental=True)
    processor.run(iter(stream))

    # SQL side: the same stream as two tables + a UNION window request
    # anchored at each key's final tuple.
    db = OpenMLDB()
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "double")])
    for table in ("actions", "orders"):
        db.create_table(table, schema, indexes=[IndexDef(("k",), "ts")])
    last_event = {}
    for table, key, ts, value in stream:
        db.insert(table, (key, ts, value))
        last_event[key] = (table, key, ts, value)
    db.deploy("d", (
        "SELECT sum(v) OVER w AS s, count(v) OVER w AS c FROM actions "
        "WINDOW w AS (UNION orders PARTITION BY k ORDER BY ts "
        f"ROWS_RANGE BETWEEN {RANGE_MS} PRECEDING AND CURRENT ROW "
        "EXCLUDE CURRENT_ROW)"))

    for key, (_table, _key, ts, _value) in last_event.items():
        # The processor's state after the key's last tuple equals the
        # SQL window anchored at that tuple (which is stored, so the
        # request uses EXCLUDE CURRENT_ROW + a zero-value probe).
        probe = (key, ts, 0.0)
        sql_sum, sql_count = db.request_row("d", probe)
        stream_sum, stream_count = processor.last_results[key]
        assert sql_count == stream_count
        assert (sql_sum or 0.0) == pytest.approx(stream_sum or 0.0)
