"""Oracle tests: engines vs a brute-force reference implementation.

The reference implementation below is deliberately naive — O(n²) scans,
no indexes, no incremental state — making it easy to audit by eye.
Hypothesis then drives random workloads and window frames through both
the offline engine and the online request path, asserting exact
agreement with the oracle.  This pins the window semantics themselves,
independent of any engine optimisation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro import OpenMLDB
from repro.schema import IndexDef, Schema


def oracle_features(rows: List[Tuple[str, int, float]],
                    rows_preceding: Optional[int],
                    range_ms: Optional[int]) -> List[Tuple[float, int]]:
    """Brute-force (sum, count) per anchor, replay semantics; the sum is
    correctly rounded (``math.fsum``), as in every engine tier.

    Anchor i's window = anchor + earlier-arriving rows of the same key
    within the frame, where "earlier" is position in the list (arrival
    order), matching the engines' replay ordering for in-ts-order input.
    """
    output = []
    for position, (key, ts, _value) in enumerate(rows):
        window = [(t, v) for k, t, v in rows[:position]
                  if k == key and t <= ts
                  and (range_ms is None or t >= ts - range_ms)]
        window.sort(key=lambda pair: -pair[0])
        if rows_preceding is not None:
            window = window[:rows_preceding - 1]
        values = [v for _t, v in window] + [rows[position][2]]
        output.append((math.fsum(values), len(values)))
    return output


def build_db(rows):
    db = OpenMLDB()
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "double")])
    db.create_table("t", schema, indexes=[IndexDef(("k",), "ts")])
    for row in rows:
        db.insert("t", row)
    return db


def frame_sql(rows_preceding, range_ms):
    if range_ms is not None:
        frame = f"ROWS_RANGE BETWEEN {range_ms} PRECEDING AND CURRENT ROW"
    else:
        frame = (f"ROWS BETWEEN {rows_preceding - 1} PRECEDING "
                 "AND CURRENT ROW")
    return ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c FROM t "
            f"WINDOW w AS (PARTITION BY k ORDER BY ts {frame})")


@st.composite
def workload(draw):
    count = draw(st.integers(1, 60))
    keys = draw(st.integers(1, 4))
    rows = []
    ts = 0
    for _ in range(count):
        ts += draw(st.integers(1, 50))
        rows.append((f"k{draw(st.integers(0, keys - 1))}", ts,
                     draw(st.integers(-500, 500)) / 10))
    use_range = draw(st.booleans())
    if use_range:
        return rows, None, draw(st.integers(1, 200))
    return rows, draw(st.integers(1, 10)), None


@settings(max_examples=40, deadline=None)
@given(workload())
def test_offline_matches_oracle(case):
    rows, rows_preceding, range_ms = case
    db = build_db(rows)
    got, _stats = db.offline_query(frame_sql(rows_preceding, range_ms))
    expected = oracle_features(rows, rows_preceding, range_ms)
    for (key, got_sum, got_count), (exp_sum, exp_count), row in zip(
            got, expected, rows):
        assert key == row[0]
        assert got_count == exp_count
        assert got_sum == exp_sum


@settings(max_examples=25, deadline=None)
@given(workload(), st.integers(0, 3), st.integers(1, 500))
def test_online_request_matches_oracle(case, key_index, ts_gap):
    rows, rows_preceding, range_ms = case
    db = build_db(rows)
    db.deploy("d", frame_sql(rows_preceding, range_ms))
    anchor_ts = rows[-1][1] + ts_gap
    request = (f"k{key_index}", anchor_ts, 7.0)
    got = db.request_row("d", request)
    expected = oracle_features(rows + [request], rows_preceding,
                               range_ms)[-1]
    assert got[1] == expected[0]
    assert got[2] == expected[1]
