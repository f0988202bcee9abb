"""Differential test — every request path computes the same features.

One request body answers the deployed window script — block-based
scans feeding the compiler's fused fold kernel — reached two ways: the
served ``request_row`` path and ``OnlineEngine.execute_request``
called directly.

Each runs on two instances fed the same events — observability off and
``OpenMLDB(observability=True)`` — because the engine has one request
body and the two must agree on features *and* on ``EngineStats`` after
every request.  All are compared row-for-row against an *independent*
reference:
a plain-Python per-key store that re-implements the frame arithmetic
(ROWS / ROWS_RANGE, MAXSIZE, EXCLUDE CURRENT_ROW), the storage tie
order, all four TTL truncations, and hand-rolled aggregate semantics —
with scalar projections evaluated through the baseline AST interpreter
(:func:`repro.baselines.interp.interpret_expr`), the same oracle the
baseline engines use.

Window ``w`` is integer-valued; its sibling ``w2`` (same frame, so the
two share one scan) carries a ``double`` column whose values span
magnitudes where reordering a left-to-right sum changes it, and the
order-sensitive ``lag`` / ``ew_avg``.  Sums are exact in every tier, so
both windows compare with ``==`` — ``w2`` against ``math.fsum``, the correctly rounded sum.
Between them the two windows give the fold bare columns and expression
arguments, a never-NULL column and NULL-bearing ones (the fast path and
the filtered path), and every reduction it has.

Hypothesis drives the schedule: randomized frames, TTL specs,
out-of-order and duplicate timestamps, NULLs, a deploy point in the
middle of the insert stream, TTL eviction mid-stream, and request
anchors at, past, and before the newest tuple.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OpenMLDB
from repro.baselines.interp import interpret_expr
from repro.online.engine import _COUNTER_FIELDS
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.sql import ast
from repro.storage import skiplist
from repro.storage.skiplist import (BLOCK_ROWS, SPAN_BLOCKS, SealedSpan,
                                    TimeSeriesIndex)
from tests.conftest import scanned

KEYS = ("u1", "u2", "u3")

FEATURE_SQL_TEMPLATE = (
    "SELECT k, a + b AS ab, sum(a) OVER w AS s_a, count(b) OVER w AS c_b, "
    "avg(a) OVER w AS v_a, min(a) OVER w AS mn_a, max(b) OVER w AS mx_b, "
    "distinct_count(b) OVER w AS dc_b, "
    "sum(a * 2) OVER w AS s_a2, max(a + b) OVER w AS mx_ab, "
    "sum(c) OVER w AS s_c, min(c) OVER w AS mn_c, "
    "topn_frequency(b, 2) OVER w AS top_b, "
    "sum(x) OVER w2 AS s_x, avg(x) OVER w2 AS v_x, min(x) OVER w2 AS mn_x, "
    "count(x) OVER w2 AS c_x, sum(x * 0.5) OVER w2 AS s_hx, "
    "lag(a, 1) OVER w2 AS lag_a, ew_avg(x, 0.5) OVER w2 AS ew_x "
    "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts {frame}{opts}), "
    "w2 AS (PARTITION BY k ORDER BY ts {frame}{opts})")

AB_EXPR = ast.BinaryOp("+", ast.ColumnRef("a"), ast.ColumnRef("b"))


# ----------------------------------------------------------------------
# independent reference implementation


def _reference_evict(store, ttl, now_ts):
    """Mirror ``TimeSeriesIndex._evict_list`` on the reference store."""
    if ttl is None or ttl.unbounded:
        return
    horizon = (now_ts - ttl.abs_ttl_ms) if ttl.abs_ttl_ms else None
    for rows in store.values():
        if ttl.kind is TTLKind.ABSOLUTE:
            if horizon is not None:
                rows[:] = [r for r in rows if r[0] >= horizon]
        elif ttl.kind is TTLKind.LATEST:
            if ttl.lat_ttl:
                rows[:] = rows[:ttl.lat_ttl]
        elif ttl.kind is TTLKind.ABS_OR_LAT:
            if horizon is not None:
                rows[:] = [r for r in rows if r[0] >= horizon]
            if ttl.lat_ttl:
                rows[:] = rows[:ttl.lat_ttl]
        else:  # ABS_AND_LAT: evict only tuples violating *both* bounds
            if horizon is not None and ttl.lat_ttl:
                for index, row in enumerate(rows):
                    if index >= ttl.lat_ttl and row[0] < horizon:
                        rows[:] = rows[:index]
                        break


def _reference_store(events):
    """key → newest-first [(ts, seq, a, b, c, x)] with the storage tie
    order: for equal ts the later arrival (higher seq) comes first."""
    store = {key: [] for key in KEYS}
    for seq, (key, ts, *values) in enumerate(events):
        store[key].append((ts, seq, *values))
    for rows in store.values():
        rows.sort(key=lambda r: (-r[0], -r[1]))
    return store


def _agg(values):
    """Hand-rolled aggregate semantics over one window column."""
    present = [v for v in values if v is not None]
    return {
        "sum": sum(present) if present else None,
        "count": len(present),
        "avg": sum(present) / len(present) if present else None,
        "min": min(present) if present else None,
        "max": max(present) if present else None,
        "distinct_count": len(set(present)),
    }


def _reference_window(store, request, frame, maxsize, exclude):
    """The window's rows newest-first, as ``(ts, seq, *values)``; the
    request row heads it with ``seq`` None."""
    key, anchor, *values = request
    kind, bound = frame
    stored = [r for r in store.get(key, ()) if r[0] <= anchor]
    if kind == "range":
        stored = [r for r in stored if r[0] >= anchor - bound]
    else:  # ROWS n PRECEDING → n stored rows besides the request row
        stored = stored[:bound]
    window = ([] if exclude else [(anchor, None, *values)]) + stored
    if maxsize is not None:
        window = window[:maxsize]
    return window


def _reference_features(store, request, frame, maxsize, exclude):
    key, anchor, req_a, req_b, req_c, req_x = request
    window = _reference_window(store, request, frame, maxsize, exclude)
    a_stats = _agg([r[2] for r in window])
    b_stats = _agg([r[3] for r in window])
    c_stats = _agg([r[4] for r in window])
    a2_stats = _agg([None if r[2] is None else r[2] * 2 for r in window])
    ab_stats = _agg([None if r[2] is None or r[3] is None else r[2] + r[3]
                     for r in window])
    counts = {}
    for r in window:
        if r[3] is not None:
            counts[str(r[3])] = counts.get(str(r[3]), 0) + 1
    top_b = ",".join(sorted(counts, key=lambda k: (-counts[k], k))[:2])
    # The double column: sums are correctly rounded; ew_avg runs
    # oldest → newest.
    xs = [r[5] for r in reversed(window) if r[5] is not None]
    weighted = weight = 0.0
    for x in xs:
        weighted = weighted * 0.5 + x
        weight = weight * 0.5 + 1.0
    ab = interpret_expr(AB_EXPR, {"a": req_a, "b": req_b})
    return (key, ab, a_stats["sum"], b_stats["count"], a_stats["avg"],
            a_stats["min"], b_stats["max"], b_stats["distinct_count"],
            a2_stats["sum"], ab_stats["max"], c_stats["sum"],
            c_stats["min"], top_b,
            math.fsum(xs) if xs else None,
            math.fsum(xs) / len(xs) if xs else None,
            min(xs) if xs else None, len(xs),
            math.fsum([x * 0.5 for x in xs]) if xs else None,
            window[1][2] if len(window) > 1 else None,
            weighted / weight if xs else None)


# ----------------------------------------------------------------------
# scenario strategies

_value = st.one_of(st.none(), st.integers(-50, 50))

# Magnitudes where the order of a float sum changes its value:
# (1e16 + 1.0) - 1e16 == 0.0 but (1e16 - 1e16) + 1.0 == 1.0.
_double = st.one_of(st.none(), st.sampled_from(
    (1e16, -1e16, 1.0, -1.0, 0.1, 0.2, 0.3, 1e-3, 3.0)))

_events = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(0, 3000), _value, _value,
              st.integers(-50, 50), _double),
    min_size=1, max_size=50)

_frames = st.one_of(
    st.tuples(st.just("rows"), st.integers(1, 8)),
    st.tuples(st.just("range"), st.integers(50, 2000)))

_ttls = st.one_of(
    st.none(),
    st.builds(TTLSpec, kind=st.just(TTLKind.ABSOLUTE),
              abs_ttl_ms=st.integers(100, 1500)),
    st.builds(TTLSpec, kind=st.just(TTLKind.LATEST),
              lat_ttl=st.integers(1, 6)),
    st.builds(TTLSpec, kind=st.just(TTLKind.ABS_OR_LAT),
              abs_ttl_ms=st.integers(100, 1500),
              lat_ttl=st.integers(1, 6)),
    st.builds(TTLSpec, kind=st.just(TTLKind.ABS_AND_LAT),
              abs_ttl_ms=st.integers(100, 1500),
              lat_ttl=st.integers(1, 6)))


def _build_db(events, deploy_at, frame, maxsize, exclude, ttl,
              observability=False):
    kind, bound = frame
    frame_sql = (f"ROWS_RANGE BETWEEN {bound} PRECEDING AND CURRENT ROW"
                 if kind == "range"
                 else f"ROWS BETWEEN {bound} PRECEDING AND CURRENT ROW")
    opts = ("" if maxsize is None else f" MAXSIZE {maxsize}") \
        + (" EXCLUDE CURRENT_ROW" if exclude else "")
    db = OpenMLDB(observability=observability)
    schema = Schema.from_pairs([("k", "string"), ("ts", "timestamp"),
                                ("a", "int"), ("b", "int"), ("c", "int"),
                                ("x", "double")])
    db.create_table("t", schema,
                    indexes=[IndexDef(("k",), "ts", ttl or TTLSpec())])
    for event in events[:deploy_at]:
        db.insert("t", event)
    db.deploy("d", FEATURE_SQL_TEMPLATE.format(frame=frame_sql, opts=opts))
    for event in events[deploy_at:]:
        db.insert("t", event)
    return db


def _build_twins(*args, **kwargs):
    """The same scenario twice: observability off, and on."""
    return tuple(_build_db(*args, observability=observability, **kwargs)
                 for observability in (False, True))


def _requests(events):
    max_ts = max(event[1] for event in events)
    anchors = (max_ts + 17, max_ts, max_ts // 2)
    rows = [(key, anchor, *values)
            for key in KEYS + ("cold-key",)
            for anchor, values in zip(anchors, ((5, -3, 2, 1.0),
                                                (None, 4, -9, None),
                                                (7, None, 0, -1e16)))]
    return rows, max_ts


def _counters(db):
    stats = db.online_engine.stats
    return {field: getattr(stats, field)
            for field in ("requests",) + _COUNTER_FIELDS}


def _check_all_paths(db, traced_db, store, frame, maxsize, exclude,
                     requests):
    for request in requests:
        expected = _reference_features(store, request, frame, maxsize,
                                       exclude)
        for instance in (db, traced_db):
            # The served path, through the deployment.
            assert tuple(instance.request_row("d", request)) == expected
            # The engine called directly.
            assert tuple(instance.online_engine.execute_request(
                instance.deployments["d"].compiled, request)) == expected
        # One body: observability changes what is recorded, never what
        # is computed or counted.
        assert _counters(traced_db) == _counters(db)


@settings(max_examples=40, deadline=None)
@given(events=_events, deploy_frac=st.integers(0, 100), frame=_frames,
       maxsize=st.one_of(st.none(), st.integers(2, 6)),
       exclude=st.booleans(), ttl=_ttls,
       evict_offset=st.integers(0, 1000))
def test_all_tiers_match_reference(events, deploy_frac, frame, maxsize,
                                   exclude, ttl, evict_offset):
    deploy_at = len(events) * deploy_frac // 100
    db, traced_db = _build_twins(events, deploy_at, frame, maxsize,
                                 exclude, ttl)
    try:
        store = _reference_store(events)
        requests, max_ts = _requests(events)

        _check_all_paths(db, traced_db, store, frame, maxsize, exclude,
                         requests)

        if ttl is not None:
            evict_ts = max_ts + evict_offset
            db.evict_expired(evict_ts)
            traced_db.evict_expired(evict_ts)
            _reference_evict(store, ttl, evict_ts)
            _check_all_paths(db, traced_db, store, frame, maxsize,
                             exclude, requests)
    finally:
        db.close()
        traced_db.close()


# ----------------------------------------------------------------------
# deterministic pins for the two scenarios the issue calls out by name


def test_out_of_order_inserts_byte_identical():
    events = [("u1", 1000, 3, 1, 7, 1e16), ("u1", 5000, 4, None, 7, 1.0),
              # late arrival, far in the past
              ("u1", 2000, None, 9, -7, None),
              # duplicate ts
              ("u1", 4000, 6, 9, 0, -1e16), ("u1", 5000, 1, 2, 1, 0.1)]
    frame = ("range", 2000)
    db, traced_db = _build_twins(events, deploy_at=2, frame=frame,
                                 maxsize=None, exclude=False, ttl=None)
    try:
        store = _reference_store(events)
        requests = [("u1", 6000, 5, 5, 5, 0.2),
                    ("u1", 5000, None, 5, 5, None),
                    # past anchor
                    ("u1", 3000, 2, 2, 2, 3.0)]
        _check_all_paths(db, traced_db, store, frame, None, False,
                         requests)
    finally:
        db.close()
        traced_db.close()


def test_ttl_evicted_rows_byte_identical():
    # Absolute TTL tighter than the frame: eviction changes the features
    # and every tier must agree on the post-TTL row set.
    events = [("u2", ts, ts // 100, ts // 200, 1, ts / 7) for ts in
              (1000, 1400, 1800, 2200, 2600, 3000)]
    frame = ("range", 2500)
    ttl = TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=800)
    db, traced_db = _build_twins(events, deploy_at=6, frame=frame,
                                 maxsize=None, exclude=False, ttl=ttl)
    try:
        store = _reference_store(events)
        probe = ("u2", 3100, 1, 1, 1, 0.5)
        before = tuple(db.request_row("d", probe))
        assert tuple(traced_db.request_row("d", probe)) == before
        db.evict_expired(3000)
        traced_db.evict_expired(3000)
        _reference_evict(store, ttl, 3000)
        requests = [probe, ("u2", 3000, None, None, 0, None)]
        _check_all_paths(db, traced_db, store, frame, None, False,
                         requests)
        after = tuple(db.request_row("d", probe))
        assert before != after  # the TTL sweep really narrowed the window
    finally:
        db.close()
        traced_db.close()


def test_double_sum_fold_incremental_and_sequential_agree():
    """The fold (over sealed-block summaries), the served request and
    ``math.fsum`` agree bit for bit, on values whose left-to-right sum
    depends on the order."""
    xs = [1e16, 1.0, -1e16, 0.1, 0.2, 0.3, 1e-3] * 40  # spans two blocks
    db = OpenMLDB()
    try:
        db.create_table("t", Schema.from_pairs(
            [("k", "string"), ("ts", "timestamp"), ("x", "double")]),
            indexes=[IndexDef(("k",), "ts")])
        db.deploy("d", "SELECT sum(x) OVER w AS s, avg(x) OVER w AS v "
                       "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
                       "ROWS_RANGE BETWEEN 200 PRECEDING AND CURRENT ROW)")
        for ts, x in enumerate(xs):
            db.insert("t", ("u1", ts, x))
        for anchor in (len(xs), len(xs) + 50):
            request = ("u1", anchor, 3.0)
            window = xs[max(anchor - 200, 0):] + [3.0]
            expected = math.fsum(window)
            sequential = 0.0
            for x in window:
                sequential += x
            assert sequential != expected  # the order matters to `+`
            folded = db.online_engine.execute_request(
                db.deployments["d"].compiled, request)
            served = db.request_row("d", request)
            want = (expected, expected / len(window))
            assert tuple(folded) == tuple(served) == want
            assert repr(tuple(folded)) == repr(tuple(served)) == repr(want)
    finally:
        db.close()


def _ieee_sum(values):
    """The IEEE double of the exact sum, derived by hand."""
    if any(value != value for value in values) \
            or (math.inf in values and -math.inf in values):
        return math.nan
    if math.inf in values or -math.inf in values:
        return math.inf if math.inf in values else -math.inf
    exact = sum(map(Fraction, values))
    try:
        return float(exact) + 0.0
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _sliding_tiers(xs, sql):
    """Each row's features three ways: the offline engine's sliding
    window, the fold, and the served request — the online request for a
    row sent before the row is stored."""
    db = OpenMLDB()
    try:
        db.create_table("t", Schema.from_pairs(
            [("k", "string"), ("ts", "timestamp"), ("x", "double")]),
            indexes=[IndexDef(("k",), "ts")])
        deployment = db.deploy("d", sql)
        folded, served = [], []
        for ts, x in enumerate(xs):
            row = ("u1", ts, x)
            folded.append(tuple(db.online_engine.execute_request(
                deployment.compiled, row)))
            served.append(tuple(db.request_row("d", row)))
            db.insert("t", row)
        offline, _stats = db.offline_query(sql)
        return offline, folded, served
    finally:
        db.close()


def test_offline_sliding_sum_equals_the_online_request():
    """The offline engine subtracts evicted rows; after ±1e16 left the
    window, a left-to-right `+` answered 4.0 for {3.0, 0.1, 0.2} offline
    and 3.3000000000000003 online.  Every tier now gives 3.3."""
    sql = ("SELECT k, sum(x) OVER w AS s FROM t WINDOW w AS (PARTITION BY "
           "k ORDER BY ts ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")
    offline, folded, served = _sliding_tiers(
        [1e16, -1e16, 3.0, 0.1, 0.2], sql)
    assert offline[-1] == folded[-1] == served[-1] == ("u1", 3.3)
    assert repr(offline) == repr(folded) == repr(served)


def test_non_finite_sums_are_values_in_every_tier():
    xs = [1.0, math.inf, 2.0, -math.inf, 3.0, 1e308, 1e308, -1e308, 5.0,
          0.5, -1e308, -1e308, 0.25]
    sql = ("SELECT k, sum(x) OVER w AS s, avg(x) OVER w AS v, "
           "sum(x * 0.0) OVER w AS z FROM t WINDOW w AS (PARTITION BY k "
           "ORDER BY ts ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")
    offline, folded, served = _sliding_tiers(xs, sql)
    want = []
    for index in range(len(xs)):
        window = xs[max(index - 2, 0):index + 1]
        total = _ieee_sum(window)
        want.append(("u1", total, total / len(window),
                     _ieee_sum([x * 0.0 for x in window])))
    assert repr(offline) == repr(folded) == repr(served) == repr(want)
    assert {repr(row[1]) for row in want} >= {"inf", "-inf", "nan", "1e+308"}


def test_count_of_a_string_column_adds_nothing_up():
    """A count-only group must not try to total its argument: the fold
    used to raise ``TypeError: int + str``."""
    db = OpenMLDB()
    try:
        db.create_table("t", Schema.from_pairs(
            [("k", "string"), ("ts", "timestamp"), ("s", "string")]),
            indexes=[IndexDef(("k",), "ts")])
        db.deploy("d", "SELECT count(s) OVER w AS c, min(s) OVER w AS lo "
                       "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
                       "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)")
        for ts, value in enumerate(("pear", None, "apple")):
            db.insert("t", ("u1", ts, value))
        request = ("u1", 9, "fig")
        folded = db.online_engine.execute_request(
            db.deployments["d"].compiled, request)
        assert tuple(folded) == tuple(db.request_row("d", request)) \
            == (3, "apple")
    finally:
        db.close()


# ----------------------------------------------------------------------
# sealed blocks: long histories whose folds read memoized summaries
#
# A key's tail seals every ``BLOCK_ROWS`` tuples and groups every
# ``SPAN_BLOCKS`` sealed blocks into a span; a sealed block or span
# answers int and double sum / count / min / max / small distinct sets
# (and the count of any column) from summaries it memoizes.  These keys
# hold 600–1,500 rows, so windows span several sealed blocks plus two
# edges.

SEALED_SQL_TEMPLATE = (
    "SELECT k, sum(a) OVER w AS s_a, avg(a) OVER w AS v_a, "
    "count(a) OVER w AS c_a, min(a) OVER w AS mn_a, max(a) OVER w AS mx_a, "
    "distinct_count(a) OVER w AS dc_a, count(b) OVER w AS c_b, "
    "distinct_count(b) OVER w AS dc_b, sum(c) OVER w AS s_c, "
    "min(c) OVER w AS mn_c, max(c) OVER w AS mx_c, count(s) OVER w AS c_s, "
    "distinct_count(s) OVER w AS dc_s, sum(x) OVER w AS s_x, "
    "avg(x) OVER w AS v_x, min(x) OVER w AS mn_x "
    "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts {frame}{opts})")

SEALED_SCHEMA = Schema.from_pairs([
    ("k", "string"), ("ts", "timestamp"), ("a", "bigint"), ("b", "bigint"),
    ("c", "bigint"), ("s", "string"), ("x", "double")])

_DOUBLES = (None, 1e16, -1e16, 1.0, -1.0, 0.1, 0.2, 0.3, 1e-3, 3.0)


def _sealed_row(rng):
    """``a`` spans ~2,000 values (a block's distinct set outgrows its
    memo), ``b`` ten (it stays memoized); every column has NULLs."""
    def maybe(value):
        return None if rng.random() < 0.05 else value
    return (maybe(rng.randrange(-1000, 1000)), maybe(rng.randrange(10)),
            maybe(rng.randrange(-50, 50)), maybe(f"s{rng.randrange(20)}"),
            rng.choice(_DOUBLES))


def _long_history(seed, rows, late_share):
    """``rows`` events on u1 and a third as many on u2, interleaved;
    ``late_share`` of them land at a random past timestamp (mostly
    inside sealed blocks), and ties are common."""
    rng = random.Random(seed)
    clock = {"u1": 0, "u2": 0}
    events = []
    for _ in range(rows + rows // 3):
        key = "u1" if rng.random() < 0.75 else "u2"
        clock[key] += rng.choice((0, 10, 10, 20))
        ts = rng.randrange(clock[key] + 1) if rng.random() < late_share \
            else clock[key]
        events.append((key, ts, *_sealed_row(rng)))
    return events


def _sealed_reference(store, request, frame, maxsize, exclude):
    window = _reference_window(store, request, frame, maxsize, exclude)
    a, b, c = (_agg([r[i] for r in window]) for i in (2, 3, 4))
    strings = [r[5] for r in window if r[5] is not None]
    xs = [r[6] for r in reversed(window) if r[6] is not None]
    return (request[0], a["sum"], a["avg"], a["count"], a["min"], a["max"],
            a["distinct_count"], b["count"], b["distinct_count"], c["sum"],
            c["min"], c["max"], len(strings), len(set(strings)),
            math.fsum(xs) if xs else None,
            math.fsum(xs) / len(xs) if xs else None,
            min(xs) if xs else None)


def _sealed_db(events, frame, maxsize, exclude, ttl):
    kind, bound = frame
    frame_sql = (f"ROWS_RANGE BETWEEN {bound} PRECEDING AND CURRENT ROW"
                 if kind == "range"
                 else f"ROWS BETWEEN {bound} PRECEDING AND CURRENT ROW")
    opts = ("" if maxsize is None else f" MAXSIZE {maxsize}") \
        + (" EXCLUDE CURRENT_ROW" if exclude else "")
    db = OpenMLDB()
    db.create_table("t", SEALED_SCHEMA,
                    indexes=[IndexDef(("k",), "ts", ttl or TTLSpec())])
    for event in events:
        db.insert("t", event)
    db.deploy("d", SEALED_SQL_TEMPLATE.format(frame=frame_sql, opts=opts))
    return db


def _check_sealed_folds(db, store, frame, maxsize, exclude, max_ts):
    rng = random.Random(max_ts)
    compiled = db.deployments["d"].compiled
    for key in ("u1", "u2", "cold-key"):
        for anchor in (max_ts + 17, max_ts, max_ts // 2, max_ts // 5):
            request = (key, anchor, *_sealed_row(rng))
            want = _sealed_reference(store, request, frame, maxsize,
                                     exclude)
            # Cold: the first fold over a block computes its summaries;
            # warm: the next reads them back.
            for _pass in ("cold", "warm"):
                got = tuple(db.online_engine.execute_request(
                    compiled, request))
                assert got == want
                assert repr(got) == repr(want)


_sealed_ttls = st.one_of(
    st.none(),
    st.builds(TTLSpec, kind=st.just(TTLKind.ABSOLUTE),
              abs_ttl_ms=st.integers(500, 15000)),
    st.builds(TTLSpec, kind=st.just(TTLKind.LATEST),
              lat_ttl=st.integers(300, 1200)),
    st.builds(TTLSpec, kind=st.just(TTLKind.ABS_OR_LAT),
              abs_ttl_ms=st.integers(500, 15000),
              lat_ttl=st.integers(300, 1200)),
    st.builds(TTLSpec, kind=st.just(TTLKind.ABS_AND_LAT),
              abs_ttl_ms=st.integers(500, 15000),
              lat_ttl=st.integers(300, 1200)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rows=st.integers(600, 1500),
       late_share=st.sampled_from((0.0, 0.02, 0.3)),
       frame=st.one_of(st.tuples(st.just("rows"), st.integers(1, 1500)),
                       st.tuples(st.just("range"), st.integers(50, 20000))),
       maxsize=st.one_of(st.none(), st.integers(2, 1500)),
       exclude=st.booleans(), ttl=_sealed_ttls,
       evict_offset=st.integers(0, 5000),
       block_rows=st.sampled_from((16, 48, BLOCK_ROWS)),
       span_blocks=st.integers(2, 5))
def test_sealed_block_folds_match_reference(seed, rows, late_share, frame,
                                            maxsize, exclude, ttl,
                                            evict_offset, block_rows,
                                            span_blocks):
    """Smaller blocks and spans put several spans under most windows:
    their edges fall inside spans, late rows land in them, and TTL
    sweeps cut through them."""
    with mock.patch.object(skiplist, "BLOCK_ROWS", block_rows), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", span_blocks):
        _check_long_history(seed, rows, late_share, frame, maxsize,
                            exclude, ttl, evict_offset)


def _check_long_history(seed, rows, late_share, frame, maxsize, exclude,
                        ttl, evict_offset):
    events = _long_history(seed, rows, late_share)
    db = _sealed_db(events, frame, maxsize, exclude, ttl)
    try:
        store = _reference_store(events)
        max_ts = max(event[1] for event in events)
        _check_sealed_folds(db, store, frame, maxsize, exclude, max_ts)
        # Late rows into sealed ranges after the memos are warm: the
        # blocks they land in are rebuilt and start with fresh memos.
        rng = random.Random(seed + 1)
        late = [("u1", rng.randrange(max_ts + 1), *_sealed_row(rng))
                for _ in range(5)]
        for event in late:
            db.insert("t", event)
        events += late
        store = _reference_store(events)
        _check_sealed_folds(db, store, frame, maxsize, exclude, max_ts)
        if ttl is not None:
            evict_ts = max_ts + evict_offset
            db.evict_expired(evict_ts)
            _reference_evict(store, ttl, evict_ts)
            _check_sealed_folds(db, store, frame, maxsize, exclude, max_ts)
    finally:
        db.close()


def test_block_rebuilt_by_a_late_row_answers_from_fresh_memos():
    events = [("u1", ts * 10, ts % 7, ts % 3, -ts, f"s{ts % 5}", 0.5)
              for ts in range(600)]  # two sealed blocks and a tail
    frame = ("range", 100_000)
    db = _sealed_db(events, frame, None, False, None)
    try:
        table = db.tables["t"]
        scan = (("k",), "ts", "u1")
        oldest = table.window_scan_blocks(*scan)[-1]
        assert oldest.sealed and len(oldest) == BLOCK_ROWS
        store = _reference_store(events)
        _check_sealed_folds(db, store, frame, None, False, 6_000)
        assert db.online_engine.stats.summary_blocks > 0
        warm = dict(oldest._memo)
        assert warm  # the folds memoized their summaries on the block

        late = ("u1", 1_005, 1_000, 9, 77, "late", 0.25)
        db.insert("t", late)
        rebuilt = table.window_scan_blocks(*scan)[-1]
        assert rebuilt is not oldest and rebuilt.sealed
        assert len(rebuilt) == BLOCK_ROWS + 1
        assert rebuilt._memo == {}
        assert oldest._memo == warm  # a reader holding it sees no change
        store = _reference_store(events + [late])
        _check_sealed_folds(db, store, frame, None, False, 6_000)
        assert rebuilt._memo and rebuilt._memo != warm
    finally:
        db.close()


def test_span_rebuilt_by_a_late_row_and_a_ttl_cut():
    """``SPAN_BLOCKS`` sealed blocks make a span, which a window covering
    it whole reads as one summary; a late row or a TTL cut inside it
    rebuilds it with fresh memos, and every answer stays exact."""
    count = BLOCK_ROWS * (SPAN_BLOCKS + 2) + 10
    events = [("u1", ts * 10, ts % 7, ts % 3, -ts, f"s{ts % 5}",
               0.1 * (ts % 9)) for ts in range(count)]
    frame = ("range", 10 ** 9)
    ttl = TTLSpec(kind=TTLKind.LATEST, lat_ttl=count - 100)
    max_ts = (count - 1) * 10
    db = _sealed_db(events, frame, None, False, ttl)
    try:
        table = db.tables["t"]
        scan = (("k",), "ts", "u1")
        tail, *sealed, span = table.window_scan_blocks(*scan)
        assert isinstance(span, SealedSpan)
        assert len(span) == BLOCK_ROWS * SPAN_BLOCKS
        assert len(sealed) == 2 and not tail.sealed
        # An edge inside the span: its blocks go out, not the span.
        edge = table.window_scan_blocks(*scan, start_ts=max_ts,
                                        end_ts=BLOCK_ROWS * 10 + 5)
        assert not any(isinstance(block, SealedSpan) for block in edge)
        store = _reference_store(events)
        _check_sealed_folds(db, store, frame, None, False, max_ts)
        assert span._memo

        late = ("u1", 1_005, 1_000, 9, 77, "late", 0.25)
        db.insert("t", late)
        events.append(late)
        rebuilt = table.window_scan_blocks(*scan)[-1]
        assert isinstance(rebuilt, SealedSpan) and rebuilt is not span
        assert len(rebuilt) == len(span) + 1 and rebuilt._memo == {}
        store = _reference_store(events)
        _check_sealed_folds(db, store, frame, None, False, max_ts)

        assert db.evict_expired(max_ts) == 101
        _reference_evict(store, ttl, max_ts)
        cut = table.window_scan_blocks(*scan)[-1]
        assert isinstance(cut, SealedSpan) and cut._memo == {}
        assert len(cut) == len(rebuilt) - 101
        _check_sealed_folds(db, store, frame, None, False, max_ts)
    finally:
        db.close()


@pytest.mark.parametrize("width", [None, 3])
def test_mutating_returned_lists_leaves_storage_unchanged(width):
    """Sealed blocks are shared by every reader: nothing ``rows()`` or
    ``column()`` hands out may alias their cells."""
    index = TimeSeriesIndex(width=width)
    for ts in range(3 * BLOCK_ROWS):
        index.put("k", ts, (ts, ts * 2, ts * 3))
    before = scanned(index.scan_blocks("k"))
    blocks = index.scan_blocks("k")
    assert sum(block.sealed for block in blocks) == 2
    for block in blocks:
        rows = block.rows()
        rows.clear()
        column = block.column(0)
        column[:] = [None] * len(column)
    assert scanned(index.scan_blocks("k")) == before
    assert index.scan_blocks("k")[-1] is blocks[-1]  # shared, not copied
