"""Differential test — every execution tier computes the same features.

Two request paths answer the same deployed window script:

1. **fused** — block-based scans feeding the compiler's fused fold
   kernel;
2. **incremental** — ingest-time per-key window state (the default
   ``request_row`` path once a deployment is incremental-eligible).

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

Data is integer-valued so equality is *exact* (byte-identical): integer
subtract-and-evict has no rounding, which is precisely what lets the
incremental path be compared with ``==`` rather than approx.

Hypothesis drives the schedule: randomized frames, TTL specs,
out-of-order and duplicate timestamps, NULLs, a deploy point in the
middle of the insert stream (so both backfill and binlog absorption are
exercised), TTL eviction mid-stream, and request anchors at, past, and
before the newest tuple (hit, hit, and fallback paths).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OpenMLDB
from repro.baselines.interp import interpret_expr
from repro.online.engine import _COUNTER_FIELDS
from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.sql import ast

KEYS = ("u1", "u2", "u3")

FEATURE_SQL_TEMPLATE = (
    "SELECT k, a + b AS ab, sum(a) OVER w AS s_a, count(b) OVER w AS c_b, "
    "avg(a) OVER w AS v_a, min(a) OVER w AS mn_a, max(b) OVER w AS mx_b, "
    "distinct_count(b) OVER w AS dc_b "
    "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts {frame}{opts})")

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
    """key → newest-first [(ts, seq, a, b)] with the storage tie order:
    for equal ts the later arrival (higher seq) comes first."""
    store = {key: [] for key in KEYS}
    for seq, (key, ts, a, b) in enumerate(events):
        store[key].append((ts, seq, a, b))
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


def _reference_features(store, request, frame, maxsize, exclude):
    key, anchor, req_a, req_b = request
    kind, bound = frame
    stored = [r for r in store.get(key, ()) if r[0] <= anchor]
    if kind == "range":
        stored = [r for r in stored if r[0] >= anchor - bound]
    else:  # ROWS n PRECEDING → n stored rows besides the request row
        stored = stored[:bound]
    window = ([] if exclude else [(anchor, None, req_a, req_b)]) + stored
    if maxsize is not None:
        window = window[:maxsize]
    a_stats = _agg([r[2] for r in window])
    b_stats = _agg([r[3] for r in window])
    ab = interpret_expr(AB_EXPR, {"a": req_a, "b": req_b})
    return (key, ab, a_stats["sum"], b_stats["count"], a_stats["avg"],
            a_stats["min"], b_stats["max"], b_stats["distinct_count"])


# ----------------------------------------------------------------------
# scenario strategies

_value = st.one_of(st.none(), st.integers(-50, 50))

_events = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(0, 3000), _value, _value),
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
                                ("a", "int"), ("b", "int")])
    db.create_table("t", schema,
                    indexes=[IndexDef(("k",), "ts", ttl or TTLSpec())])
    for event in events[:deploy_at]:
        db.insert("t", event)
    db.deploy("d", FEATURE_SQL_TEMPLATE.format(frame=frame_sql, opts=opts))
    for event in events[deploy_at:]:
        db.insert("t", event)
    db.replicator.wait_idle(timeout=5.0)
    return db


def _build_twins(*args, **kwargs):
    """The same scenario twice: observability off, and on."""
    return tuple(_build_db(*args, observability=observability, **kwargs)
                 for observability in (False, True))


def _requests(events):
    max_ts = max(ts for _k, ts, _a, _b in events)
    anchors = (max_ts + 17, max_ts, max_ts // 2)
    rows = [(key, anchor, a, b)
            for key in KEYS + ("cold-key",)
            for anchor, (a, b) in zip(anchors,
                                      ((5, -3), (None, 4), (7, None)))]
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
            # Default path: fused kernels + incremental state where
            # eligible.
            assert tuple(instance.request_row("d", request)) == expected
            # Fused scan-fold without ingest-time state.
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
        deployment = db.deployments["d"]
        assert deployment.uses_incremental  # every aggregate is invertible
        store = _reference_store(events)
        requests, max_ts = _requests(events)

        _check_all_paths(db, traced_db, store, frame, maxsize, exclude,
                         requests)
        # Warm keys at fresh anchors must have taken the O(aggregates)
        # path, not fallen back to a scan.
        assert db.online_engine.stats.incremental_hits >= 1

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
    events = [("u1", 1000, 3, 1), ("u1", 5000, 4, None),
              ("u1", 2000, None, 9),   # late arrival, far in the past
              ("u1", 4000, 6, 9), ("u1", 5000, 1, 2)]  # duplicate ts
    frame = ("range", 2000)
    db, traced_db = _build_twins(events, deploy_at=2, frame=frame,
                                 maxsize=None, exclude=False, ttl=None)
    try:
        store = _reference_store(events)
        requests = [("u1", 6000, 5, 5), ("u1", 5000, None, 5),
                    ("u1", 3000, 2, 2)]  # past anchor → fallback scan
        _check_all_paths(db, traced_db, store, frame, None, False,
                         requests)
        assert db.online_engine.stats.incremental_hits >= 2
        assert db.online_engine.stats.incremental_fallbacks >= 1
    finally:
        db.close()
        traced_db.close()


def test_ttl_evicted_rows_byte_identical():
    # Absolute TTL tighter than the frame: eviction changes the features
    # and every tier must agree on the post-TTL row set.
    events = [("u2", ts, ts // 100, ts // 200) for ts in
              (1000, 1400, 1800, 2200, 2600, 3000)]
    frame = ("range", 2500)
    ttl = TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=800)
    db, traced_db = _build_twins(events, deploy_at=6, frame=frame,
                                 maxsize=None, exclude=False, ttl=ttl)
    try:
        store = _reference_store(events)
        before = tuple(db.request_row("d", ("u2", 3100, 1, 1)))
        assert tuple(traced_db.request_row("d", ("u2", 3100, 1, 1))) \
            == before
        db.evict_expired(3000)
        traced_db.evict_expired(3000)
        _reference_evict(store, ttl, 3000)
        requests = [("u2", 3100, 1, 1), ("u2", 3000, None, None)]
        _check_all_paths(db, traced_db, store, frame, None, False,
                         requests)
        after = tuple(db.request_row("d", ("u2", 3100, 1, 1)))
        assert before != after  # the TTL sweep really narrowed the window
    finally:
        db.close()
        traced_db.close()
