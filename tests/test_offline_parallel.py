"""Differential test — however the offline engine's one body is run, it
computes the same feature rows.

The plain in-process run (no skew, no spill, no pool) is the reference.
Against it:

* **skew** — (key, PART_ID) splitting along ts quantiles, with
  expanded-row context and with carried merged partials
  (``merge_partials=True``);
* **spill** — the shuffle through the external sorter on a tiny budget;
* **pool=** — the same tasks shipped to a hand-in
  :class:`~repro.offline.pool.WindowProcessPool` over the RowCodec wire
  format (skipped where multiprocessing cannot start — the engine hides
  nothing, the pool's constructor raises).

``test_one_body_differential`` crosses all three over a script with
``lag``, ``ew_avg``, ``drawdown``, ``variance``, a ``WINDOW UNION`` and
an ``EXCLUDE CURRENT_ROW`` frame.  Data is integer-valued so equality
is *exact* (``==`` and ``repr``-equal): integer folds have no rounding,
which is what lets carried partials be compared bit-for-bit against the
plain fold.

Hypothesis drives the schedule of the second test: randomized frames
(unbounded, ROWS, ROWS_RANGE), NULLs, duplicate and out-of-order
timestamps, keys with zero rows, and ``workers=1``.  The ``smoke``
tests at the bottom are part of the ``make smoke`` gate: one tiny
process-pool + spill run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import rows_equal
from repro.obs import Observability
from repro.offline import (ProcessPoolUnavailable, SkewConfig, SpillConfig,
                           WindowProcessPool)
from repro.offline.engine import OfflineEngine
from repro.schema import IndexDef, Schema
from repro.sql.compiler import compile_plan
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.storage.memtable import MemTable

KEYS = ("u1", "u2", "u3")

SQL_TEMPLATE = (
    "SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c, "
    "avg(v) OVER w AS a, min(v) OVER w AS mn, max(v) OVER w AS mx, "
    "distinct_count(v) OVER w AS dc, lag(v, 1) OVER w AS lg "
    "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts {frame})")

FRAMES = (
    "ROWS_RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
    "ROWS_RANGE BETWEEN 50 PRECEDING AND CURRENT ROW",
    "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW",
)

SKEW = SkewConfig(quantile=3, min_partition_rows=4)
SKEW_CARRY = SkewConfig(quantile=3, min_partition_rows=4,
                        merge_partials=True)


def _compile(frame):
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "int")])
    catalog = {"t": schema}
    sql = SQL_TEMPLATE.format(frame=frame)
    return schema, compile_plan(build_plan(parse_select(sql), catalog),
                                catalog)


def _table(schema, events):
    table = MemTable("t", schema, [IndexDef(("k",), "ts")])
    for key, ts, value in events:
        table.insert((key, ts, value))
    return table


@pytest.fixture(scope="module")
def pool():
    """One two-worker pool for the module — start-up is the expensive
    part, not the task payloads."""
    try:
        workers = WindowProcessPool(2)
    except ProcessPoolUnavailable as exc:
        pytest.skip(str(exc))
    with workers:
        yield workers


def _identical(rows, base):
    assert rows == base
    assert repr(rows) == repr(base)


# One window per way a frame can relate to the carry path: eligible
# (w_all), eligible frame but ew_avg / drawdown have no exact merge
# (w_ord), eligible with the anchor excluded (w_excl), and a bounded
# WINDOW UNION frame that must replay expanded rows (w_union).
RICH_SQL = (
    "SELECT k, sum(v) OVER w_all AS s, lag(v, 2) OVER w_all AS lg, "
    "variance(v) OVER w_all AS var, min(v) OVER w_all AS mn, "
    "distinct_count(v) OVER w_all AS dc, "
    "ew_avg(v, 0.3) OVER w_ord AS ew, drawdown(v) OVER w_ord AS dd, "
    "count(v) OVER w_ord AS c, "
    "sum(v) OVER w_excl AS s_ex, lag(v, 1) OVER w_excl AS lg_ex, "
    "sum(v) OVER w_union AS s_un, max(v) OVER w_union AS mx_un "
    "FROM t WINDOW "
    "w_all AS (PARTITION BY k ORDER BY ts "
    "ROWS_RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), "
    "w_ord AS (PARTITION BY k ORDER BY ts "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), "
    "w_excl AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN "
    "UNBOUNDED PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW), "
    "w_union AS (UNION u PARTITION BY k ORDER BY ts "
    "ROWS_RANGE BETWEEN 40 PRECEDING AND CURRENT ROW)")


@pytest.fixture(scope="module")
def rich():
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "int")])
    tables = {name: MemTable(name, schema, [IndexDef(("k",), "ts")])
              for name in ("t", "u")}
    for i in range(150):     # u1 is hot; ts repeats and arrives disordered
        key = "u1" if i % 5 else KEYS[1 + i % 2]
        value = None if i % 11 == 0 else (i * 7) % 23 - 11
        tables["t"].insert((key, (i * 17) % 211, value))
    for i in range(40):
        tables["u"].insert((KEYS[i % 3], (i * 29) % 211, i % 9 - 4))
    catalog = {name: schema for name in tables}
    compiled = compile_plan(build_plan(parse_select(RICH_SQL), catalog),
                            catalog)
    engine = OfflineEngine(tables, workers=4)
    base, base_stats = engine.execute(compiled)
    assert not base_stats.used_process_pool
    return engine, compiled, base


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
@pytest.mark.parametrize("spill", [None, SpillConfig(memory_budget_bytes=256)],
                         ids=["memory", "spill"])
@pytest.mark.parametrize("skew", [None, SKEW, SKEW_CARRY],
                         ids=["no-skew", "expanded", "carried"])
def test_one_body_differential(rich, request, skew, spill, pooled):
    engine, compiled, base = rich
    workers = request.getfixturevalue("pool") if pooled else None
    rows, stats = engine.execute(compiled, skew=skew, spill=spill,
                                 pool=workers)
    _identical(rows, base)
    assert stats.used_process_pool == pooled
    assert stats.used_parallel_windows
    assert (stats.carry_tasks > 0) == (skew is SKEW_CARRY)
    assert stats.tasks > (3 * 4 if skew else 0)
    if spill is not None:
        assert stats.shuffle["runs"] >= 1
        assert stats.shuffle["rows"] == 4 * 150 + 40


events_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.integers(min_value=0, max_value=300),
              st.one_of(st.none(),
                        st.integers(min_value=-30, max_value=30))),
    min_size=0, max_size=40)


@given(events=events_strategy,
       frame=st.sampled_from(FRAMES),
       workers=st.sampled_from([1, 4]))
@settings(max_examples=25, deadline=None)
def test_random_schedules_byte_identical(pool, events, frame, workers):
    schema, compiled = _compile(frame)
    engine = OfflineEngine({"t": _table(schema, events)}, workers=workers)
    base, base_stats = engine.execute(compiled)
    for skew, workers_pool in ((None, pool), (SKEW, None),
                               (SKEW_CARRY, None), (SKEW_CARRY, pool)):
        rows, stats = engine.execute(compiled, skew=skew,
                                     pool=workers_pool)
        _identical(rows, base)
        assert stats.rows == base_stats.rows
        assert stats.used_process_pool == (workers_pool is not None)


@given(events=events_strategy)
@settings(max_examples=10, deadline=None)
def test_spill_shuffle_byte_identical(events):
    schema, compiled = _compile(FRAMES[0])
    engine = OfflineEngine({"t": _table(schema, events)}, workers=4)
    base, _ = engine.execute(compiled)
    spilled, stats = engine.execute(
        compiled, spill=SpillConfig(memory_budget_bytes=256))
    assert spilled == base
    assert stats.shuffle["rows"] == len(events)
    if len(events) >= 8:
        # Each record costs ~(row bytes + 64) against the 256-byte
        # budget, so a handful of rows guarantees at least one run.
        assert stats.shuffle["runs"] >= 1


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
def test_empty_table(request, pooled):
    schema, compiled = _compile(FRAMES[0])
    engine = OfflineEngine({"t": _table(schema, [])}, workers=4)
    rows, stats = engine.execute(
        compiled, skew=SKEW_CARRY,
        pool=request.getfixturevalue("pool") if pooled else None)
    assert rows == []
    assert stats.rows == 0


# ----------------------------------------------------------------------
# make smoke


def _smoke_data():
    schema, compiled = _compile(FRAMES[0])
    events = [(KEYS[i % 3], (i * 17) % 211, (i * 7) % 23 - 11)
              for i in range(90)]
    return schema, compiled, events


def test_smoke_process_pool_round_trip(pool):
    """Tiny pool run: byte-identical to the in-process run."""
    schema, compiled, events = _smoke_data()
    engine = OfflineEngine({"t": _table(schema, events)}, workers=4)
    base, _ = engine.execute(compiled)
    rows, stats = engine.execute(compiled, skew=SKEW_CARRY, pool=pool)
    assert rows_equal(rows, base)
    assert stats.used_process_pool and stats.carry_tasks


def test_smoke_spill_exceeds_budget_with_observable_metrics():
    """A run over budget must spill, finish, and count it."""
    schema, compiled, events = _smoke_data()
    table = _table(schema, events)
    obs = Observability(enabled=True)
    engine = OfflineEngine({"t": table}, workers=4, obs=obs)
    base, _ = engine.execute(compiled)
    rows, stats = engine.execute(
        compiled, spill=SpillConfig(memory_budget_bytes=512))
    assert rows_equal(rows, base)
    assert stats.shuffle["runs"] >= 1
    assert stats.shuffle["spilled_rows"] > 0
    assert stats.shuffle["spilled_bytes"] > 0
    registry = obs.registry
    assert registry.get("offline.shuffle.runs").value \
        == stats.shuffle["runs"]
    assert registry.get("offline.shuffle.spilled_rows").value \
        == stats.shuffle["spilled_rows"]
    assert registry.get("offline.shuffle.spilled_bytes").value \
        == stats.shuffle["spilled_bytes"]
