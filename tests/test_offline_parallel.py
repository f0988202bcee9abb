"""Differential test — however the offline engine's one body is run, it
computes the same feature rows, and they are the served answer.

The oracle is the online engine replaying the same rows: each primary
row is requested just before it is stored (the replay of
:mod:`repro.core.consistency`).  Against it:

* **skew** — (key, PART_ID) splitting along ts quantiles.  The plan
  decides the context: a ``carry_eligible`` window continues each
  partition from the previous one's end state, any other window
  prefixes expanded rows;
* **spill** — the shuffle through the external sorter on a tiny budget.

``test_one_body_differential`` crosses the two over a script with
``lag``, ``ew_avg``, ``drawdown``, ``variance``, disordered ``WINDOW
UNION`` rows, and ``EXCLUDE CURRENT_ROW`` and ``INSTANCE_NOT_IN_WINDOW``
frames that never evict.  Equality is exact (``==`` and
``repr``-equal), including ``sum`` / ``avg`` / ``variance`` /
``stddev`` over a ``double`` column whose values (±1e16, 1.0, 0.1)
make float addition order-dependent: a carried chain must replay the
serial fold's operations in order, not re-associate them.

Hypothesis drives the schedule of the second test: randomized frames
(unbounded, ROWS, ROWS_RANGE), NULLs, duplicate and out-of-order
timestamps, keys with zero rows, and ``workers=1``.  The ``smoke``
tests at the bottom are part of the ``make smoke`` gate: one tiny
carried-partials run and one spill run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import rows_equal
from repro.obs import Observability
from repro.offline import SkewConfig, SpillConfig
from repro.offline.engine import OfflineEngine
from repro.online.engine import OnlineEngine
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


def _identical(rows, base):
    assert rows == base
    assert repr(rows) == repr(base)


# One window per way a frame can relate to the carry path: eligible
# (w_all), eligible frame but ew_avg / drawdown have no exact merge
# (w_ord), eligible with the anchor excluded (w_excl), and a bounded
# WINDOW UNION frame that must replay expanded rows (w_union).  w_all
# also folds the double column d, where only a fold that keeps the
# serial order of additions reproduces the plain run's bits.  The last
# three never evict but cannot carry: order-sensitive and
# non-invertible aggregates with the anchor excluded (w_ex_ord), and a
# WINDOW UNION whose anchor joins its own window transiently (w_inst)
# or not at all (w_inst_ex).
ORDERED = ("lag(v, 1) OVER {w} AS lg_{w}, ew_avg(v, 0.3) OVER {w} AS ew_{w}, "
           "drawdown(v) OVER {w} AS dd_{w}, sum(d) OVER {w} AS sd_{w}")
UNBOUNDED = "ROWS_RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
WINDOWS = {     # name -> (select items, window definition)
    "w_all": ("sum(v) OVER w_all AS s, lag(v, 2) OVER w_all AS lg, "
              "variance(v) OVER w_all AS var, min(v) OVER w_all AS mn, "
              "distinct_count(v) OVER w_all AS dc, "
              "sum(d) OVER w_all AS sd, avg(d) OVER w_all AS ad, "
              "variance(d) OVER w_all AS vd, stddev(d) OVER w_all AS sdd",
              f"PARTITION BY k ORDER BY ts {UNBOUNDED}"),
    "w_ord": ("ew_avg(v, 0.3) OVER w_ord AS ew, drawdown(v) OVER w_ord AS dd, "
              "count(v) OVER w_ord AS c",
              "PARTITION BY k ORDER BY ts "
              "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"),
    "w_excl": ("sum(v) OVER w_excl AS s_ex, lag(v, 1) OVER w_excl AS lg_ex",
               f"PARTITION BY k ORDER BY ts {UNBOUNDED} EXCLUDE CURRENT_ROW"),
    "w_union": ("sum(v) OVER w_union AS s_un, max(v) OVER w_union AS mx_un",
                "UNION u PARTITION BY k ORDER BY ts "
                "ROWS_RANGE BETWEEN 40 PRECEDING AND CURRENT ROW"),
    "w_ex_ord": (ORDERED.format(w="w_ex_ord"),
                 f"PARTITION BY k ORDER BY ts {UNBOUNDED} "
                 "EXCLUDE CURRENT_ROW"),
    "w_inst": (ORDERED.format(w="w_inst"),
               f"UNION u PARTITION BY k ORDER BY ts {UNBOUNDED} "
               "INSTANCE_NOT_IN_WINDOW"),
    "w_inst_ex": (ORDERED.format(w="w_inst_ex"),
                  f"UNION u PARTITION BY k ORDER BY ts {UNBOUNDED} "
                  "EXCLUDE CURRENT_ROW INSTANCE_NOT_IN_WINDOW"),
}
CARRIED = {"w_all", "w_excl"}       # the windows the plan lets carry
UNIONS = {"w_union", "w_inst", "w_inst_ex"}


def _script(names):
    return ("SELECT k, " + ", ".join(WINDOWS[name][0] for name in names)
            + " FROM t WINDOW "
            + ", ".join(f"{name} AS ({WINDOWS[name][1]})" for name in names))


# The differential's scripts: all seven windows, where a skew run takes
# both paths, and the five that cannot carry, where every skew task
# prefixes expanded rows.
SCRIPTS = {"rich": list(WINDOWS),
           "expanded": [name for name in WINDOWS if name not in CARRIED]}


DOUBLES = (1e16, 0.1, -1e16, 1.0, None, 0.1, 1e16)


def _served(tables, compiled):
    """The online answer for each primary row: every row replays into
    empty tables in (ts, table, sequence) order, and each primary row is
    requested just before it is stored."""
    fresh = {name: MemTable(name, table.schema, table.indexes)
             for name, table in tables.items()}
    engine = OnlineEngine(fresh)
    replay = sorted(
        (row[1], rank, sequence, name, row)
        for rank, name in enumerate(("t", "u"))
        for sequence, row in enumerate(tables[name].rows()))
    served = [None] * tables["t"].row_count
    for _ts, _rank, sequence, name, row in replay:
        if name == "t":
            served[sequence] = engine.execute_request(compiled, row)
        fresh[name].insert(row)
    return served


@pytest.fixture(scope="module")
def rich():
    schema = Schema.from_pairs([
        ("k", "string"), ("ts", "timestamp"), ("v", "int"),
        ("d", "double")])
    tables = {name: MemTable(name, schema, [IndexDef(("k",), "ts")])
              for name in ("t", "u")}
    for i in range(150):     # u1 is hot; ts repeats and arrives disordered
        key = "u1" if i % 5 else KEYS[1 + i % 2]
        value = None if i % 11 == 0 else (i * 7) % 23 - 11
        tables["t"].insert((key, (i * 17) % 211, value,
                            DOUBLES[i % len(DOUBLES)]))
    for i in range(40):      # union rows arrive out of time order too
        tables["u"].insert((KEYS[i % 3], (i * 29) % 211, i % 9 - 4,
                            DOUBLES[i % len(DOUBLES)]))
    catalog = {name: schema for name in tables}
    plans = {}
    for script, names in SCRIPTS.items():
        compiled = compile_plan(
            build_plan(parse_select(_script(names)), catalog), catalog)
        plans[script] = (compiled, _served(tables, compiled))
    return OfflineEngine(tables, workers=4), plans


@pytest.mark.parametrize("spill", [None, SpillConfig(memory_budget_bytes=256)],
                         ids=["memory", "spill"])
@pytest.mark.parametrize("arm", ["no-skew", "expanded", "carried"])
def test_one_body_differential(rich, arm, spill):
    """no-skew and carried run every window, without and with skew: a
    carried run takes both paths, carried for the eligible windows and
    expanded rows for the rest.  expanded runs, with skew, only the
    windows that cannot carry."""
    engine, plans = rich
    compiled, served = plans["expanded" if arm == "expanded" else "rich"]
    skew = None if arm == "no-skew" else SKEW
    rows, stats = engine.execute(compiled, skew=skew, spill=spill)
    _identical(rows, served)
    assert set(stats.window_tasks) == set(compiled.windows)
    eligible = {name for name, window in compiled.windows.items()
                if window.carry_eligible}
    assert eligible == CARRIED & set(compiled.windows)
    assert (stats.carry_tasks > 0) == (arm == "carried")
    assert stats.tasks > (3 * len(compiled.windows) if skew else 0)
    if spill is not None:
        assert stats.shuffle["runs"] >= 1
        assert stats.shuffle["rows"] == (
            150 * len(compiled.windows)
            + 40 * len(UNIONS & set(compiled.windows)))


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
def test_random_schedules_byte_identical(events, frame, workers):
    schema, compiled = _compile(frame)
    engine = OfflineEngine({"t": _table(schema, events)}, workers=workers)
    base, base_stats = engine.execute(compiled)
    rows, stats = engine.execute(compiled, skew=SKEW)
    _identical(rows, base)
    assert stats.rows == base_stats.rows
    # A window carries exactly when its plan allows it and a key split.
    split = stats.tasks > len({key for key, _ts, _value in events})
    assert (stats.carry_tasks > 0) \
        == (split and compiled.windows["w"].carry_eligible)


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


def test_empty_table():
    schema, compiled = _compile(FRAMES[0])
    engine = OfflineEngine({"t": _table(schema, [])}, workers=4)
    rows, stats = engine.execute(compiled, skew=SKEW)
    assert rows == []
    assert stats.rows == 0


# ----------------------------------------------------------------------
# make smoke


def _smoke_data():
    schema, compiled = _compile(FRAMES[0])
    events = [(KEYS[i % 3], (i * 17) % 211, (i * 7) % 23 - 11)
              for i in range(90)]
    return schema, compiled, events


def test_smoke_carried_partials_round_trip():
    """Tiny carried-partials run: byte-identical to the plain run."""
    schema, compiled, events = _smoke_data()
    engine = OfflineEngine({"t": _table(schema, events)}, workers=4)
    base, _ = engine.execute(compiled)
    rows, stats = engine.execute(compiled, skew=SKEW)
    assert rows_equal(rows, base)
    assert stats.carry_tasks > 0


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
