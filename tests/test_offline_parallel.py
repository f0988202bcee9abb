"""Differential test — every offline execution mode computes the same
feature rows.

The offline engine runs one fold kernel
(:class:`repro.offline.partial.WindowKernel`) under four regimes:

1. **serial** — every window and task in sequence (the oracle);
2. **thread** — window tasks pipelined on a thread pool;
3. **process** — (key, PART_ID) tasks shipped to multiprocessing
   workers over the RowCodec wire format (degrading to threads when
   multiprocessing is unavailable — the test asserts equality either
   way, so it stays hermetic);
4. **skew-resolved** — (key, PART_ID) splitting along ts quantiles,
   both with expanded-row context and with carried merged partials
   (``merge_partials=True``), in every mode above.

Data is integer-valued so equality is *exact* (``==``, byte-identical):
integer folds have no rounding, which is what lets carried partials be
compared bit-for-bit against the serial fold.

Hypothesis drives the schedule: randomized frames (unbounded, ROWS,
ROWS_RANGE), NULLs, duplicate and out-of-order timestamps, keys with
zero rows, and ``workers=1``.  The ``smoke`` tests at the bottom are
part of the ``make smoke`` gate: one tiny process-pool + spill run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import rows_equal
from repro.obs import Observability
from repro.offline import SkewConfig, SpillConfig
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
def shared_engine_factory():
    """One engine (hence one process pool) shared across all examples —
    pool start-up is the expensive part, not the task payloads."""
    engines = {}

    def factory(table, workers=4):
        # Hypothesis re-runs share the engine; only the table swaps.
        engine = engines.get(workers)
        if engine is None:
            engine = OfflineEngine({"t": table}, workers=workers,
                                   pool_workers=2)
            engines[workers] = engine
        engine._tables = {"t": table}
        return engine

    yield factory
    for engine in engines.values():
        engine.close()


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
def test_all_modes_byte_identical(shared_engine_factory, events, frame,
                                  workers):
    schema, compiled = _compile(frame)
    table = _table(schema, events)
    engine = shared_engine_factory(table, workers=workers)

    base, base_stats = engine.execute(compiled, mode="serial")
    assert base_stats.mode == "serial"
    assert not base_stats.used_parallel_windows

    variants = [
        engine.execute(compiled, mode="thread"),
        engine.execute(compiled, mode="process"),
        engine.execute(compiled, mode="serial", skew=SKEW),
        engine.execute(compiled, mode="thread", skew=SKEW_CARRY),
        engine.execute(compiled, mode="process", skew=SKEW_CARRY),
    ]
    for rows, stats in variants:
        assert rows == base
        assert stats.rows == base_stats.rows

    # Graceful degradation is visible, never silent: a process run is
    # either genuinely in the pool or flagged as a thread fallback.
    for rows, stats in (variants[1], variants[4]):
        assert stats.requested_mode == "process"
        if stats.pool_fallback:
            assert stats.mode == "thread"
            assert not stats.used_process_pool
        else:
            assert stats.mode == "process"
            assert stats.used_process_pool


@given(events=events_strategy)
@settings(max_examples=10, deadline=None)
def test_spill_shuffle_byte_identical(shared_engine_factory, events):
    schema, compiled = _compile(FRAMES[0])
    table = _table(schema, events)
    engine = shared_engine_factory(table)
    base, _ = engine.execute(compiled, mode="serial")
    spilled, stats = engine.execute(
        compiled, mode="serial",
        spill=SpillConfig(memory_budget_bytes=256))
    assert spilled == base
    assert stats.shuffle["rows"] == len(events)
    if len(events) >= 8:
        # Each record costs ~(row bytes + 64) against the 256-byte
        # budget, so a handful of rows guarantees at least one run.
        assert stats.shuffle["runs"] >= 1


def test_empty_table_every_mode(shared_engine_factory):
    schema, compiled = _compile(FRAMES[0])
    table = _table(schema, [])
    engine = shared_engine_factory(table)
    for mode in ("serial", "thread", "process"):
        rows, stats = engine.execute(compiled, mode=mode, skew=SKEW_CARRY)
        assert rows == []
        assert stats.rows == 0


# ----------------------------------------------------------------------
# make smoke


def _smoke_data():
    schema, compiled = _compile(FRAMES[0])
    events = [(KEYS[i % 3], (i * 17) % 211, (i * 7) % 23 - 11)
              for i in range(90)]
    return schema, compiled, events


def test_smoke_process_pool_round_trip():
    """Tiny process run: byte-identical to serial, hermetic fallback."""
    schema, compiled, events = _smoke_data()
    table = _table(schema, events)
    engine = OfflineEngine({"t": table}, workers=4, pool_workers=2)
    try:
        base, _ = engine.execute(compiled, mode="serial")
        rows, stats = engine.execute(compiled, mode="process",
                                     skew=SKEW_CARRY)
        assert rows_equal(rows, base)
        assert stats.mode in ("process", "thread")
        assert stats.mode == "thread" if stats.pool_fallback \
            else stats.mode == "process"
    finally:
        engine.close()


def test_smoke_spill_exceeds_budget_with_observable_metrics():
    """A run over budget must spill, finish, and count it."""
    schema, compiled, events = _smoke_data()
    table = _table(schema, events)
    obs = Observability(enabled=True)
    engine = OfflineEngine({"t": table}, workers=4, obs=obs)
    try:
        base, _ = engine.execute(compiled, mode="serial")
        rows, stats = engine.execute(
            compiled, mode="thread",
            spill=SpillConfig(memory_budget_bytes=512))
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
    finally:
        engine.close()
