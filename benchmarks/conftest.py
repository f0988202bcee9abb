"""Shared fixtures for the benchmark suite.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation (Section 9); DESIGN.md carries the experiment index.
Scales are laptop-sized — the assertions check the *shape* of each result
(who wins, roughly by what factor), not the paper's absolute numbers.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make `from tests.conftest import ...`-style helpers unnecessary here;
# benchmarks only need the library itself.
sys.path.insert(0, str(Path(__file__).resolve().parent))

import _util  # noqa: E402
from _util import build_openmldb  # noqa: E402
from repro.bench import harness
from repro.workloads.microbench import (MicroBenchConfig, build_feature_sql,
                                        generate)


@pytest.fixture(autouse=True)
def guard_recorded_results(request):
    """Refuse to record figures built on timed-out harness runs.

    Every :func:`~repro.bench.closed_loop` / paced-loop result produced
    while a benchmark test runs is observed here; if any was marked
    ``timed_out`` (a straggler survived ``join_timeout``, so latencies
    and qps describe a *partial* run), ``record_bench`` raises instead
    of writing the figure into ``BENCH_online.json``.  Benchmark files
    bind ``record_bench`` by value at import time, so the hook lives
    inside ``_util.record_bench`` itself rather than a monkeypatch.
    Under ``--benchmark-disable`` the figure is still checked, but
    ``record_bench`` writes nothing.
    """
    unfit = []

    def observe(result):
        if getattr(result, "timed_out", False):
            unfit.append(result)

    def guard(figure):
        assert not unfit, (
            f"refusing to record {figure!r}: {len(unfit)} harness "
            f"result(s) timed out — partial latencies/qps must not "
            f"become recorded medians")

    harness.result_observers.append(observe)
    _util._result_guard = guard
    _util._recording = not request.config.getoption("benchmark_disable")
    try:
        yield
    finally:
        harness.result_observers.remove(observe)
        _util._result_guard = None


@pytest.fixture(scope="session")
def microbench_online():
    """Mid-scale MicroBench shared by the online figures."""
    config = MicroBenchConfig(keys=120, rows_per_key=100, windows=2,
                              joins=1, union_tables=2, value_columns=3,
                              seed=17)
    data = generate(config, request_count=160)
    sql = build_feature_sql(config)
    db = build_openmldb(data, sql)
    return config, data, sql, db
