"""Helpers shared by the benchmark files (importable via the sys.path
insertion in benchmarks/conftest.py)."""

from __future__ import annotations

import contextlib
import gc
import json
import pathlib
import re
import statistics
import time

from repro import OpenMLDB
from repro.online.engine import OnlineEngine
from repro.storage.skiplist import ColumnBlock
from repro.workloads.microbench import (MicroBenchConfig, build_feature_sql,
                                        generate)

__all__ = ["build_openmldb", "fold_without_summaries", "gc_paused",
           "median_of_runs", "medians_ms", "openmldb_for_config",
           "record_bench"]

BENCH_RESULTS_PATH = \
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_online.json"

#: Installed by ``benchmarks/conftest.py``: called with the figure name
#: before anything is written, and expected to raise if any harness
#: result produced by the current test was unfit to record (e.g. a
#: ``ClosedLoopResult`` that timed out — its qps describes a partial
#: run and must never become a headline number).
_result_guard = None

#: Set by ``benchmarks/conftest.py``: False when pytest-benchmark runs
#: with ``--benchmark-disable`` (a gate run such as ``make
#: bench-smoke``), so the run checks its figure but leaves
#: ``BENCH_online.json`` as it found it.
_recording = True


def record_bench(figure, **medians):
    """Persist one figure's median measurements to ``BENCH_online.json``.

    The file at the repo root maps figure name → {metric: median}; each
    benchmark run overwrites its own figure's entry and leaves the rest,
    so successive runs accumulate one comparable record per figure for
    regression tracking.  Only that entry's text changes: every other
    entry, the hand-written ledger entries included, keeps its bytes and
    its key order.  A run with ``--benchmark-disable`` writes nothing.
    """
    if _result_guard is not None:
        _result_guard(figure)
    if not _recording:
        return
    try:
        text = BENCH_RESULTS_PATH.read_text()
        results = json.loads(text)
    except (FileNotFoundError, ValueError):
        text, results = "{}\n", {}
    if not isinstance(results, dict):
        text, results = "{}\n", {}
    entry = results.get(figure)
    if not isinstance(entry, dict):
        entry = {}
    for metric, value in medians.items():
        entry[metric] = round(value, 6) if isinstance(value, float) \
            else value
    BENCH_RESULTS_PATH.write_text(_with_entry(text, figure, entry))


_JSON_BLANKS = re.compile(r"[ \t\n\r]*")


def _with_entry(text, name, entry):
    """``text``, a JSON object, with the value of its top-level key
    ``name`` replaced by ``entry`` (or ``entry`` added as its last key),
    every other byte kept."""
    rendered = json.dumps(entry, indent=2).replace("\n", "\n  ")
    decoder = json.JSONDecoder()
    position = _JSON_BLANKS.match(text, text.index("{") + 1).end()
    last_end = None
    while text[position] == '"':
        key, position = json.decoder.scanstring(text, position + 1)
        position = _JSON_BLANKS.match(text, position).end() + 1  # ":"
        start = _JSON_BLANKS.match(text, position).end()
        _value, end = decoder.raw_decode(text, start)
        if key == name:
            return text[:start] + rendered + text[end:]
        last_end = end
        position = _JSON_BLANKS.match(text, end).end()
        if text[position] == ",":
            position = _JSON_BLANKS.match(text, position + 1).end()
    addition = f"\n  {json.dumps(name)}: {rendered}"
    if last_end is None:
        close = text.index("}")
        return text[:close].rstrip() + addition + "\n" + text[close:]
    return text[:last_end] + "," + addition + text[last_end:]


@contextlib.contextmanager
def gc_paused():
    """Time a region with CPython's cyclic collector paused, as
    ``timeit`` does.  A generation-2 collection scans the whole pytest
    process — every earlier benchmark's data — and costs 10–20 ms here,
    more than a whole skewed makespan, so a gate comparing two
    single-shot makespans otherwise fails on whichever run the
    collection happens to land in (EXPERIMENTS.md, "One process")."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def median_of_runs(run):
    """The median of what three calls of ``run`` return (a makespan in
    seconds), each call with the collector paused.  A gate comparing
    single-shot makespans of a few ms reads the box, not the code."""
    results = []
    for _ in range(3):
        with gc_paused():
            results.append(run())
    return statistics.median(results)


def medians_ms(arms, rounds=40, warmup=5):
    """Median latency in ms of each ``(operation, requests)`` arm.

    The arms are timed round-robin — one request of each arm in turn,
    ``rounds`` times — so a stall on the box lands on every arm and not
    on one side of a comparison."""
    for operation, requests in arms:
        for row in requests[:warmup]:
            operation(row)
    samples = [[] for _ in arms]
    for index in range(rounds):
        for (operation, requests), timings in zip(arms, samples):
            row = requests[index % len(requests)]
            started = time.perf_counter()
            operation(row)
            timings.append((time.perf_counter() - started) * 1_000)
    return [statistics.median(timings) for timings in samples]


def build_openmldb(data, sql, deployment="bench", observability=False):
    """Stand up an OpenMLDB instance loaded with a MicroBench dataset."""
    db = OpenMLDB(observability=observability)
    for name, schema in data.schemas.items():
        db.create_table(name, schema, indexes=data.indexes[name])
    for name, rows in data.rows.items():
        db.insert_many(name, rows)
    db.deploy(deployment, sql)
    return db


def openmldb_for_config(config: MicroBenchConfig, request_count=80):
    """Generate + load + deploy one MicroBench configuration."""
    data = generate(config, request_count=request_count)
    sql = build_feature_sql(config)
    db = build_openmldb(data, sql)
    return db, data, sql


class _WithoutSummaries:
    """A table as a fold with no block summaries sees it: scans hand out
    sealed blocks, spans, the published tail and cuts of them as plain
    blocks (neither sealed nor memoizing) over the same columns, so the
    fold reads every value.  A test-side view, not a production
    switch."""

    def __init__(self, table):
        self._table = table

    def __getattr__(self, name):
        return getattr(self._table, name)

    def window_scan_blocks(self, *args, **kwargs):
        return [ColumnBlock(part._ts, part._columns, part._width)
                if part.memoizes else part
                for block in self._table.window_scan_blocks(*args, **kwargs)
                for part in getattr(block, "blocks", (block,))]


def fold_without_summaries(db, deployment):
    """The raw scan-fold of one deployment with no summaries — the
    measured "without" arm of figures 10, 11, the IoT workload and the
    fused-fold ablation: ``row → feature tuple``."""
    engine = OnlineEngine({name: _WithoutSummaries(table)
                           for name, table in db.tables.items()})
    compiled = db.deployments[deployment].compiled
    return lambda row: engine.execute_request(compiled, row)
