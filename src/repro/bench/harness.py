"""Benchmark harness: latency percentiles, throughput, table printing.

Shared by every file under ``benchmarks/``.  Latency reporting follows
the paper's tail-percentile convention (Table 3: TP50/TP90/TP95/TP99/
TP999); tables and series print in the same row/series shapes the paper's
figures use, so a bench run reads like the corresponding figure.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence)

__all__ = ["LatencyStats", "measure_latencies", "measure_throughput",
           "print_table", "print_series", "speedup",
           "stage_breakdown", "print_stage_breakdown",
           "ClosedLoopResult", "closed_loop"]

_PERCENTILES = (50, 90, 95, 99, 99.9)


@dataclasses.dataclass
class LatencyStats:
    """Latency percentile summary (milliseconds)."""

    samples: int
    tp50: float
    tp90: float
    tp95: float
    tp99: float
    tp999: float
    mean: float

    @classmethod
    def from_seconds(cls, seconds: Sequence[float]) -> "LatencyStats":
        if not seconds:
            raise ValueError("no samples")
        millis = sorted(value * 1_000 for value in seconds)

        def percentile(p: float) -> float:
            rank = max(math.ceil(p / 100 * len(millis)) - 1, 0)
            return millis[rank]

        return cls(
            samples=len(millis),
            tp50=percentile(50), tp90=percentile(90),
            tp95=percentile(95), tp99=percentile(99),
            tp999=percentile(99.9),
            mean=sum(millis) / len(millis))

    def row(self) -> Dict[str, float]:
        return {"TP50": self.tp50, "TP90": self.tp90, "TP95": self.tp95,
                "TP99": self.tp99, "TP999": self.tp999}


def measure_latencies(operation: Callable[[Any], Any],
                      inputs: Iterable[Any],
                      warmup: int = 5) -> LatencyStats:
    """Time ``operation`` per input; returns percentile stats.

    The first ``warmup`` calls are executed but not recorded (cache
    warm-up, matching how serving benchmarks are run).
    """
    items = list(inputs)
    clock = time.perf_counter
    seconds: List[float] = []
    for index, item in enumerate(items):
        started = clock()
        operation(item)
        elapsed = clock() - started
        if index >= warmup:
            seconds.append(elapsed)
    if not seconds:  # fewer inputs than warmup
        raise ValueError("need more inputs than warmup iterations")
    return LatencyStats.from_seconds(seconds)


def measure_throughput(operation: Callable[[Any], Any],
                       inputs: Iterable[Any]) -> float:
    """Operations per second over the full input stream.

    Raises:
        ValueError: the clock measured zero elapsed time — a broken
            clock or an empty measurement must not report infinite
            throughput (an ``inf`` silently wins every comparison a
            benchmark makes).
    """
    items = list(inputs)
    started = time.perf_counter()
    for item in items:
        operation(item)
    elapsed = time.perf_counter() - started
    if elapsed <= 0:
        raise ValueError(
            f"measure_throughput: non-positive elapsed time ({elapsed}s "
            f"over {len(items)} operations); cannot report a rate")
    return len(items) / elapsed


@dataclasses.dataclass
class ClosedLoopResult:
    """Outcome of one :func:`closed_loop` run."""

    #: Barrier release to the last client finishing its call loop —
    #: setup, teardown, and any straggler ``join`` wait are excluded
    #: (a timed-out run must not fold idle join waiting into ``qps``).
    wall_seconds: float
    latencies: List[float]          # per-success latency, seconds
    errors: List[BaseException]     # exceptions raised by ``call``
    #: True when a client thread was still running at ``join_timeout``;
    #: ``latencies``/``qps`` then describe a *partial* run and must not
    #: be reported as a completed benchmark.
    timed_out: bool = False

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def qps(self) -> float:
        if self.wall_seconds <= 0:
            raise ValueError(
                f"qps undefined: wall_seconds={self.wall_seconds} "
                "(no measured wall-clock interval)")
        return self.completed / self.wall_seconds

    def stats(self) -> LatencyStats:
        return LatencyStats.from_seconds(self.latencies)


#: Callables invoked with every result the closed-loop drivers return
#: (:func:`closed_loop` here, ``paced_loop`` in :mod:`repro.bench.slo`).
#: A tooling hook, not a metrics channel: ``benchmarks/conftest.py``
#: registers an observer so ``record_bench`` can refuse to persist
#: medians from a run that timed out.
result_observers: List[Callable[[Any], None]] = []


def _notify_observers(result: Any) -> Any:
    for observer in list(result_observers):
        observer(result)
    return result


def closed_loop(clients: int, iters: int,
                call: Callable[[Any, int], Any], *,
                setup: Optional[Callable[[int], Any]] = None,
                teardown: Optional[Callable[[Any], Any]] = None,
                join_timeout: float = 120.0) -> ClosedLoopResult:
    """Drive ``call`` from ``clients`` closed-loop threads.

    Each thread issues ``iters`` sequential calls (the next one starts
    when the previous returns — the serving benchmarks' load model).
    All threads release from a barrier together, so the wall clock
    measures steady concurrent load, not thread start-up skew:
    ``wall_seconds`` runs from barrier release to the last client
    finishing its call loop.

    The first argument to ``call(ctx, i)`` is the thread's context:
    the client index by default, or whatever ``setup(cid)`` returned —
    which is how the network benchmarks give each thread its own
    connection (``setup=lambda cid: NetClient(host, port)``,
    ``teardown=NetClient.close``).

    A call that raises is recorded in ``errors`` and does not produce
    a latency sample; the thread carries on.  Setup/teardown run
    outside the timed region.

    A ``setup(cid)`` that raises **aborts the whole run immediately**:
    the barrier is broken so no sibling blocks waiting for a client
    that will never arrive, the exception lands in ``errors``, and
    ``teardown`` runs only for contexts that were actually created.
    (The old behaviour — the thread died before ``barrier.wait()`` and
    every other client stalled until ``join_timeout`` — turned one
    bad connection into a two-minute hang.)

    If any client thread is still running after ``join_timeout`` the
    result is marked ``timed_out`` and a ``TimeoutError`` is appended to
    ``errors`` — a partial run must fail loudly, not masquerade as a
    fast one (benchmarks assert ``not result.timed_out``).
    """
    return _notify_observers(_run_clients(
        "closed_loop", clients, iters, call, setup=setup,
        teardown=teardown, join_timeout=join_timeout))


def _run_clients(driver: str, clients: int, iters: int,
                 call: Callable[[Any, int], Any], *,
                 setup: Optional[Callable[[int], Any]],
                 teardown: Optional[Callable[[Any], Any]],
                 join_timeout: float,
                 schedule: Optional[Callable[[int, int], float]] = None
                 ) -> ClosedLoopResult:
    """The body of both load drivers (:func:`closed_loop` and
    ``paced_loop``): ``clients`` threads of ``iters`` calls each, with the
    setup, barrier, straggler and wall-clock rules :func:`closed_loop`
    documents.

    ``schedule(cid, index)``, when given, is the seconds after the
    client's barrier release at which its call ``index`` is due: the
    client sleeps until then, never skips a late call, and the call's
    latency runs from when it was due.  Without a schedule a call's
    latency runs from its actual start.
    """
    barrier = threading.Barrier(clients)
    latencies: List[float] = []
    errors: List[BaseException] = []
    release_times: List[float] = []
    finish_times: List[float] = []
    lock = threading.Lock()

    def run(cid: int) -> None:
        context: Any = cid
        created = setup is None
        try:
            if setup is not None:
                try:
                    context = setup(cid)
                    created = True
                except Exception as exc:
                    with lock:
                        errors.append(exc)
                    barrier.abort()
                    return
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return  # a sibling's setup failed; nothing to measure
            base = time.perf_counter()
            with lock:
                release_times.append(base)
            for index in range(iters):
                begin = time.perf_counter()
                if schedule is not None:
                    due = base + schedule(cid, index)
                    if begin < due:
                        time.sleep(due - begin)
                    begin = due
                try:
                    call(context, index)
                except Exception as exc:
                    with lock:
                        errors.append(exc)
                    continue
                elapsed = time.perf_counter() - begin
                with lock:
                    latencies.append(elapsed)
        finally:
            with lock:
                finish_times.append(time.perf_counter())
            if teardown is not None and created:
                try:
                    teardown(context)
                except Exception as exc:
                    with lock:
                        errors.append(exc)

    threads = [threading.Thread(target=run, args=(cid,), daemon=True)
               for cid in range(clients)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + join_timeout
    for thread in threads:
        thread.join(timeout=max(deadline - time.monotonic(), 0.0))
    stragglers = [thread for thread in threads if thread.is_alive()]
    if stragglers:
        errors.append(TimeoutError(
            f"{driver}: {len(stragglers)}/{clients} client thread(s) "
            f"still running after join_timeout={join_timeout}s; "
            "latencies are partial"))
    # Wall clock of the *measured* region: barrier release to the last
    # client that finished.  Stamping after the straggler join used to
    # fold up to join_timeout seconds of idle waiting into qps.
    with lock:
        started = min(release_times) if release_times else wall_start
        ended = max(finish_times) if finish_times else time.perf_counter()
    return ClosedLoopResult(
        wall_seconds=max(ended - started, 0.0),
        latencies=latencies, errors=errors,
        timed_out=bool(stragglers))


def speedup(baseline_seconds: float, optimized_seconds: float) -> float:
    """baseline / optimized, guarded against zero."""
    if optimized_seconds <= 0:
        return float("inf")
    return baseline_seconds / optimized_seconds


def stage_breakdown(tracer: Any) -> List[Dict[str, Any]]:
    """Aggregate a tracer's finished spans by span name.

    Returns one dict per stage (``name``, ``count``, ``total_ms``,
    ``mean_ms``, ``max_ms``), sorted by total time descending — the
    "where did the request latency go" view used when reading the
    paper's figures (see EXPERIMENTS.md).
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for span in tracer.export():
        entry = totals.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "total_ms": 0.0,
             "max_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += span["duration_ms"]
        entry["max_ms"] = max(entry["max_ms"], span["duration_ms"])
    stages = sorted(totals.values(),
                    key=lambda entry: entry["total_ms"], reverse=True)
    for entry in stages:
        entry["mean_ms"] = entry["total_ms"] / entry["count"]
    return stages


def print_stage_breakdown(title: str, tracer: Any) -> None:
    """Print :func:`stage_breakdown` as an aligned table."""
    stages = stage_breakdown(tracer)
    print_table(title, ["stage", "count", "total ms", "mean ms", "max ms"],
                [[entry["name"], entry["count"], entry["total_ms"],
                  entry["mean_ms"], entry["max_ms"]] for entry in stages])


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[Any]]) -> None:
    """Print an aligned table in the paper's row shape."""
    widths = [len(str(header)) for header in headers]
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    print(f"\n== {title} ==")
    print(" | ".join(str(header).ljust(width)
                     for header, width in zip(headers, widths)))
    print("-+-".join("-" * width for width in widths))
    for row in rendered:
        print(" | ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)))


def print_series(title: str, x_label: str, xs: Sequence[Any],
                 series: Dict[str, Sequence[Any]]) -> None:
    """Print figure-style series: one row per x, one column per system."""
    headers = [x_label, *series.keys()]
    rows = [[x, *(values[index] for values in series.values())]
            for index, x in enumerate(xs)]
    print_table(title, headers, rows)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 0.01 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
