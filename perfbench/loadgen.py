"""The closed-loop load generator: segments, the yardstick, the counters.

One process, at most two threads and two connections (``nproc`` is 2 on
the reference box).  A phase is a sequence of *segments*; each drives
its connections flat out for a fixed time with one kind of op, and is
bracketed by marks of server CPU, generator CPU and host steal.

**The yardstick.**  This host's effective CPU speed moves by 20-70% for
minutes at a time (shared hardware; steal does not show it), and every
time-based metric moves with it.  What tracks it is the generator's
*own* CPU cost per op: the same bytes built, sent, received and checked
every time, on the same CPU as the server and interleaved with its
work.  ``speed`` divides that cost by the value each workload records
for the reference speed, and the metrics are reported at the reference
speed (``at_reference_speed``).  README.md has what else was tried.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import pgclient
from .workloads import DEPLOYMENT, MAIN_TABLE, Op, matches

TICKS = os.sysconf("SC_CLK_TCK")
INSERT = f"INSERT INTO {MAIN_TABLE} VALUES ({{}},{{}},{{}},{{}},{{}})"
MIN_CYCLE_OPS = 100
MIN_PHASE_WRITES = 30
MAX_CPU_SHARE = 0.7

def process_cpu_s(pid: int) -> float:
    """``utime + stime`` of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICKS


def process_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def host_cpu_ticks() -> Tuple[int, int]:
    """(steal ticks, all ticks) of the whole host, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def connect(port: int) -> pgclient.Connection:
    connection = pgclient.Connection("127.0.0.1", port)
    connection.prepare("r", f"EXECUTE {DEPLOYMENT} ($1, $2, $3, $4, $5)")
    return connection


def run_op(connection: pgclient.Connection, op: Op) -> Tuple[float, bool]:
    """Send one op, wait for its reply; (latency in s, answered right)."""
    started = time.perf_counter()
    try:
        if op.write:
            connection.query(INSERT.format(op.key, op.ts, *op.values))
            return time.perf_counter() - started, True
        reply = connection.execute((op.key, op.ts, *op.values))
        elapsed = time.perf_counter() - started
        return elapsed, matches(op.expected, reply)
    except (pgclient.ServerError, OSError):
        # An error reply, a refused or a dead connection: a failed op.
        return time.perf_counter() - started, False


@dataclasses.dataclass
class Segment:
    """What one segment saw, and the counters around it."""

    kind: str                   # "read" | "write" | "mixed"
    wall_s: float
    server_cpu_s: float
    client_cpu_s: float
    steal_ticks: int
    host_ticks: int
    #: (end time, latency in s, is a write, answered right) per op.
    samples: List[Tuple[float, float, bool, bool]]

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for *_sample, ok in self.samples if not ok)


def run_segment(kind: str, connections: Sequence[pgclient.Connection],
                streams: Sequence[Iterator[Op]], server_pid: int,
                seconds: float) -> Segment:
    """Drive each connection closed-loop on its stream for ``seconds``.

    One connection runs on the calling thread; two run on a thread each
    while the caller sleeps.  Generator CPU is the driving threads' own
    ``thread_time``, so nothing else the process does is counted.
    """
    samples: List[List[Tuple[float, float, bool, bool]]] = \
        [[] for _ in connections]
    client_cpu = [0.0] * len(connections)
    errors: List[BaseException] = []
    steal, ticks = host_cpu_ticks()
    server_cpu = process_cpu_s(server_pid)
    started = time.perf_counter()
    deadline = started + seconds

    def drive(index: int) -> None:
        connection, stream, out = \
            connections[index], streams[index], samples[index]
        cpu_started = time.thread_time()
        try:
            while time.perf_counter() < deadline:
                op = next(stream)
                latency, ok = run_op(connection, op)
                out.append((time.perf_counter(), latency, op.write, ok))
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)
        client_cpu[index] = time.thread_time() - cpu_started

    if len(connections) == 1:
        drive(0)
    else:
        threads = [threading.Thread(target=drive, args=(index,))
                   for index in range(len(connections))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    steal_after, ticks_after = host_cpu_ticks()
    return Segment(kind, wall, process_cpu_s(server_pid) - server_cpu,
                   sum(client_cpu), steal_after - steal,
                   ticks_after - ticks,
                   [sample for out in samples for sample in out])


@dataclasses.dataclass
class Totals:
    """Segments of one kind added up."""

    ops: int = 0
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)

    @property
    def busy_ms_per_op(self) -> float:
        """Server plus generator CPU per op: what a slow machine slows."""
        return (self.server_cpu_s + self.client_cpu_s) * 1e3 / self.ops

    @property
    def server_cpu_ms_per_op(self) -> float:
        return self.server_cpu_s * 1e3 / self.ops


def totals(segments: Sequence[Segment], kind: str) -> Totals:
    out = Totals()
    for segment in segments:
        if segment.kind != kind:
            continue
        out.ops += segment.ops
        out.wall_s += segment.wall_s
        out.server_cpu_s += segment.server_cpu_s
        out.client_cpu_s += segment.client_cpu_s
        out.latencies.extend(
            latency for _ended, latency, _write, ok in segment.samples
            if ok)
    return out


def speed(segments: Sequence[Segment], kind: str,
          reference_ms: float) -> float:
    """How many times slower than the reference speed the machine ran:
    generator CPU per op over the ``kind`` segments / its reference."""
    total = totals(segments, kind)
    return total.client_cpu_s * 1e3 / total.ops / reference_ms


def at_reference_speed(latency_ms: float, busy_ms: float,
                       slowdown: float, on_path: float = 1.0) -> float:
    """Take out of a wall time the CPU time the slow machine added.

    ``busy_ms`` of CPU was spent at ``slowdown`` times the reference
    cost, so ``busy_ms * (1 - 1/slowdown)`` of it is the machine's, not
    the program's; ``on_path`` is the share of that excess that sat on
    the measured wall time.  Waits (timers, batch windows) are left
    alone: a slow CPU does not stretch them.
    """
    return latency_ms - busy_ms * (1.0 - 1.0 / slowdown) * on_path


def steal_pct(segments: Sequence[Segment]) -> float:
    ticks = sum(segment.host_ticks for segment in segments)
    return 100.0 * sum(segment.steal_ticks for segment in segments) \
        / max(1, ticks)


def iqr_pct(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, mid, high = statistics.quantiles(values, n=4)
    return 100.0 * (high - low) / mid if mid else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def environment() -> Dict[str, Any]:
    """The stamp recorded beside every set of results."""
    stamp: Dict[str, Any] = {
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }
    try:
        with open("/proc/pressure/cpu", encoding="ascii") as handle:
            stamp["psi_cpu"] = handle.readline().strip()
    except OSError:
        stamp["psi_cpu"] = None
    steal, ticks = host_cpu_ticks()
    stamp["steal_pct_since_boot"] = 100.0 * steal / max(1, ticks)
    return stamp


def pin_to_first_cpu() -> Optional[int]:
    """Pin this process to its first CPU; the server is put there too.

    Sharing a CPU is what makes the yardstick see the server's machine:
    the two never need it at the same moment in a closed loop, and one
    CPython server cannot use a second core anyway.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None
