"""One benchmark run: set-ups, warm-up, serial phase, pair phase.

``end_to_end`` measures the six user-visible metrics with observability
off; ``traced`` is the separate ladder run that yields the per-layer
metrics (see README.md for the run shape and how to read the output).

A serial cycle is a read-only segment then a write-only segment on one
connection; the pair phase drives the workload's mix on two.  Reads and
writes get segments of their own so that the CPU each costs is known,
which is what lets a latency be reported at the reference speed without
touching the part of it that is a wait.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import loadgen
from .loadgen import Segment, at_reference_speed, speed, totals
from .workloads import Model, Op, Workload, dump_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_tmp")
SETUPS = 3                  # set-ups per run; setup_s is their median
CYCLES = 10                 # read + write segments in the serial phase
LADDER_OPS = 1200
READY_TIMEOUT_S = 120.0


class RunError(Exception):
    """The run could not be measured at all (not a wrong answer)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class ServerProcess:
    """One launcher subprocess, from spawn to reaped exit."""

    def __init__(self, workdir: str, workload: Workload, preload_path: str,
                 server_cpu: Optional[int], traced: bool) -> None:
        self.data_dir = os.path.join(workdir, "data") \
            if workload.durable else None
        spec = dict(workload.spec(), preload=preload_path,
                    data_dir=self.data_dir, obs=traced, cpu=server_cpu,
                    insert=loadgen.INSERT,
                    spans=os.path.join(
                        WORK, f"trace-{workload.name}-server.jsonl")
                    if traced else None)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "server.py"),
             spec_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"))
        watchdog = threading.Timer(READY_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            self.ready = self._reply()
        finally:
            watchdog.cancel()
        self.pid = self.process.pid
        self.port = self.ready["port"]

    def _reply(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise RunError(
                f"server exited early (code {self.process.returncode})")
        return json.loads(line)

    def command(self, **command: Any) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def close(self) -> None:
        """Ask the server to stop, reap it, drop its data directory."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if self.data_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)


class Run:
    """Shared state of one run: inputs, model, tallies, validity."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.invalid: List[str] = []
        self.cpu = loadgen.pin_to_first_cpu()
        self.workdir = os.path.join(WORK, f"run-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.preload_path = os.path.join(self.workdir, "preload.json")
        with open(self.preload_path, "w", encoding="utf-8") as handle:
            handle.write(dump_json(self.fresh_model()))

    def fresh_model(self) -> Dict[str, List[List[int]]]:
        """Reset the model to right after the preload; returns the rows."""
        self.model = Model(self.workload, self.seed)
        return self.model.preload()

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def set_up(self, traced: bool = False
               ) -> Tuple[ServerProcess, float, float]:
        """Spawn a server and wait for its first correct reply.

        Returns the server, the set-up time at the reference speed (by
        a short yardstick segment right after it) and the server's RSS.
        """
        server = ServerProcess(self.workdir, self.workload,
                               self.preload_path, self.cpu, traced)
        try:
            connection = loadgen.connect(server.port)
            values = (1, 2, 3)
            probe = Op(False, 0, self.model.t[0], values,
                       self.model.expected(0, values))
            _latency, ok = loadgen.run_op(connection, probe)
            elapsed = time.perf_counter() - server.spawned_at
            self.tally(1, 0 if ok else 1)
            if not ok:
                raise RunError("first reply after set-up was wrong")
            rss = loadgen.process_rss_mb(server.pid)
            # Reads right after the set-up tell how fast the machine was.
            yard = self.segment(server, "read", [connection], 0.2,
                                [self.model.ops(0, 1, writes=False)])
            connection.close()
        except BaseException:
            server.close()
            raise
        slowdown = speed([yard], "read", self.workload.yardstick_ms[0])
        log(f"set-up: {elapsed:.3f} s at speed x{slowdown:.3f} "
            f"(load {server.ready['load_s']:.3f} s, "
            f"{server.ready['rows']} rows), RSS {rss:.1f} MB, "
            f"pinned={server.ready['pinned']}")
        return server, elapsed / slowdown, rss

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def segment(self, server: ServerProcess, kind: str,
                connections: List[Any], seconds: float,
                streams: List[Iterator[Op]]) -> Segment:
        segment = loadgen.run_segment(kind, connections, streams,
                                      server.pid, seconds)
        self.tally(segment.ops, segment.failed)
        if server.process.poll() is not None:
            raise RunError("server exited during a segment")
        return segment


class Driver:
    """The connections and op streams of one server, and its phases."""

    def __init__(self, run: Run, server: ServerProcess) -> None:
        self.run = run
        self.server = server
        self.connections = [loadgen.connect(server.port) for _ in range(2)]
        model = run.model
        self.reads = [model.ops(0, 1, writes=False)]
        self.writes = [model.ops(0, 1, writes=True)]
        self.mixed = [model.ops(0, 1)]
        self.pair = [model.ops(0, 2), model.ops(1, 2)]
        #: Share of a serial cycle's measured time spent on reads: the
        #: workload's mix, kept away from the ends so that neither kind
        #: is left with too few samples.
        self.read_time_share = min(0.8, max(0.2, run.workload.read_share))

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    def warm_up(self, seconds: float) -> None:
        """Both modes, discarded: thread pools reach their final size."""
        run, server = self.run, self.server
        for connections, streams in ((self.connections[:1], self.mixed),
                                     (self.connections, self.pair)):
            segment = run.segment(server, "mixed", connections,
                                  seconds / 2, streams)
            if segment.failed:
                run.invalid.append(
                    f"warm-up saw {segment.failed} failed ops")

    def serial(self, cycles: int, seconds: float) -> List[Segment]:
        """``cycles`` x (reads, then writes) on one connection."""
        run, server, one = self.run, self.server, self.connections[:1]
        out = []
        for _ in range(cycles):
            out.append(run.segment(
                server, "read", one,
                seconds / cycles * self.read_time_share, self.reads))
            out.append(run.segment(
                server, "write", one,
                seconds / cycles * (1 - self.read_time_share), self.writes))
        return out

    def paired(self, seconds: float) -> List[Segment]:
        """The workload's mix on two connections."""
        return [self.run.segment(self.server, "mixed", self.connections,
                                 seconds, self.pair)]


@dataclasses.dataclass
class SerialStats:
    """A serial phase boiled down, raw and at the reference speed."""

    slowdown: float             # by the read yardstick
    write_slowdown: float       # what writes are corrected by
    read_raw_ms: float
    read_ms: float
    write_raw_ms: float
    write_ms: float
    cpu_raw_ms: float
    cpu_ms: float
    #: read p50 at the reference speed, cycle by cycle (diagnostic).
    read_by_cycle_ms: List[float]


def serial_stats(segments: List[Segment], workload: Workload,
                 invalid: List[str], name: str) -> SerialStats:
    read_share = workload.read_share
    slowdown = speed(segments, "read", workload.yardstick_ms[0])
    # The write yardstick alone is noisy on a quiet machine (how many
    # wake-ups the short reply takes to arrive differs from run to
    # run); the read one alone misses slowdowns that hit writes harder.
    # Their geometric mean held up best across the calibration sets.
    write_slowdown = math.sqrt(
        slowdown * speed(segments, "write", workload.yardstick_ms[1]))
    reads, writes = totals(segments, "read"), totals(segments, "write")
    for index in range(0, len(segments), 2):
        done = sum(segment.ops for segment in segments[index:index + 2])
        if done < loadgen.MIN_CYCLE_OPS:
            invalid.append(f"{name} cycle {index // 2}: {done} ops "
                           f"(< {loadgen.MIN_CYCLE_OPS})")
    if len(writes.latencies) < loadgen.MIN_PHASE_WRITES:
        invalid.append(f"{name}: {len(writes.latencies)} writes "
                       f"(< {loadgen.MIN_PHASE_WRITES})")
    read_raw = statistics.median(reads.latencies) * 1e3
    write_raw = statistics.median(writes.latencies) * 1e3
    cpu_raw = read_share * reads.server_cpu_ms_per_op \
        + (1 - read_share) * writes.server_cpu_ms_per_op
    cpu = read_share * reads.server_cpu_ms_per_op / slowdown \
        + (1 - read_share) * writes.server_cpu_ms_per_op / write_slowdown
    by_cycle = [
        at_reference_speed(
            statistics.median(cycle.latencies) * 1e3, cycle.busy_ms_per_op,
            slowdown)
        for cycle in (totals([segment], "read") for segment in segments)
        if cycle.latencies]
    return SerialStats(
        slowdown, write_slowdown, read_raw,
        at_reference_speed(read_raw, reads.busy_ms_per_op, slowdown),
        write_raw,
        at_reference_speed(write_raw, writes.busy_ms_per_op,
                           write_slowdown),
        cpu_raw, cpu, by_cycle)


def pair_qps(segments: List[Segment], workload: Workload
             ) -> Tuple[float, float, float, float]:
    """(ops/s as measured, at the reference speed, CPU busy share, speed).

    With two connections, all of the excess CPU time is on the wall
    clock when the CPU is saturated, and half of it when the two rarely
    collide (each slows only its own loop); in between, linear in the
    CPU's busy share.
    """
    slowdown = speed(segments, "mixed", workload.yardstick_ms[2])
    mixed = totals(segments, "mixed")
    wall_ms_per_op = mixed.wall_s * 1e3 / mixed.ops
    busy = mixed.busy_ms_per_op / wall_ms_per_op
    at_reference = at_reference_speed(
        wall_ms_per_op, mixed.busy_ms_per_op, slowdown,
        on_path=(1 + min(1.0, busy)) / 2)
    return 1e3 / wall_ms_per_op, 1e3 / at_reference, busy, slowdown


def end_to_end(workload: Workload, seed: int, seconds: float,
               setups: int = SETUPS, cycles: int = CYCLES
               ) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    run = Run(workload, seed)
    server: Optional[ServerProcess] = None
    try:
        setup_s: List[float] = []
        rss_mb: List[float] = []
        for _ in range(setups):
            if server is not None:
                server.close()
            server, elapsed, rss = run.set_up()
            setup_s.append(elapsed)
            rss_mb.append(rss)
        driver = Driver(run, server)
        driver.warm_up(seconds / 8)
        serial = driver.serial(cycles, seconds * 7 / 16)
        pair = driver.paired(seconds * 7 / 16)
        driver.close()
    finally:
        if server is not None:
            server.close()
        run.cleanup()

    stats = serial_stats(serial, workload, run.invalid, "serial")
    qps_raw, qps, busy, pair_speed = pair_qps(pair, workload)
    mixed = totals(pair, "mixed")
    if mixed.ops < loadgen.MIN_CYCLE_OPS:
        run.invalid.append(f"pair: {mixed.ops} ops "
                           f"(< {loadgen.MIN_CYCLE_OPS})")
    share = mixed.client_cpu_s / mixed.wall_s
    if share > loadgen.MAX_CPU_SHARE:
        run.invalid.append(f"loadgen.cpu_share {share:.2f} > "
                           f"{loadgen.MAX_CPU_SHARE}")
    writes = totals(serial, "write")
    log(f"serial: speed x{stats.slowdown:.3f} (generator CPU "
        f"{stats.slowdown * workload.yardstick_ms[0]:.4f} ms/read), "
        f"x{stats.write_slowdown:.3f} for writes (generator CPU "
        f"{writes.client_cpu_s * 1e3 / writes.ops:.4f} ms/write), steal "
        f"{loadgen.steal_pct(serial):.2f}%; at the reference speed (as "
        f"measured): read_p50_ms {stats.read_ms:.4f} "
        f"({stats.read_raw_ms:.4f}), write_p50_ms {stats.write_ms:.4f} "
        f"({stats.write_raw_ms:.4f}), cpu_ms_per_op {stats.cpu_ms:.4f} "
        f"({stats.cpu_raw_ms:.4f}); read p50 across cycles: median "
        f"{statistics.median(stats.read_by_cycle_ms):.4f}, IQR "
        f"{loadgen.iqr_pct(stats.read_by_cycle_ms):.1f}%")
    log(f"pair: speed x{pair_speed:.3f} (generator CPU "
        f"{pair_speed * workload.yardstick_ms[2]:.4f} ms/op), steal "
        f"{loadgen.steal_pct(pair):.2f}%; pair_qps {qps:.1f} "
        f"({qps_raw:.1f}), CPU busy {busy:.2f}, loadgen.cpu_share "
        f"{share:.3f}")
    return _result(run, {
        "setup_s": statistics.median(setup_s),
        "read_p50_ms": stats.read_ms,
        "write_p50_ms": stats.write_ms,
        "pair_qps": qps,
        "cpu_ms_per_op": stats.cpu_ms,
        "server_rss_mb": statistics.median(rss_mb),
    }, "end_to_end")


def catalog() -> Dict[str, Any]:
    """BENCHMARK.json: the one list of workloads, metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _result(run: Run, values: Dict[str, float],
            section: str) -> Dict[str, Any]:
    """The result object, with names and units from BENCHMARK.json."""
    listed = catalog()[section]
    names = {metric["name"] for metric in listed}
    if names != set(values):
        raise RunError(f"metrics emitted and listed differ: "
                       f"{sorted(names ^ set(values))}")
    for reason in run.invalid:
        log(f"INVALID: {reason}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in listed},
        "invalid": run.invalid,
    }


def traced(workload: Workload, seed: int, seconds: float,
           cycles: int = CYCLES // 2) -> Dict[str, Any]:
    """The ladder run: every per-layer metric of one workload.

    An untraced reference server gives the wire p50 to compare with; a
    second server, observability on, replays the first ops at each
    layer boundary and then serves the generator for the wire rung.
    Ladder times are as measured in this run; only the traced/untraced
    comparison is made at the reference speed, since the two servers
    run seconds apart.
    """
    run = Run(workload, seed)
    server: Optional[ServerProcess] = None
    ops_path = os.path.join(run.workdir, "ops.json")
    try:
        server, _elapsed, _rss = run.set_up()
        reference = server.ready
        driver = Driver(run, server)
        driver.warm_up(seconds / 16)
        ref_serial = driver.serial(cycles, seconds / 4)
        ref_pair = driver.paired(seconds / 8)
        driver.close()
        server.close()

        run.fresh_model()
        server, _elapsed, _rss = run.set_up(traced=True)
        mixed = run.model.ops(0, 1)
        ops = [next(mixed) for _ in range(LADDER_OPS)]
        with open(ops_path, "w", encoding="utf-8") as handle:
            handle.write(dump_json([op.to_json() for op in ops]))
        ladder = server.command(cmd="ladder", ops=ops_path,
                                budget_s=seconds * 3 / 32)
        driver = Driver(run, server)
        before = server.command(cmd="counts")
        wire = driver.serial(cycles, seconds * 3 / 16)
        wire_bytes = (driver.connections[0].bytes_out,
                      driver.connections[0].bytes_in)
        middle = server.command(cmd="counts")
        driver.paired(seconds / 8)
        after = server.command(cmd="counts")
        driver.close()
    finally:
        if server is not None:
            server.close()
        run.cleanup()

    ref = serial_stats(ref_serial, workload, run.invalid, "reference")
    rung = serial_stats(wire, workload, run.invalid, "wire rung")
    out: Dict[str, float] = {name: value for name, value in ladder.items()
                             if name != "ladder.ops"}
    out["online.self_us"] = out["online.read_us"] - out["storage.scan_us"]
    out["cluster.self_us"] = out["cluster.read_us"] - out["online.read_us"]
    out["serving.self_us"] = out["serving.read_us"] - out["cluster.read_us"]
    out["netserve.read_us"] = rung.read_raw_ms * 1e3
    out["netserve.write_us"] = rung.write_raw_ms * 1e3
    out["netserve.self_us"] = \
        out["netserve.read_us"] - out["serving.read_us"]
    # Bytes are named from the server's side, like netserve.bytes.in.
    wire_ops = sum(segment.ops for segment in wire)
    out["netserve.bytes_in_per_op"] = wire_bytes[0] / wire_ops
    out["netserve.bytes_out_per_op"] = wire_bytes[1] / wire_ops

    def counted(later: Dict[str, Any], earlier: Dict[str, Any],
                name: str) -> float:
        return later["counters"].get(name, 0) \
            - earlier["counters"].get(name, 0)
    reads, writes = totals(wire, "read").ops, totals(wire, "write").ops
    out["serving.admits_per_write"] = \
        (counted(middle, before, "serving.admitted") - reads) \
        / max(1, writes)
    batches = [a - b for a, b in zip(
        after["histograms"].get("serving.batch.size", [0, 0.0]),
        middle["histograms"].get("serving.batch.size", [0, 0.0]))]
    out["serving.batch_size"] = \
        batches[1] / batches[0] if batches[0] else 0.0
    out["serving.shed"] = after["counters"].get("serving.shed", 0)
    out["cluster.rpc_retries"] = after["counters"].get("ns.rpc.retries", 0)
    out["cluster.load_rows_per_s"] = reference["rows"] / reference["load_s"]
    out["sql.deploy_ms"] = reference["deploy_ms"]
    out["storage.wal_bytes_per_row"] = \
        after["wal_bytes"] / max(1, after["counters"].get("ns.rpc.puts", 0))
    ref_mixed = totals(ref_pair, "mixed")
    out["loadgen.cpu_share"] = ref_mixed.client_cpu_s / ref_mixed.wall_s
    out["loadgen.read_p99_ms"] = loadgen.percentile(
        totals(ref_serial, "read").latencies, 0.99) * 1e3
    out["loadgen.write_p99_ms"] = loadgen.percentile(
        totals(ref_serial, "write").latencies, 0.99) * 1e3
    out["loadgen.steal_pct"] = loadgen.steal_pct(ref_serial)
    out["loadgen.speed"] = ref.slowdown
    out["loadgen.round_iqr_pct"] = loadgen.iqr_pct(ref.read_by_cycle_ms)
    out["trace.overhead_pct"] = \
        100.0 * (rung.read_ms - ref.read_ms) / ref.read_ms
    out["trace.gap_pct"] = abs(out["trace.overhead_pct"])

    if out["loadgen.cpu_share"] > loadgen.MAX_CPU_SHARE:
        run.invalid.append(f"loadgen.cpu_share "
                           f"{out['loadgen.cpu_share']:.2f} > "
                           f"{loadgen.MAX_CPU_SHARE}")
    with open(os.path.join(WORK, f"trace-{workload.name}-loadgen.jsonl"),
              "w", encoding="utf-8") as handle:
        number = LADDER_OPS
        for segment in wire:
            for ended, latency, _write, _ok in segment.samples:
                handle.write(json.dumps({
                    "name": f"netserve.{segment.kind}", "op": number,
                    "start": ended - latency, "end": ended,
                    "parent": None}) + "\n")
                number += 1
    log(f"ladder replayed {int(ladder['ladder.ops'])} ops per rung; "
        f"untraced read p50 {ref.read_raw_ms:.4f} ms at speed "
        f"x{ref.slowdown:.3f}, traced {rung.read_raw_ms:.4f} ms at "
        f"x{rung.slowdown:.3f}")
    log(waterfall(out))
    if out["trace.gap_pct"] > 10.0:
        log(f"unexplained time: the traced wire p50 differs from the "
            f"untraced one by {out['trace.gap_pct']:.1f}% (> 10%)")
    return _result(run, out, "per_layer")


def waterfall(out: Dict[str, float]) -> str:
    """The read path, layer by layer: self times sum to the wire p50."""
    total = out["netserve.read_us"]
    lines = ["read waterfall (us, share of the traced wire p50):"]
    for name in ("netserve.self_us", "serving.self_us", "cluster.self_us",
                 "online.self_us", "storage.scan_us"):
        lines.append(f"  {name:<18} {out[name]:>10.1f}  "
                     f"{100.0 * out[name] / total:5.1f}%")
    lines.append(f"  {'netserve.read_us':<18} {total:>10.1f}  100.0%")
    return "\n".join(lines)
