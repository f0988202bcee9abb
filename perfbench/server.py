"""Launcher of the system under test: one server subprocess per set-up.

Builds the stack a user gets — ``NameServer`` over 3 ``TabletServer``s,
tables with ``partitions=4, replicas=2``, ``FrontendServer`` and
``NetServer`` with their constructor defaults — bulk-loads the preload
rows through ``NameServer.put``, deploys the script, prints one
``ready`` line and then obeys JSON commands on stdin until it closes.

This is the only perfbench file that imports ``repro``; it is given the
generated inputs and nothing else.  In a traced run it also replays the
first ops of the stream at each layer boundary (the ladder), timing the
layers from outside through their public entry points.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.cluster import NameServer, TabletServer  # noqa: E402
from repro.errors import ParseError  # noqa: E402
from repro.netserve import NetServer  # noqa: E402
from repro.netserve import protocol as wire  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.online.engine import OnlineEngine  # noqa: E402
from repro.schema import IndexDef, Schema  # noqa: E402
from repro.serving import FrontendServer  # noqa: E402
from repro.sql import ast  # noqa: E402
from repro.sql.parser import parse  # noqa: E402
from repro.storage.memtable import MemTable  # noqa: E402

Span = Tuple[str, int, float, float, Optional[str]]


class InsertAdmin:
    """``execute(sql)`` for ``NetServer(admin=...)``: INSERT text →
    ``NameServer.put`` per row (``NameServer`` has no ``execute``)."""

    def __init__(self, cluster: NameServer) -> None:
        self._cluster = cluster

    def execute(self, sql: str) -> int:
        statement = parse(sql)
        if not isinstance(statement, ast.InsertStatement):
            raise ParseError("perfbench admin accepts INSERT only")
        for row in statement.rows:
            self._cluster.put(statement.table, row)
        return len(statement.rows)


def rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def directory_bytes(path: Optional[str]) -> int:
    total = 0
    if path:
        for folder, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(folder, name))
                         for name in files)
    return total


class Stack:
    """The system under test, built from a launcher spec."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.obs = Observability(enabled=bool(spec["obs"]))
        self.data_dir = spec.get("data_dir")
        self.cluster = NameServer(
            [TabletServer(f"tablet-{index}") for index in range(3)],
            obs=self.obs, data_dir=self.data_dir)
        self.schemas: Dict[str, Tuple[Schema, IndexDef]] = {}
        for table in spec["tables"]:
            schema = Schema.from_pairs(
                [tuple(pair) for pair in table["columns"]])
            index = IndexDef((table["key"],), table["ts"])
            self.schemas[table["name"]] = (schema, index)
            self.cluster.create_table(table["name"], schema, [index],
                                      partitions=4, replicas=2)
        with open(spec["preload"], encoding="utf-8") as handle:
            self.preload: Dict[str, List[List[int]]] = json.load(handle)
        started = time.perf_counter()
        self.rows = 0
        for name, rows in self.preload.items():
            for row in rows:
                self.cluster.put(name, tuple(row))
            self.rows += len(rows)
        self.load_s = time.perf_counter() - started
        started = time.perf_counter()
        self.compiled = self.cluster.deploy(spec["deployment"], spec["sql"])
        self.deploy_ms = (time.perf_counter() - started) * 1_000.0
        self.frontend = FrontendServer(self.cluster, obs=self.obs)
        self.net = NetServer(self.frontend, obs=self.obs,
                             admin=InsertAdmin(self.cluster))
        self.port = self.net.start()[1]

    def close(self) -> None:
        self.net.close()
        self.frontend.close()
        self.cluster.close()

    def counts(self) -> Dict[str, Any]:
        """Registry totals by series name, summed over label sets."""
        counters: Dict[str, float] = {}
        histograms: Dict[str, List[float]] = {}
        for series in self.obs.registry.series():
            if series.kind == "histogram":
                entry = histograms.setdefault(series.name, [0, 0.0])
                entry[0] += series.count
                entry[1] += series.total
            elif series.kind == "counter":
                counters[series.name] = \
                    counters.get(series.name, 0) + series.value
        return {"counters": counters, "histograms": histograms,
                "wal_bytes": directory_bytes(
                    os.path.join(self.data_dir, "binlog")
                    if self.data_dir else None)}


class _TimedTable:
    """A table handed to the local engine, timing its storage calls."""

    def __init__(self, table: MemTable, ladder: "Ladder") -> None:
        self._table = table
        self._ladder = ladder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._table, name)

    def window_scan_blocks(self, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        blocks = list(self._table.window_scan_blocks(*args, **kwargs))
        self._ladder.span("storage.scan", started, "online.read")
        return blocks

    def last_join_lookup(self, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        hit = self._table.last_join_lookup(*args, **kwargs)
        self._ladder.span("storage.scan", started, "online.read")
        return hit

    def insert(self, row: Any) -> int:
        started = time.perf_counter()
        offset = self._table.insert(row)
        self._ladder.span("storage.put", started, None)
        return offset


def _median_us(values: List[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


class Ladder:
    """Replays the same ops at each layer boundary, innermost first."""

    def __init__(self, stack: Stack, ops: List[List[int]]) -> None:
        self.stack = stack
        self.ops = ops
        self.spans: List[Span] = []
        self._op = 0

    def span(self, name: str, started: float,
             parent: Optional[str]) -> float:
        ended = time.perf_counter()
        self.spans.append((name, self._op, started, ended, parent))
        return ended - started

    def _durations(self, name: str) -> List[float]:
        return [end - start for span_name, _op, start, end, _parent
                in self.spans if span_name == name]

    def run(self, budget_s: float) -> Dict[str, float]:
        stack = self.stack
        spec = stack.spec
        main = spec["tables"][0]["name"]
        deployment = spec["deployment"]
        out: Dict[str, float] = {}

        # storage + online: a local engine over local tables.
        before_kb = rss_kb()
        local: Dict[str, _TimedTable] = {}
        for name, (schema, index) in stack.schemas.items():
            table = MemTable(name, schema, [index])
            for row in stack.preload[name]:
                table.insert(tuple(row))
            local[name] = _TimedTable(table, self)
        out["storage.bytes_per_row"] = \
            (rss_kb() - before_kb) * 1024.0 / stack.rows
        engine = OnlineEngine(
            local, obs=Observability(enabled=stack.obs.enabled))
        scan_per_read: List[float] = []
        deadline = time.perf_counter() + budget_s
        replayed = 0
        for self._op, op in enumerate(self.ops):
            row = tuple(op[1:])
            if op[0]:
                local[main].insert(row)
            else:
                mark = len(self.spans)
                started = time.perf_counter()
                engine.execute_request(stack.compiled, row)
                self.span("online.read", started, None)
                scan_per_read.append(sum(
                    end - start for _n, _o, start, end, _p
                    in self.spans[mark:-1]))
            replayed += 1
            if time.perf_counter() > deadline:
                break
        ops = self.ops[:replayed]
        reads = sum(1 for op in ops if not op[0])
        out["ladder.ops"] = float(replayed)
        out["storage.scan_us"] = _median_us(scan_per_read)
        out["storage.put_us"] = _median_us(self._durations("storage.put"))
        out["online.read_us"] = _median_us(self._durations("online.read"))

        # cluster: the same ops through NameServer.request / put.
        before = stack.counts()
        for self._op, op in enumerate(ops):
            row = tuple(op[1:])
            started = time.perf_counter()
            if op[0]:
                stack.cluster.put(main, row)
                self.span("cluster.put", started, None)
            else:
                stack.cluster.request(deployment, row)
                self.span("cluster.read", started, None)
        after = stack.counts()
        out["cluster.read_us"] = _median_us(self._durations("cluster.read"))
        out["cluster.put_us"] = _median_us(self._durations("cluster.put"))

        def per_read(name: str) -> float:
            delta = after["counters"].get(name, 0) \
                - before["counters"].get(name, 0)
            return delta / reads if reads else 0.0
        out["online.rows_per_read"] = per_read("online.rows_scanned")
        out["online.blocks_per_read"] = per_read("online.scan.blocks")
        out["online.join_lookups_per_read"] = per_read("online.join_lookups")
        hits = per_read("online.incremental.hits")
        fallbacks = per_read("online.incremental.fallbacks")
        out["online.incremental_hit_share"] = \
            hits / (hits + fallbacks) if hits + fallbacks else 0.0

        # serving: the same reads through FrontendServer.request
        # (writes never pass through it).
        before = stack.counts()
        replies = {}
        for self._op, op in enumerate(ops):
            if not op[0]:
                started = time.perf_counter()
                replies[self._op] = stack.frontend.request(
                    deployment, tuple(op[1:]))
                self.span("serving.read", started, None)
        after = stack.counts()
        out["serving.read_us"] = _median_us(self._durations("serving.read"))
        wait = [a - b for a, b in zip(
            after["histograms"].get("serving.queue.wait.ms", [0, 0.0]),
            before["histograms"].get("serving.queue.wait.ms", [0, 0.0]))]
        out["serving.queue_wait_us"] = \
            wait[1] / wait[0] * 1_000.0 if wait[0] else 0.0

        # sql: parsing the INSERT text the wire path receives.
        for self._op, op in enumerate(ops):
            if op[0]:
                text = spec["insert"].format(*op[1:])
                started = time.perf_counter()
                parse(text)
                self.span("sql.insert_parse", started, None)
        out["sql.insert_parse_us"] = \
            _median_us(self._durations("sql.insert_parse"))

        # netserve codec alone: the Bind a read sends, the DataRow it
        # gets, through repro.netserve.protocol and nothing else.
        types = [column.type for column in stack.schemas[main][0].columns]
        names = stack.compiled.output_names
        for self._op, features in replies.items():
            bind = wire.bind_message(
                "", "r", [b"%d" % value for value in self.ops[self._op][1:]])
            started = time.perf_counter()
            _p, _s, _formats, raw, _r = wire.parse_bind(bind[5:])
            for value, column_type in zip(raw, types):
                wire.decode_parameter(value, column_type, False)
            wire.data_row([wire.encode_text(features.get(name))
                           for name in names])
            self.span("netserve.codec", started, None)
        out["netserve.codec_us"] = \
            _median_us(self._durations("netserve.codec"))

        # The generator's model has applied every op it wrote down.
        for op in self.ops[replayed:]:
            if op[0]:
                stack.cluster.put(main, tuple(op[1:]))
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, op, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "op": op, "start": start, "end": end,
                     "parent": parent}) + "\n")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    pinned = False
    if spec.get("cpu") is not None:
        try:
            os.sched_setaffinity(0, {spec["cpu"]})
            pinned = True
        except OSError:
            pass
    stack = Stack(spec)
    ladder: Optional[Ladder] = None
    try:
        print(json.dumps({
            "port": stack.port, "pinned": pinned,
            "rows": stack.rows, "load_s": stack.load_s,
            "deploy_ms": stack.deploy_ms}), flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "counts":
                reply = stack.counts()
            elif command["cmd"] == "ladder":
                with open(command["ops"], encoding="utf-8") as handle:
                    ladder = Ladder(stack, json.load(handle))
                reply = ladder.run(command["budget_s"])
            else:
                break
            print(json.dumps(reply), flush=True)
    finally:
        stack.close()
        if ladder is not None and spec.get("spans"):
            ladder.write_spans(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
