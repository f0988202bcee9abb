"""Workload definitions, the seeded op generator and the reference model.

Nothing here imports ``repro``: the generator makes the inputs and
computes every expected answer in plain Python, so a change to the
system under test cannot change what it is asked or what counts as a
correct reply.

Every workload is *stationary by construction*.  Each key ``k`` has its
own ``step``; a write carries ``ts = t_k += step`` and a read asks at
the key's current ``t_k``, so a ``ROWS_RANGE`` window of ``span`` ms
always holds ``span // step + 1`` stored rows (plus the request row)
however long or fast the run is.  Spans end in 5 and steps in 0, so no
stored row ever sits on a window edge.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import json
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

BASE_TS = 1_000_000
VALUE_RANGE = 10            # column values are ints in [0, VALUE_RANGE)
MAIN_TABLE = "t"
DIM_TABLE = "d"
DEPLOYMENT = "feat"

MAIN_COLUMNS = [["k", "bigint"], ["ts", "timestamp"], ["a", "bigint"],
                ["b", "bigint"], ["c", "bigint"]]
DIM_COLUMNS = [["k", "bigint"], ["dts", "timestamp"], ["attr", "bigint"]]


@dataclasses.dataclass(frozen=True)
class Window:
    """One ``ROWS_RANGE`` window and the aggregates read over it."""

    name: str
    span_ms: int
    #: (function, column) pairs, in SELECT order.
    aggregates: Tuple[Tuple[str, str], ...]


@dataclasses.dataclass(frozen=True)
class Workload:
    """Sizes and mix of one workload (see README.md for the why)."""

    name: str
    why: str
    keys: int
    read_share: float
    windows: Tuple[Window, ...]
    #: (number of keys, step ms) classes, hottest first; a key's window
    #: row count follows from its step, which is what lets a Zipf
    #: workload have long windows on hot keys and stay stationary.
    key_classes: Tuple[Tuple[int, int], ...]
    #: The yardstick: generator CPU-ms per read, per write (serial
    #: phase) and per op of the mix (pair phase) at the reference speed
    #: — the medians over the calibration set on the box the benchmark
    #: was built on (see loadgen).  They only fix the scale of the
    #: metrics.
    yardstick_ms: Tuple[float, float, float]
    zipf_s: Optional[float] = None
    last_join: bool = False
    durable: bool = False

    @property
    def max_span(self) -> int:
        return max(window.span_ms for window in self.windows)

    def feature_sql(self) -> str:
        select = [f"{MAIN_TABLE}.k AS k"]
        for window in self.windows:
            for function, column in window.aggregates:
                select.append(
                    f"{function}({MAIN_TABLE}.{column}) OVER {window.name}"
                    f" AS {window.name}_{function}_{column}")
        join = ""
        if self.last_join:
            select.append(f"{DIM_TABLE}.attr AS d_attr")
            join = (f" LAST JOIN {DIM_TABLE} ORDER BY dts"
                    f" ON {MAIN_TABLE}.k = {DIM_TABLE}.k")
        windows = ", ".join(
            f"{window.name} AS (PARTITION BY k ORDER BY ts ROWS_RANGE "
            f"BETWEEN {window.span_ms} PRECEDING AND CURRENT ROW)"
            for window in self.windows)
        return (f"SELECT {', '.join(select)} FROM {MAIN_TABLE}{join} "
                f"WINDOW {windows}")

    def spec(self) -> Dict[str, Any]:
        """What the launcher needs to build the system under test."""
        tables = [{"name": MAIN_TABLE, "columns": MAIN_COLUMNS,
                   "key": "k", "ts": "ts"}]
        if self.last_join:
            tables.append({"name": DIM_TABLE, "columns": DIM_COLUMNS,
                           "key": "k", "ts": "dts"})
        return {"workload": self.name, "tables": tables,
                "deployment": DEPLOYMENT, "sql": self.feature_sql(),
                "durable": self.durable}


_POINT = (("sum", "a"), ("count", "a"), ("max", "b"))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="wire_point",
        why="2,000 uniform keys, one 16-row window, 90/10: the engine "
            "is a small share, so wire and serving changes show and "
            "scan/fold changes do not",
        keys=2000, read_share=0.9,
        windows=(Window("w", 155, _POINT),),
        key_classes=((2000, 10),), yardstick_ms=(0.0988, 0.0444, 0.0770)),
    Workload(
        name="scan_heavy",
        why="20 keys x 2,000 rows, a 2,000-row and a 200-row window, 9 "
            "aggregates and a LAST JOIN, 90/10: scan and fold dominate "
            "the read, so engine and storage changes show and wire "
            "changes do not",
        keys=20, read_share=0.9,
        windows=(
            Window("wl", 19_995, (("sum", "a"), ("avg", "b"), ("min", "c"),
                                  ("max", "c"), ("distinct_count", "b"),
                                  ("count", "a"))),
            Window("ws", 1_995, (("sum", "b"), ("max", "a"),
                                 ("min", "a")))),
        key_classes=((20, 10),), yardstick_ms=(0.1194, 0.0434, 0.0885),
        last_join=True),
    Workload(
        name="hot_mixed",
        why="2,000 keys drawn Zipf(1.1), 200-row windows on the 100 "
            "hot keys, 70/30 with writes to the same hot keys: a read "
            "gain paid for at ingest nets out here",
        keys=2000, read_share=0.7,
        windows=(Window("w", 1_995, (("sum", "a"), ("count", "a"),
                                     ("max", "b"), ("avg", "c"))),),
        key_classes=((100, 10), (1900, 200)),
        yardstick_ms=(0.1123, 0.0478, 0.0778), zipf_s=1.1),
    Workload(
        name="ingest_heavy",
        why="2,000 uniform keys, 10/90 with the WAL on: writes bypass "
            "serving and the engine, so protocol, parser, put, "
            "replication and WAL changes show and frontend ones do not",
        keys=2000, read_share=0.1,
        windows=(Window("w", 75, _POINT),),
        key_classes=((2000, 10),), yardstick_ms=(0.0958, 0.0447, 0.0472),
        durable=True),
)}


def scaled(workload: Workload, keys: int, rows: int) -> Workload:
    """A tiny-size variant for the self-test: same shape, less data."""
    step = workload.key_classes[0][1]
    windows = tuple(dataclasses.replace(
        window, span_ms=min(window.span_ms, (rows - 1) * step + 5))
        for window in workload.windows)
    return dataclasses.replace(
        workload, keys=keys, windows=windows,
        key_classes=((keys, step),))


class _WindowModel:
    """The last ``size`` stored rows of one key, with running totals."""

    __slots__ = ("size", "rows", "sums", "counts")

    def __init__(self, size: int) -> None:
        self.size = size
        self.rows: collections.deque = collections.deque()
        self.sums = [0, 0, 0]
        self.counts = [[0] * VALUE_RANGE for _ in range(3)]

    def push(self, values: Tuple[int, int, int]) -> None:
        if len(self.rows) == self.size:
            for column, value in enumerate(self.rows.popleft()):
                self.sums[column] -= value
                self.counts[column][value] -= 1
        self.rows.append(values)
        for column, value in enumerate(values):
            self.sums[column] += value
            self.counts[column][value] += 1

    def aggregate(self, function: str, column: int, request: int) -> Any:
        """The aggregate over the stored rows plus the request row."""
        if function == "sum":
            return self.sums[column] + request
        if function == "count":
            return len(self.rows) + 1
        if function == "avg":
            return (self.sums[column] + request) / (len(self.rows) + 1)
        present = [value for value, count
                   in enumerate(self.counts[column]) if count]
        if request not in present:
            bisect.insort(present, request)
        if function == "min":
            return present[0]
        if function == "max":
            return present[-1]
        if function == "distinct_count":
            return len(present)
        raise ValueError(f"no reference for aggregate {function!r}")


_COLUMN = {"a": 0, "b": 1, "c": 2}


@dataclasses.dataclass
class Op:
    """One generated operation and, for a read, its expected reply."""

    write: bool
    key: int
    ts: int
    values: Tuple[int, int, int]
    expected: Optional[List[Any]] = None

    def to_json(self) -> List[Any]:
        return [int(self.write), self.key, self.ts, *self.values]


class Model:
    """Per-key state of one workload: what is stored, what is right."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload.name}/{seed}/layout")
        # Which key ids are hot is seeded; how many are is not, so the
        # amount of work per op has the same distribution on any seed.
        order = list(range(workload.keys))
        rng.shuffle(order)
        self.rank_to_key = order
        self.step: Dict[int, int] = {}
        position = 0
        for count, step in workload.key_classes:
            for key in order[position:position + count]:
                self.step[key] = step
            position += count
        self.t: Dict[int, int] = {}
        self.state: Dict[int, List[_WindowModel]] = {}
        self.dim: Dict[int, int] = {}
        self._cum_weights: Optional[List[float]] = None
        if workload.zipf_s is not None:
            total = 0.0
            self._cum_weights = []
            for rank in range(1, workload.keys + 1):
                total += 1.0 / rank ** workload.zipf_s
                self._cum_weights.append(total)

    def rows_in_window(self, key: int, window: Window) -> int:
        return window.span_ms // self.step[key] + 1

    def preload(self) -> Dict[str, List[List[int]]]:
        """Rows that fill every key's longest window, oldest first."""
        workload = self.workload
        rng = random.Random(f"{workload.name}/{self.seed}/preload")
        depth = {key: workload.max_span // self.step[key] + 1
                 for key in range(workload.keys)}
        for key in range(workload.keys):
            self.state[key] = [
                _WindowModel(self.rows_in_window(key, window))
                for window in workload.windows]
        rows: List[List[int]] = []
        levels = max(depth.values())
        for level in range(levels):
            for key in range(workload.keys):
                # Shallow keys start late, so every key ends at the
                # same level and rows arrive in timestamp order.
                index = level - (levels - depth[key])
                if index < 0:
                    continue
                ts = BASE_TS + index * self.step[key]
                values = (rng.randrange(VALUE_RANGE),
                          rng.randrange(VALUE_RANGE),
                          rng.randrange(VALUE_RANGE))
                rows.append([key, ts, *values])
                self.t[key] = ts
                for model in self.state[key]:
                    model.push(values)
        tables = {MAIN_TABLE: rows}
        if workload.last_join:
            self.dim = {key: rng.randrange(1000)
                        for key in range(workload.keys)}
            tables[DIM_TABLE] = [[key, BASE_TS - 1, attr]
                                 for key, attr in self.dim.items()]
        return tables

    def expected(self, key: int, values: Tuple[int, int, int]) -> List[Any]:
        """The feature row a read of ``key`` must return right now."""
        out: List[Any] = [key]
        for window, model in zip(self.workload.windows, self.state[key]):
            for function, column in window.aggregates:
                position = _COLUMN[column]
                out.append(model.aggregate(function, position,
                                           values[position]))
        if self.workload.last_join:
            out.append(self.dim[key])
        return out

    def ops(self, stream: int, of_streams: int = 1,
            writes: Optional[bool] = None) -> Iterator[Op]:
        """An endless op stream over the keys ``k % of_streams == stream``.

        Streams over disjoint key sets keep every key's op order — and
        so every expected answer — independent of thread timing.
        ``writes`` makes it all writes or all reads; left out, ops are
        drawn in the workload's mix.
        """
        workload = self.workload
        rng = random.Random(
            f"{workload.name}/{self.seed}/ops/{stream}/{of_streams}/{writes}")
        cum = self._cum_weights
        while True:
            if cum is None:
                key = rng.randrange(workload.keys)
            else:
                rank = bisect.bisect_left(cum, rng.random() * cum[-1])
                key = self.rank_to_key[rank]
            if key % of_streams != stream:
                continue
            write = rng.random() >= workload.read_share \
                if writes is None else writes
            values = (rng.randrange(VALUE_RANGE), rng.randrange(VALUE_RANGE),
                      rng.randrange(VALUE_RANGE))
            if write:
                self.t[key] += self.step[key]
                for model in self.state[key]:
                    model.push(values)
                yield Op(True, key, self.t[key], values)
            else:
                yield Op(False, key, self.t[key], values,
                         self.expected(key, values))


def matches(expected: Sequence[Any], reply: Sequence[Optional[str]]) -> bool:
    """Field-by-field comparison of a wire reply with the reference."""
    if len(expected) != len(reply):
        return False
    for want, got in zip(expected, reply):
        if got is None:
            return False
        if isinstance(want, float):
            try:
                if abs(float(got) - want) > 1e-9 * max(1.0, abs(want)):
                    return False
            except ValueError:
                return False
        elif got != str(want):
            return False
    return True


def dump_json(value: Any) -> str:
    """Canonical JSON: the same value always gives the same bytes."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)
