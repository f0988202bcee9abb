"""Self-test of the benchmark itself (not part of the repo's tier-1).

Run with ``python -m pytest perfbench/tests -q`` from the repo root
(about a minute): a tiny-size pass of every workload through both run
kinds, the catalog checked against what is emitted in both directions,
the seeded inputs checked for byte-identity, and the generator's own
client checked against an error reply and a refused connection.
"""

import json
import os
import socket
import struct
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import harness, loadgen, pgclient  # noqa: E402
from perfbench.workloads import (WORKLOADS, Model, Op, dump_json,  # noqa: E402
                                 scaled)


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


CATALOG = _load("BENCHMARK.json")
INTERACTIONS = _load(os.path.join("perfbench", "interactions.json"))


def test_workloads_listed_are_the_workloads_run():
    listed = {entry["name"]: entry["why"] for entry in CATALOG["workloads"]}
    assert listed == {name: w.why for name, w in WORKLOADS.items()}


def test_every_layer_metric_says_what_it_should_move():
    layers = [entry["name"] for entry in CATALOG["per_layer"]]
    assert sorted(layers) == sorted(INTERACTIONS)
    end_to_end = {entry["name"] for entry in CATALOG["end_to_end"]}
    for name, entry in INTERACTIONS.items():
        assert entry["moves"], name
        for metric, workload in entry["moves"]:
            assert metric in end_to_end, (name, metric)
            assert workload in WORKLOADS, (name, workload)


def test_same_seed_gives_the_same_bytes():
    for workload in WORKLOADS.values():
        tiny = scaled(workload, keys=16, rows=12)

        def inputs(seed):
            model = Model(tiny, seed)
            preload = dump_json(model.preload())
            stream = model.ops(0, 1)
            return preload, dump_json(
                [next(stream).to_json() for _ in range(300)])
        assert inputs(7) == inputs(7)
        assert inputs(7) != inputs(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_emits_exactly_the_catalog(name):
    tiny = scaled(WORKLOADS[name], keys=16, rows=12)
    for measure, section in ((harness.end_to_end, "end_to_end"),
                             (harness.traced, "per_layer")):
        kwargs = {"setups": 1} if section == "end_to_end" else {}
        result = measure(tiny, 5, 2.4, cycles=2, **kwargs)
        assert result["failed"] == 0 and result["correct"]
        assert result["attempted"] > 0
        listed = {entry["name"]: entry["unit"]
                  for entry in CATALOG[section]}
        assert {metric: entry["unit"] for metric, entry
                in result["metrics"].items()} == listed


def _frame(kind, payload=b""):
    return kind + struct.pack(">i", len(payload) + 4) + payload


def _failing_server(listener):
    """Completes start-up and Parse, answers every op with an error."""
    peer, _address = listener.accept()
    with peer:
        data = b""

        def read(count):
            nonlocal data
            while len(data) < count:
                chunk = peer.recv(4096)
                if not chunk:
                    raise ConnectionError
                data += chunk
            out, data = data[:count], data[count:]
            return out
        try:
            read(struct.unpack(">i", read(4))[0] - 4)
            peer.sendall(_frame(b"R", struct.pack(">i", 0))
                         + _frame(b"Z", b"I"))
            failing = False
            while True:
                kind = read(1)
                read(struct.unpack(">i", read(4))[0] - 4)
                if kind in (b"B", b"Q"):
                    failing = True
                if kind == b"P":
                    peer.sendall(_frame(b"1"))
                if kind in (b"S", b"Q"):
                    error = _frame(b"E", b"SERROR\x00C53300\x00Mno\x00\x00") \
                        if failing else b""
                    peer.sendall(error + _frame(b"Z", b"I"))
                    failing = False
        except ConnectionError:
            pass


def test_error_reply_and_refused_connection_are_failures_not_hangs():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    thread = threading.Thread(target=_failing_server, args=(listener,))
    thread.start()
    try:
        connection = loadgen.connect(port)
        read = Op(False, 1, 1000, (1, 2, 3), [1])
        write = Op(True, 1, 1010, (1, 2, 3))
        assert loadgen.run_op(connection, read)[1] is False
        assert loadgen.run_op(connection, write)[1] is False
        connection.close()
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    # Nobody listens on the port any more: refused at once, and an op
    # on a dead connection is one more failed op.
    with pytest.raises(OSError):
        pgclient.Connection("127.0.0.1", port, timeout=5.0)
    assert loadgen.run_op(connection, read)[1] is False
