"""A wire fuzzer over a live server: bad frames never poison a session.

After a valid startup, each example sends a run of frames drawn from a
corpus of good simple- and extended-protocol messages — kept, truncated,
mutated, replaced with garbage, re-typed or declared oversize — with or
without a closing ``Sync``, then a ``SELECT`` marker.  Invariants:

* every reply parses as a backend message of a known type;
* no ``ErrorResponse`` carries ``XX000``;
* a connection ends only after a FATAL error or a ``Terminate``;
* a connection that lives answers a good ``EXECUTE`` byte for byte as a
  clean connection does, over either protocol;
* a second connection, open throughout, is unaffected;
* every connection thread exits once its client leaves.

The default run is short; ``python -m pytest -m fuzz
tests/test_wire_fuzz.py`` runs the deep one.  Inputs that once failed
are kept as regression cases: an ``@example`` of the short run, and the
startup test at the bottom.
"""

import socket
import struct
import threading

import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from repro.core import OpenMLDB
from repro.netserve import NetClient, NetServer
from repro.netserve import protocol as wire

MAX_FRAME = 4096

#: Every backend message type this server sends.
BACKEND_TYPES = set(b"RSKZEN123CDTtnIs")

MARKER = wire.simple_query("SELECT 424242")

#: The good reads, one per protocol; a clean connection's reply to each
#: is the byte-exact expectation.
PROBES = {
    "simple": wire.simple_query("EXECUTE feat (1, 1500, 0.0)"),
    "extended": (wire.parse_message("", "EXECUTE feat ($1, $2, $3)")
                 + wire.bind_message("", "", [b"1", b"1500", b"0.0"])
                 + wire.execute_message("") + wire.sync_message()),
}


def _split(frame):
    return frame[:1], frame[5:]


CORPUS = [_split(frame) for frame in (
    wire.simple_query("EXECUTE feat (2, 1500, 1.0)"),
    wire.simple_query("SELECT 1; SHOW server_version"),
    wire.simple_query("BEGIN; COMMIT"),
    wire.simple_query(""),
    wire.parse_message("s1", "EXECUTE feat ($1, $2, $3)"),
    wire.parse_message("", "EXECUTE feat (3, $1, 1.0)", [20]),
    wire.bind_message("", "s1", [b"1", b"1500", b"0.5"]),
    wire.bind_message("p", "s1", [struct.pack(">i", 1),
                                  struct.pack(">q", 1500),
                                  struct.pack(">d", 0.5)],
                      param_formats=[1]),
    wire.bind_message("", "", [b"1500"]),
    wire.describe_message("S", "s1"),
    wire.describe_message("P", ""),
    wire.execute_message(""),
    wire.execute_message("p", 1),
    wire.close_message("S", "s1"),
    wire.close_message("P", "p"),
    wire.sync_message(),
    b"H\x00\x00\x00\x04",
)]


@st.composite
def fuzz_frame(draw):
    type_byte, payload = draw(st.sampled_from(CORPUS))
    how = draw(st.sampled_from(("keep", "truncate", "mutate", "garbage",
                                "retype", "oversize")))
    if how == "truncate":
        payload = payload[:draw(st.integers(0, max(len(payload) - 1, 0)))]
    elif how == "mutate" and payload:
        at = draw(st.integers(0, len(payload) - 1))
        payload = (payload[:at] + bytes([draw(st.integers(0, 255))])
                   + payload[at + 1:])
    elif how == "garbage":
        payload = draw(st.binary(max_size=48))
    elif how == "retype":
        type_byte = bytes([draw(st.integers(0x21, 0x7E))])
    elif how == "oversize":
        return type_byte + struct.pack(
            ">i", MAX_FRAME + draw(st.integers(1, 1 << 20)))
    return type_byte + struct.pack(">i", len(payload) + 4) + payload


fuzz_case = st.tuples(st.lists(fuzz_frame(), min_size=1, max_size=6),
                      st.booleans(), st.sampled_from(sorted(PROBES)))


@pytest.fixture(scope="module")
def live():
    db = OpenMLDB()
    db.execute("CREATE TABLE t (uid int, ts timestamp, v double, "
               "INDEX(KEY=uid, TS=ts))")
    for uid in range(4):
        for k in range(5):
            db.insert("t", (uid, 1_000 + k * 100, float(k)))
    db.execute("DEPLOY feat SELECT uid, sum(v) OVER w AS s FROM t "
               "WINDOW w AS (PARTITION BY uid ORDER BY ts "
               "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
    server = NetServer(db, max_frame_bytes=MAX_FRAME)
    host, port = server.start()
    bystander = NetClient(host, port)
    expected = {name: _exchange(bystander, probe)
                for name, probe in PROBES.items()}
    try:
        yield host, port, bystander, expected
    finally:
        bystander.close()
        server.close()
        db.close()


def _exchange(client, data):
    """Send ``data``, return the raw reply through ReadyForQuery."""
    client.send_raw(data)
    raw = []
    while True:
        type_byte, payload = client.read_message()
        raw.append(type_byte + struct.pack(">i", len(payload) + 4)
                   + payload)
        if type_byte == b"Z":
            return b"".join(raw)


def _fields(payload):
    fields, buf = {}, wire.Buffer(payload)
    while buf.remaining > 1:
        code = chr(buf.read_byte())
        fields[code] = buf.read_cstr()
    return fields


def _conn_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("netserve-conn-")}


def check_case(live, frames, sync, probe):
    host, port, bystander, expected = live
    before = _conn_threads()
    client = NetClient(host, port)
    mine = _conn_threads() - before
    try:
        client.send_raw(b"".join(frames)
                        + (wire.sync_message() if sync else b"")
                        + MARKER)
        fatal = alive = False
        while not alive:
            try:
                type_byte, payload = client.read_message()
            except (ConnectionError, socket.timeout):
                break
            assert not fatal, "a message after a FATAL error"
            assert type_byte[0] in BACKEND_TYPES, type_byte
            if type_byte == b"E":
                fields = _fields(payload)
                assert fields["C"] != "XX000", fields
                fatal = fields["S"] == "FATAL"
                event(f"{fields['S']} {fields['C']}")
            alive = type_byte == b"D" and payload.endswith(b"424242")
        event("lives" if alive else "ends")
        if alive:
            assert [t for t, _ in client.collect_until_ready()] \
                == [b"C", b"Z"]
            assert _exchange(client, PROBES[probe]) == expected[probe]
        else:
            assert fatal or any(frame[:1] == b"X" for frame in frames)
    finally:
        client.close()
    for thread in mine:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert _exchange(bystander, PROBES[probe]) == expected[probe]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_case)
# Regression: a Query with no SQL string used to drop the connection
# without a reply (its decode ran outside the statement's error path).
@example(case=([b"Q\x00\x00\x00\x04"], False, "extended"))
def test_bad_frames_never_poison_a_session(live, case):
    check_case(live, *case)


@pytest.mark.fuzz
def test_bad_frames_never_poison_a_session_deep(request, live):
    if "fuzz" not in request.config.getoption("markexpr"):
        pytest.skip("the deep fuzz runs with -m fuzz")

    @settings(max_examples=3000, deadline=None)
    @given(case=fuzz_case)
    def run(case):
        check_case(live, *case)

    run()


def test_non_utf8_startup_parameter_is_fatal_08p01(live):
    # Regression: the startup decode used to end the connection with
    # no reply at all.
    host, port, bystander, expected = live
    body = (struct.pack(">i", wire.PROTOCOL_VERSION_3)
            + b"user\x00\xff\xfe\x00\x00")
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(struct.pack(">i", len(body) + 4) + body)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    assert reply[:1] == b"E"
    fields = _fields(reply[5:])
    assert (fields["S"], fields["C"]) == ("FATAL", "08P01")
    assert _exchange(bystander, PROBES["simple"]) == expected["simple"]
