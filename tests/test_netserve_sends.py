"""Send for send: the bytes a served read and a wire write put on the
socket, and how many ``sendall`` calls carry them.

perfbench's yardstick counts on a prepared read answering in three
sends (``BindComplete``; ``DataRow`` + ``CommandComplete``;
``ReadyForQuery``) and a simple-protocol ``INSERT`` in two
(``CommandComplete``; ``ReadyForQuery``): the number of sends sets how
often the generator is woken.  A change to how a reply is built must
leave both the bytes and the sends as they are.  The expected frames
are spelled out here byte by byte, not built by the protocol module;
the statement's DataRow encoder is also checked against ``data_row`` of
``encode_text``, the per-value build it replaces on the served path.
"""

import datetime
import random
import socket
import struct

import pytest

from repro import OpenMLDB
from repro.netserve import NetServer
from repro.netserve import protocol as wire

FEATURES = ("SELECT k, sum(v) OVER w AS s, count(v) OVER w AS c, "
            "max(n) OVER w AS m, k = 'x' AS is_x FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")


def frame(type_byte, payload):
    return type_byte + struct.pack(">i", len(payload) + 4) + payload


def cstr(text):
    return text.encode() + b"\x00"


def data_row(*fields):
    body = struct.pack(">h", len(fields))
    for field in fields:
        body += struct.pack(">i", -1) if field is None \
            else struct.pack(">i", len(field)) + field
    return frame(b"D", body)


BIND_COMPLETE = b"2\x00\x00\x00\x04"
READY = b"Z\x00\x00\x00\x05I"


@pytest.fixture
def served(monkeypatch):
    db = OpenMLDB()
    db.execute("CREATE TABLE t (k string, ts timestamp, v double, "
               "n bigint, INDEX(KEY=k, TS=ts))")
    db.execute("INSERT INTO t VALUES ('x', 1000, 1.5, NULL)")
    db.execute("INSERT INTO t VALUES ('x', 2000, 2.25, NULL)")
    db.deploy("f", FEATURES)
    server = NetServer(db, admin=db)
    port = server.start()[1]
    sends = []
    original = socket.socket.sendall

    def recording(sock, data, *args):
        if sock.getsockname()[1] == port:  # the server's side only
            sends.append(bytes(data))
        return original(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    client = socket.create_connection(("127.0.0.1", port), timeout=10)
    body = struct.pack(">i", 196608) + cstr("user") + cstr("u") + b"\x00"
    client.sendall(struct.pack(">i", len(body) + 4) + body)
    buffer = [b""]

    def until_ready():
        """Read through the next ReadyForQuery."""
        while not buffer[0].endswith(READY):
            chunk = client.recv(65536)
            assert chunk, "server closed the connection"
            buffer[0] += chunk
        buffer[0] = b""

    until_ready()
    del sends[:]
    yield client, until_ready, sends
    client.close()
    server.close()
    db.close()


def test_a_prepared_read_answers_in_three_sends(served):
    client, until_ready, sends = served
    client.sendall(frame(b"P", cstr("s") + cstr("EXECUTE f ($1, $2, $3, $4)")
                         + struct.pack(">h", 0)) + frame(b"S", b""))
    until_ready()
    del sends[:]
    params = [b"x", b"3000", b"0.25", None]
    bind = cstr("") + cstr("s") + struct.pack(">hh", 0, len(params))
    for value in params:
        bind += struct.pack(">i", -1) if value is None \
            else struct.pack(">i", len(value)) + value
    bind += struct.pack(">hh", 1, 0)
    client.sendall(frame(b"B", bind)
                   + frame(b"E", cstr("") + struct.pack(">i", 0))
                   + frame(b"S", b""))
    until_ready()
    assert sends == [
        BIND_COMPLETE,
        data_row(b"x", b"4.0", b"3", None, b"t")
        + frame(b"C", cstr("SELECT 1")),
        READY]


def test_a_wire_insert_answers_in_two_sends(served):
    client, until_ready, sends = served
    client.sendall(frame(b"Q", cstr("INSERT INTO t VALUES "
                                    "('y', 5000, 1.0, 7)")))
    until_ready()
    assert sends == [frame(b"C", cstr("INSERT 0 1")), READY]


def test_the_statement_encoder_builds_what_data_row_of_encode_text_does():
    # The reference: a DataRow of each value's encode_text, in order.
    names = ("a", "b", "c", "d", "e")
    encode = wire.data_row_encoder(names)
    values = [None, True, False, 0, -7, 2 ** 63, 10 ** 30, 1.5, -0.0,
              float("inf"), 1e-300, "", "x", "caf\u00e9",
              datetime.date(2024, 2, 29)]
    rng = random.Random(43)
    for _ in range(500):
        features = {name: rng.choice(values) for name in names
                    if rng.random() < 0.9}
        assert encode(features) == wire.data_row(
            [wire.encode_text(features.get(name)) for name in names])
