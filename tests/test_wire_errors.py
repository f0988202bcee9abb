"""Untrusted pg-wire bytes produce typed errors, never ``XX000``.

One regression case per payload that used to escape the protocol layer
as a bare Python exception: each is checked where it is decoded (the
typed error and its SQLSTATE) and over a live server (the client gets
that SQLSTATE back, and the session keeps answering).
"""

import datetime
import struct

import pytest

from repro.core import OpenMLDB
from repro.errors import ProtocolError, TypeMismatchError
from repro.netserve import NetClient, NetServer, ServerError, sqlstate_for
from repro.netserve import protocol as wire
from repro.types import ColumnType

#: A binary DATE parameter: days since 2000-01-01 as a signed int32.
#: The largest one lies far past ``datetime.date.max``.
FAR_DATE = struct.pack(">i", 2 ** 31 - 1)

#: A statement name that is not UTF-8.
NOT_UTF8 = b"\xff\xfe"


@pytest.fixture(scope="module")
def client():
    db = OpenMLDB()
    db.execute("CREATE TABLE t (uid int, ts timestamp, d date, v double, "
               "INDEX(KEY=uid, TS=ts))")
    db.insert("t", (1, 1000, datetime.date(2024, 1, 2), 1.5))
    db.execute("DEPLOY feat SELECT uid, sum(v) OVER w AS s FROM t "
               "WINDOW w AS (PARTITION BY uid ORDER BY ts "
               "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")
    server = NetServer(db)
    host, port = server.start()
    with NetClient(host, port) as connection:
        yield connection
    server.close()
    db.close()


def _error_code(payload):
    buf = wire.Buffer(payload)
    while buf.remaining > 1:
        code = chr(buf.read_byte())
        if code == "C":
            return buf.read_cstr()
        buf.read_cstr()
    return None


def test_non_utf8_string_is_a_protocol_error(client):
    with pytest.raises(ProtocolError) as caught:
        wire.Buffer(NOT_UTF8 + b"\x00").read_cstr()
    assert sqlstate_for(caught.value) == "08P01"

    client.send_raw(wire._frame(b"D", b"S" + NOT_UTF8 + b"\x00")
                    + wire.sync_message())
    messages = client.collect_until_ready()
    assert messages[0][0] == b"E"
    assert _error_code(messages[0][1]) == "08P01"
    assert messages[-1][0] == b"Z"
    assert client.query("SELECT 1")[0].scalar() == "1"


def test_out_of_range_binary_date_is_a_type_mismatch(client):
    with pytest.raises(TypeMismatchError) as caught:
        wire.decode_parameter(FAR_DATE, ColumnType.DATE, True)
    assert sqlstate_for(caught.value) == "22P02"

    client.prepare("s_date", "EXECUTE feat (1, 1500, $1, 0.0)")
    with pytest.raises(ServerError) as served:
        client.execute("s_date", [FAR_DATE], param_formats=[1])
    assert served.value.sqlstate == "22P02"
    assert client.query("SELECT 1")[0].scalar() == "1"
