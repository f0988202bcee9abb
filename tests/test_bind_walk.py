"""Bind's one walk against the three steps it replaced.

The server reads a Bind payload once (``protocol.parse_bind`` with the
prepared statement's decoders), decoding each parameter as it reads it.
The oracle below is the composition it replaced, kept as it was: a
``Buffer`` walk collecting raw parameters, then the statement lookup,
then a per-parameter loop choosing each format and calling the
per-type decoder.  For every payload both give the same portal and
``repr`` of the request row, or the same SQLSTATE.
"""

import datetime
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import OpenMLDB
from repro.errors import OpenMLDBError, TypeMismatchError
from repro.netserve import protocol as wire
from repro.netserve import server as server_module
from repro.netserve.statements import ExecuteDeployment, Param, SetOption
from repro.types import ColumnType

# ----------------------------------------------------------------------
# the oracle: parse_bind + _bind_row + decode_parameter as they were

_TRUE_TEXT = {"t", "true", "1", "yes", "on"}
_FALSE_TEXT = {"f", "false", "0", "no", "off"}
_BINARY_UNPACK = {
    ColumnType.SMALLINT: ">h", ColumnType.INT: ">i",
    ColumnType.BIGINT: ">q", ColumnType.TIMESTAMP: ">q",
    ColumnType.FLOAT: ">f", ColumnType.DOUBLE: ">d",
}
_EPOCH = datetime.date(2000, 1, 1)


def old_decode_parameter(raw, column_type, binary):
    if raw is None:
        return None
    try:
        if binary:
            return _old_binary(raw, column_type)
        return _old_text(raw.decode("utf-8"), column_type)
    except (ValueError, OverflowError, struct.error) as exc:
        raise TypeMismatchError(
            f"cannot decode parameter {raw!r} as "
            f"{column_type.sql_name}: {exc}") from None


def _old_text(text, column_type):
    if column_type in (ColumnType.SMALLINT, ColumnType.INT,
                       ColumnType.BIGINT, ColumnType.TIMESTAMP):
        return int(text)
    if column_type in (ColumnType.FLOAT, ColumnType.DOUBLE):
        return float(text)
    if column_type is ColumnType.BOOL:
        lowered = text.strip().lower()
        if lowered in _TRUE_TEXT:
            return True
        if lowered in _FALSE_TEXT:
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if column_type is ColumnType.DATE:
        return datetime.date.fromisoformat(text.strip())
    return text


def _old_binary(raw, column_type):
    fmt = _BINARY_UNPACK.get(column_type)
    if fmt is not None:
        if len(raw) != struct.calcsize(fmt):
            raise ValueError(f"expected {struct.calcsize(fmt)} bytes, "
                             f"got {len(raw)}")
        return struct.unpack(fmt, raw)[0]
    if column_type is ColumnType.BOOL:
        if len(raw) != 1:
            raise ValueError("boolean must be one byte")
        return raw != b"\x00"
    if column_type is ColumnType.DATE:
        (days,) = struct.unpack(">i", raw)
        return _EPOCH + datetime.timedelta(days=days)
    return raw.decode("utf-8")


def old_parse_bind(payload):
    buf = wire.Buffer(payload)
    portal = buf.read_cstr()
    statement = buf.read_cstr()
    param_formats = [buf.read_int16() for _ in range(buf.read_int16())]
    params = []
    for _ in range(buf.read_int16()):
        length = buf.read_int32()
        params.append(None if length < 0 else buf.read_bytes(length))
    result_formats = [buf.read_int16() for _ in range(buf.read_int16())]
    return portal, statement, param_formats, params, result_formats


def old_bind_row(prepared, param_formats, raw_params):
    param_types = prepared.param_types
    if not isinstance(prepared.statement, ExecuteDeployment):
        if raw_params:
            raise server_module._WireError(
                "42P02", "statement takes no parameters")
        return None
    if len(raw_params) != len(param_types):
        raise server_module._WireError("08P01", "count mismatch")
    values = []
    for index, raw in enumerate(raw_params):
        if not param_formats:
            binary = False
        elif len(param_formats) == 1:
            binary = bool(param_formats[0])
        elif index < len(param_formats):
            binary = bool(param_formats[index])
        else:
            raise server_module._WireError(
                "08P01", "parameter format count mismatch")
        values.append(old_decode_parameter(raw, param_types[index], binary))
    return tuple(values[arg.index] if isinstance(arg, Param) else arg
                 for arg in prepared.statement.args)


def sqlstate(error):
    if isinstance(error, server_module._WireError):
        return error.sqlstate
    if isinstance(error, OpenMLDBError):
        return wire.sqlstate_for(error)
    return "XX000"


def old_bind(statements, payload):
    try:
        portal, name, formats, raw, _results = old_parse_bind(payload)
        prepared = statements.get(name)
        if prepared is None:
            raise server_module._WireError("26000", "unknown statement")
        return "row", portal, repr(old_bind_row(prepared, formats, raw))
    except Exception as error:
        return "error", sqlstate(error)


# ----------------------------------------------------------------------
# the server's Bind

class _Socket:
    def __init__(self):
        self.sent = []

    def sendall(self, data):
        self.sent.append(data)


@pytest.fixture(scope="module")
def server():
    db = OpenMLDB()
    net = server_module.NetServer(db)
    yield net
    net.close()
    db.close()


def new_bind(server, statements, payload):
    session = server_module._Session({})
    session.statements.update(statements)
    sock = _Socket()
    try:
        server._on_bind(sock, session, payload)
    except Exception as error:
        assert not sock.sent
        return "error", sqlstate(error)
    assert sock.sent == [wire.bind_complete()]
    ((portal, bound),) = session.portals.items()
    return "row", portal, repr(bound.row)


ALL_TYPES = list(ColumnType)


def _prepared(name, args, types):
    statement = ExecuteDeployment("feat", tuple(args))
    return server_module._Prepared(name, statement, None, types)


STATEMENTS = {
    "": _prepared("", [Param(0), Param(1), Param(2)],
                  [ColumnType.BIGINT, ColumnType.TIMESTAMP,
                   ColumnType.DOUBLE]),
    "all": _prepared("all", [Param(i) for i in range(len(ALL_TYPES))],
                     ALL_TYPES),
    "mixed": _prepared("mixed", [Param(1), 5, Param(0), "lit", None],
                       [ColumnType.STRING, ColumnType.INT]),
    "literals": _prepared("literals", [1, "x", None], []),
    "set": server_module._Prepared("set", SetOption("a", "b"), None, ()),
}

# ----------------------------------------------------------------------
# payloads


def build(portal, statement, formats, params, results,
          format_count=None, param_count=None, result_count=None):
    payload = portal + b"\x00" + statement + b"\x00"
    payload += struct.pack(">h", len(formats) if format_count is None
                           else format_count)
    payload += b"".join(struct.pack(">h", code) for code in formats)
    payload += struct.pack(">h", len(params) if param_count is None
                           else param_count)
    for value in params:
        if value is None:
            payload += struct.pack(">i", -1)
        else:
            payload += struct.pack(">i", len(value)) + value
    payload += struct.pack(">h", len(results) if result_count is None
                           else result_count)
    return payload + b"".join(struct.pack(">h", code) for code in results)


TEXT_VALUES = [b"1", b"-5", b" 7 ", b"1.5", b"1e400", b"nan", b"t",
               b"YES", b"off", b"2024-01-02", b" 2024-02-30", b"x", b"",
               "١٢".encode(), "\u30007".encode(), b"\x1c7", b"\xff",
               b"99999999999999999999999", b"1_0", b"inf"]
BINARY_VALUES = [struct.pack(">h", -3), struct.pack(">i", 7),
                 struct.pack(">q", 2 ** 40), struct.pack(">f", 1.5),
                 struct.pack(">d", -2.25), b"\x00", b"\x01",
                 struct.pack(">i", 2 ** 31 - 1), b"\x01\x02\x03", b"ok"]
PARAM = st.one_of(st.none(), st.sampled_from(TEXT_VALUES),
                  st.sampled_from(BINARY_VALUES),
                  st.binary(max_size=9))
NAMES = st.sampled_from([b"", b"all", b"mixed", b"literals", b"set",
                         b"nope", b"\xff\xfe"])
FORMATS = st.lists(st.sampled_from([0, 1, 2, -1]), max_size=11)
COUNT = st.one_of(st.none(), st.integers(-2, 12))


@st.composite
def payloads(draw):
    payload = build(draw(st.sampled_from([b"", b"p1", b"\xff"])),
                    draw(NAMES), draw(FORMATS),
                    draw(st.lists(PARAM, max_size=10)),
                    draw(st.lists(st.sampled_from([0, 1]), max_size=3)),
                    format_count=draw(COUNT), param_count=draw(COUNT),
                    result_count=draw(COUNT))
    cut = draw(st.one_of(st.none(), st.integers(0, len(payload))))
    if cut is not None:
        payload = payload[:cut]
    return payload + draw(st.sampled_from([b"", b"\x00", b"junk"]))


VALID_TEXT = {
    ColumnType.BOOL: [b"t", b"off", b" YES "],
    ColumnType.SMALLINT: [b"-3", b"12"], ColumnType.INT: [b"7", b" 8"],
    ColumnType.BIGINT: [b"1099511627776"], ColumnType.TIMESTAMP: [b"1500"],
    ColumnType.FLOAT: [b"1.5", b"-0.0"], ColumnType.DOUBLE: [b"2.25e3"],
    ColumnType.DATE: [b"2024-01-02"], ColumnType.STRING: [b"s", b""],
}
VALID_BINARY = {
    ColumnType.BOOL: [b"\x00", b"\x02"],
    ColumnType.SMALLINT: [struct.pack(">h", -3)],
    ColumnType.INT: [struct.pack(">i", 7)],
    ColumnType.BIGINT: [struct.pack(">q", 2 ** 40)],
    ColumnType.TIMESTAMP: [struct.pack(">q", 1500)],
    ColumnType.FLOAT: [struct.pack(">f", 1.5)],
    ColumnType.DOUBLE: [struct.pack(">d", -2.25)],
    ColumnType.DATE: [struct.pack(">i", 8766)],
    ColumnType.STRING: ["é".encode()],
}


@st.composite
def well_formed(draw):
    """A Bind of a known statement with a matching parameter count,
    most parameters valid for their type and format."""
    name = draw(st.sampled_from(["", "all", "mixed", "literals"]))
    types = STATEMENTS[name].param_types
    binary = draw(st.lists(st.booleans(), min_size=len(types),
                           max_size=len(types)))
    shape = draw(st.sampled_from(["none", "one", "each", "short"]))
    if shape == "none" or not types:
        formats, binary = [], [False] * len(types)
    elif shape == "one":
        formats, binary = [int(binary[0])], [binary[0]] * len(types)
    elif shape == "each":
        formats = [int(flag) for flag in binary]
    else:
        formats = [int(flag) for flag in binary[:draw(
            st.integers(0, len(types)))]]
    params = []
    for kind, as_binary in zip(types, binary):
        pool = (VALID_BINARY if as_binary else VALID_TEXT)[kind]
        params.append(draw(st.one_of(
            st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(pool),
            st.sampled_from(pool), st.none(), PARAM)))
    return build(b"", name.encode(), formats, params, [0])


def _check(server, payload):
    assert new_bind(server, STATEMENTS, payload) \
        == old_bind(STATEMENTS, payload), payload


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(payloads())
@example(b"")
@example(b"\x00\x00\x00\x00\x00\x03\x00\x00\x00\x011")
def test_any_payload_matches_the_old_composition(server, payload):
    _check(server, payload)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(well_formed())
def test_well_formed_binds_match_the_old_composition(server, payload):
    _check(server, payload)


@pytest.mark.parametrize("payload, expected", [
    (build(b"", b"", [], [b"1", b"1500", b"2.5"], [0]),
     ("row", "", "(1, 1500, 2.5)")),
    (build(b"p", b"", [1], [struct.pack(">q", 1), struct.pack(">q", 2),
                            struct.pack(">d", 0.5)], []),
     ("row", "p", "(1, 2, 0.5)")),
    (build(b"", b"", [0, 1, 0], [b"1", struct.pack(">q", 2), None], [0]),
     ("row", "", "(1, 2, None)")),
    (build(b"", b"mixed", [], [b"s", b"9"], [0]),
     ("row", "", "(9, 5, 's', 'lit', None)")),
    (build(b"", b"literals", [], [], [0]), ("row", "", "(1, 'x', None)")),
    (build(b"", b"set", [], [], [0]), ("row", "", "None")),
    (build(b"", b"", [], [b"1", b"x", b"2.5"], [0]), ("error", "22P02")),
    (build(b"", b"", [0, 1], [b"1", struct.pack(">q", 2), b"3"], [0]),
     ("error", "08P01")),
    (build(b"", b"", [], [b"1", b"2"], [0]), ("error", "08P01")),
    (build(b"", b"nope", [], [], [0]), ("error", "26000")),
    (build(b"", b"set", [], [b"1"], [0]), ("error", "42P02")),
    (build(b"", b"", [], [b"1", b"x", b"2.5"], [0])[:-1],
     ("error", "08P01")),
])
def test_named_cases(server, payload, expected):
    assert new_bind(server, STATEMENTS, payload) == expected
    assert old_bind(STATEMENTS, payload) == expected


def test_decoders_are_built_at_parse(server, monkeypatch):
    """Bind reads no type table: every decoder comes from Parse."""
    prepared = STATEMENTS[""]
    assert prepared.decoders.types == prepared.param_types
    monkeypatch.setattr(wire, "_TEXT_DECODERS", {})
    monkeypatch.setattr(wire, "_BINARY_DECODERS", {})
    assert new_bind(server, STATEMENTS,
                    build(b"", b"", [], [b"1", b"2", b"3"], [0])) \
        == ("row", "", "(1, 2, 3.0)")


def test_reply_sends_are_unchanged():
    """A read answers BindComplete, DataRow + CommandComplete and
    ReadyForQuery, each its own send; a simple-query INSERT answers
    CommandComplete and ReadyForQuery as two sends."""
    db = OpenMLDB()
    db.execute("CREATE TABLE t (k bigint, ts timestamp, v double, "
               "INDEX(KEY=k, TS=ts))")
    db.execute("DEPLOY feat SELECT k, sum(v) OVER w AS s FROM t "
               "WINDOW w AS (PARTITION BY k ORDER BY ts "
               "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)")
    net = server_module.NetServer(db, admin=db)
    try:
        session = server_module._Session({"user": "u"})
        sock = _Socket()

        def send(frame):
            sock.sent.clear()
            assert net._dispatch(sock, session, frame[:1], frame[5:])
            return list(sock.sent)

        assert send(wire.simple_query("INSERT INTO t VALUES (1, 10, 2.5)")) \
            == [wire.command_complete("INSERT 0 1"), wire.ready_for_query()]
        assert send(wire.parse_message("", "EXECUTE feat ($1, $2, $3)")) \
            == [wire.parse_complete()]
        assert send(wire.bind_message("", "", [b"1", b"20", b"0.5"])) \
            == [wire.bind_complete()]
        assert send(wire.execute_message("")) \
            == [wire.data_row([b"1", b"3.0"])
                + wire.command_complete("SELECT 1")]
        assert send(wire.sync_message()) == [wire.ready_for_query()]
    finally:
        net.close()
        db.close()
