"""PostgreSQL wire-protocol (v3) framing.

Message *builders* (server→client and client→server) and *parsers*
shared by the threaded server (:mod:`repro.netserve.server`) and the
bundled minimal client (:mod:`repro.netserve.client`).  Only the
protocol subset the feature-serving surface needs is implemented:
startup / trust auth, the simple query cycle, and the extended query
cycle (Parse / Bind / Describe / Execute / Close / Flush / Sync), all
values in **text format** plus binary format for the fixed-width
parameter types psycopg prefers once it knows an OID.

Docs: ``docs/network_protocol.md`` has the message-flow diagrams and
the SQLSTATE mapping table rendered from :func:`sqlstate_for`.
"""

from __future__ import annotations

import datetime
import struct
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from ..errors import (DeadlineExceededError, DeploymentNotFoundError,
                      LexError, MemoryLimitExceededError, OpenMLDBError,
                      OverloadError, ParseError, PlanError, CompileError,
                      ProtocolError, SchemaError, StorageError,
                      TableNotFoundError, TypeMismatchError)
from ..types import ColumnType

__all__ = [
    "PROTOCOL_VERSION_3", "SSL_REQUEST_CODE", "CANCEL_REQUEST_CODE",
    "GSSENC_REQUEST_CODE", "TYPE_OIDS", "TEXT_OID",
    "sqlstate_for", "encode_text", "decode_parameter", "ParamDecoders",
    "data_row_encoder",
    "authentication_ok", "parameter_status", "backend_key_data",
    "ready_for_query", "command_complete", "empty_query_response",
    "row_description", "data_row", "parse_complete", "bind_complete",
    "close_complete", "no_data", "parameter_description",
    "error_response", "Buffer", "startup_message", "simple_query",
    "parse_message", "bind_message", "describe_message",
    "execute_message", "close_message", "sync_message",
    "terminate_message",
]

PROTOCOL_VERSION_3 = 196608          # 3 << 16
SSL_REQUEST_CODE = 80877103
CANCEL_REQUEST_CODE = 80877102
GSSENC_REQUEST_CODE = 80877104

#: ColumnType → PostgreSQL type OID for RowDescription /
#: ParameterDescription.  Timestamps here are epoch *milliseconds*
#: (OpenMLDB semantics), so they travel as int8 — never as the PG
#: timestamp type, whose epoch and unit differ.
TYPE_OIDS = {
    ColumnType.BOOL: 16,
    ColumnType.SMALLINT: 21,
    ColumnType.INT: 23,
    ColumnType.BIGINT: 20,
    ColumnType.FLOAT: 700,
    ColumnType.DOUBLE: 701,
    ColumnType.TIMESTAMP: 20,
    ColumnType.DATE: 1082,
    ColumnType.STRING: 25,
}
TEXT_OID = 25

#: Fixed typlen per OID (RowDescription field); -1 = variable.
_TYPLEN = {16: 1, 21: 2, 23: 4, 20: 8, 700: 4, 701: 8, 1082: 4, 25: -1}

_POSTGRES_EPOCH_DATE = datetime.date(2000, 1, 1)


# ----------------------------------------------------------------------
# SQLSTATE mapping

#: Ordered (exception class → SQLSTATE); first match wins, so subclasses
#: precede their bases.  The table in docs/network_protocol.md mirrors
#: this structure.
_SQLSTATES: Tuple[Tuple[type, str], ...] = (
    (DeadlineExceededError, "57014"),   # query_canceled
    (ProtocolError, "08P01"),           # protocol_violation
    (LexError, "42601"),                # syntax_error
    (ParseError, "42601"),
    (PlanError, "42000"),               # syntax_error_or_access_rule
    (CompileError, "42000"),
    (TypeMismatchError, "22P02"),       # invalid_text_representation
    (SchemaError, "22000"),             # data_exception
    (DeploymentNotFoundError, "26000"), # invalid_sql_statement_name
    (TableNotFoundError, "42P01"),      # undefined_table
    (MemoryLimitExceededError, "53200"),# out_of_memory
    (StorageError, "58000"),            # system_error
    (OpenMLDBError, "XX000"),           # internal_error fallback
)


def sqlstate_for(error: BaseException) -> str:
    """Map an exception to its SQLSTATE code.

    :class:`~repro.errors.OverloadError` splits on its shed reason:
    the in-flight concurrency limiter reports ``53300``
    (too_many_connections — the bound is a connection-shaped limit),
    every other shed reason reports ``53400``
    (configuration_limit_exceeded).  Both are class 53 "insufficient
    resources", the retryable family clients should back off on.
    """
    if isinstance(error, OverloadError):
        return "53300" if error.reason == "inflight" else "53400"
    for klass, code in _SQLSTATES:
        if isinstance(error, klass):
            return code
    return "XX000"


# ----------------------------------------------------------------------
# value encoding (text format)

def encode_text(value: Any) -> Optional[bytes]:
    """Encode one feature value for a DataRow field (None = SQL NULL)."""
    if value is None:
        return None
    if value is True:
        return b"t"
    if value is False:
        return b"f"
    if isinstance(value, float):
        return repr(value).encode("ascii")
    if isinstance(value, datetime.date):
        return value.isoformat().encode("ascii")
    return str(value).encode("utf-8")


# ----------------------------------------------------------------------
# parameter decoding
#
# One decoder per (type, format), each a plain ``bytes -> value``
# function that raises ValueError / OverflowError / struct.error on a
# value it cannot read; the caller turns that into TypeMismatchError.

_TRUE_TEXT = {"t", "true", "1", "yes", "on"}
_FALSE_TEXT = {"f", "false", "0", "no", "off"}


# int() and float() read ASCII bytes as they read the same text; only
# bytes they refuse are decoded and read again, for the Unicode digits
# and blanks the text forms also take.

def _text_int(raw: bytes) -> int:
    try:
        return int(raw)
    except ValueError:
        return int(raw.decode("utf-8"))


def _text_float(raw: bytes) -> float:
    try:
        return float(raw)
    except ValueError:
        return float(raw.decode("utf-8"))


def _text_bool(raw: bytes) -> bool:
    text = raw.decode("utf-8")
    lowered = text.strip().lower()
    if lowered in _TRUE_TEXT:
        return True
    if lowered in _FALSE_TEXT:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _text_date(raw: bytes) -> datetime.date:
    return datetime.date.fromisoformat(raw.decode("utf-8").strip())


def _binary_fixed(fmt: str) -> Callable[[bytes], Any]:
    unpack = struct.Struct(fmt).unpack  # struct.error on a wrong length
    return lambda raw: unpack(raw)[0]


def _binary_bool(raw: bytes) -> bool:
    if len(raw) != 1:
        raise ValueError("boolean must be one byte")
    return raw != b"\x00"


def _binary_date(raw: bytes) -> datetime.date:
    (days,) = struct.unpack(">i", raw)
    return _POSTGRES_EPOCH_DATE + datetime.timedelta(days=days)


_TEXT_DECODERS = {
    ColumnType.BOOL: _text_bool,
    ColumnType.SMALLINT: _text_int,
    ColumnType.INT: _text_int,
    ColumnType.BIGINT: _text_int,
    ColumnType.TIMESTAMP: _text_int,
    ColumnType.FLOAT: _text_float,
    ColumnType.DOUBLE: _text_float,
    ColumnType.DATE: _text_date,
    ColumnType.STRING: bytes.decode,  # UTF-8
}

#: Binary format: network byte order for the fixed-width types (as
#: psycopg sends once it knows the OID), UTF-8 for a string.
_BINARY_DECODERS = {
    ColumnType.BOOL: _binary_bool,
    ColumnType.SMALLINT: _binary_fixed(">h"),
    ColumnType.INT: _binary_fixed(">i"),
    ColumnType.BIGINT: _binary_fixed(">q"),
    ColumnType.TIMESTAMP: _binary_fixed(">q"),
    ColumnType.FLOAT: _binary_fixed(">f"),
    ColumnType.DOUBLE: _binary_fixed(">d"),
    ColumnType.DATE: _binary_date,
    ColumnType.STRING: bytes.decode,  # UTF-8
}

_DECODE_ERRORS = (ValueError, OverflowError, struct.error)


def _undecodable(raw: bytes, column_type: ColumnType,
                 error: Exception) -> TypeMismatchError:
    return TypeMismatchError(f"cannot decode parameter {raw!r} as "
                             f"{column_type.sql_name}: {error}")


def decode_parameter(raw: Optional[bytes], column_type: ColumnType,
                     binary: bool) -> Any:
    """Decode one Bind parameter into the request row's Python value.

    Text format covers every type; binary format is accepted for the
    fixed-width types (network byte order, as psycopg sends once it
    knows the OID).  Failures raise
    :class:`~repro.errors.TypeMismatchError` → SQLSTATE 22P02.
    """
    if raw is None:
        return None
    decoders = _BINARY_DECODERS if binary else _TEXT_DECODERS
    try:
        return decoders[column_type](raw)
    except _DECODE_ERRORS as exc:
        raise _undecodable(raw, column_type, exc) from None


class ParamDecoders(NamedTuple):
    """A prepared statement's parameter types and their decoders, built
    once when the statement is parsed and used by every Bind of it."""

    types: Tuple[ColumnType, ...]
    text: Tuple[Callable[[bytes], Any], ...]
    binary: Tuple[Callable[[bytes], Any], ...]

    @classmethod
    def of(cls, types: Sequence[ColumnType]) -> "ParamDecoders":
        return cls(tuple(types),
                   tuple(_TEXT_DECODERS[kind] for kind in types),
                   tuple(_BINARY_DECODERS[kind] for kind in types))

    def pick(self, formats: Sequence[int]
             ) -> Tuple[Optional[Callable[[bytes], Any]], ...]:
        """The decoder per parameter under Bind's format-code rule: no
        code = all text, one code = for all, otherwise one code per
        parameter (nonzero = binary) — None past the end of a list
        that is too short."""
        if not formats:
            return self.text
        if len(formats) == 1:
            return self.binary if formats[0] else self.text
        return tuple(
            (binary if formats[index] else text)
            if index < len(formats) else None
            for index, (text, binary) in enumerate(zip(self.text,
                                                       self.binary)))


# ----------------------------------------------------------------------
# low-level buffer reader

class Buffer:
    """Sequential reader over one message payload."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read_bytes(self, count: int) -> bytes:
        if count < 0 or self.remaining < count:
            raise ProtocolError(
                f"truncated message: wanted {count} bytes, "
                f"have {self.remaining}")
        out = self._data[self._pos:self._pos + count]
        self._pos += count
        return out

    def read_int16(self) -> int:
        return struct.unpack(">h", self.read_bytes(2))[0]

    def read_int32(self) -> int:
        return struct.unpack(">i", self.read_bytes(4))[0]

    def read_byte(self) -> int:
        return self.read_bytes(1)[0]

    def read_cstr(self) -> str:
        out, self._pos = _cstr_at(self._data, self._pos)
        return out


# ----------------------------------------------------------------------
# message assembly helpers

def _cstr(text: str) -> bytes:
    return text.encode("utf-8") + b"\x00"


def _frame(type_byte: bytes, payload: bytes) -> bytes:
    """One typed message: type byte + int32 length (incl. itself)."""
    return type_byte + struct.pack(">i", len(payload) + 4) + payload


# ---- backend (server → client) ----

def authentication_ok() -> bytes:
    return _frame(b"R", struct.pack(">i", 0))


def parameter_status(key: str, value: str) -> bytes:
    return _frame(b"S", _cstr(key) + _cstr(value))


def backend_key_data(pid: int, secret: int) -> bytes:
    return _frame(b"K", struct.pack(">ii", pid, secret))


def ready_for_query(status: bytes = b"I") -> bytes:
    return _frame(b"Z", status)


def command_complete(tag: str) -> bytes:
    return _frame(b"C", _cstr(tag))


def empty_query_response() -> bytes:
    return _frame(b"I", b"")


def parse_complete() -> bytes:
    return _frame(b"1", b"")


def bind_complete() -> bytes:
    return _frame(b"2", b"")


def close_complete() -> bytes:
    return _frame(b"3", b"")


def no_data() -> bytes:
    return _frame(b"n", b"")


def parameter_description(oids: Sequence[int]) -> bytes:
    payload = struct.pack(">h", len(oids))
    for oid in oids:
        payload += struct.pack(">i", oid)
    return _frame(b"t", payload)


def row_description(columns: Sequence[Tuple[str, int]]) -> bytes:
    """``columns`` is a sequence of (name, type OID) pairs."""
    parts = [struct.pack(">h", len(columns))]
    for name, oid in columns:
        parts.append(_cstr(name))
        parts.append(struct.pack(">ihihih", 0, 0, oid,
                                 _TYPLEN.get(oid, -1), -1, 0))
    return _frame(b"T", b"".join(parts))


def data_row(values: Sequence[Optional[bytes]]) -> bytes:
    parts = [struct.pack(">h", len(values))]
    for value in values:
        if value is None:
            parts.append(struct.pack(">i", -1))
        else:
            parts.append(struct.pack(">i", len(value)))
            parts.append(value)
    return _frame(b"D", b"".join(parts))


_PACK_INT32 = struct.Struct(">i").pack
_NULL_FIELD = _PACK_INT32(-1)

#: :func:`encode_text` by exact value type, for the types a feature
#: takes; any other type goes through :func:`encode_text` itself.
_TEXT_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    int: b"%d".__mod__,
    float: lambda value: repr(value).encode("ascii"),
    str: str.encode,
    bool: lambda value: b"t" if value else b"f",
}


def data_row_encoder(names: Sequence[str]
                     ) -> Callable[[Mapping[str, Any]], bytes]:
    """The DataRow encoder of one result shape, chosen once (when a
    statement is parsed): ``encode(features)`` is the whole frame of
    ``features[name]`` for each of ``names`` in order, as
    :func:`data_row` of :func:`encode_text` of each would build it —
    in one pass, the field count and the frame head computed once."""
    names = tuple(names)
    head = struct.pack(">h", len(names))
    encoders = _TEXT_ENCODERS

    def encode(features: Mapping[str, Any]) -> bytes:
        parts = [head]
        for name in names:
            value = features.get(name)
            if value is None:
                parts.append(_NULL_FIELD)
            else:
                text = encoders.get(type(value), encode_text)(value)
                parts.append(_PACK_INT32(len(text)))
                parts.append(text)
        body = b"".join(parts)
        return b"D" + _PACK_INT32(len(body) + 4) + body
    return encode


def error_response(sqlstate: str, message: str, *,
                   severity: str = "ERROR",
                   detail: Optional[str] = None) -> bytes:
    fields = [b"S" + _cstr(severity), b"V" + _cstr(severity),
              b"C" + _cstr(sqlstate), b"M" + _cstr(message)]
    if detail:
        fields.append(b"D" + _cstr(detail))
    return _frame(b"E", b"".join(fields) + b"\x00")


# ---- frontend (client → server) ----

def startup_message(user: str, database: str, **params: str) -> bytes:
    body = struct.pack(">i", PROTOCOL_VERSION_3)
    pairs = {"user": user, "database": database, **params}
    for key, value in pairs.items():
        body += _cstr(key) + _cstr(value)
    body += b"\x00"
    return struct.pack(">i", len(body) + 4) + body


def simple_query(sql: str) -> bytes:
    return _frame(b"Q", _cstr(sql))


def parse_message(statement: str, sql: str,
                  param_oids: Sequence[int] = ()) -> bytes:
    payload = _cstr(statement) + _cstr(sql) \
        + struct.pack(">h", len(param_oids))
    for oid in param_oids:
        payload += struct.pack(">i", oid)
    return _frame(b"P", payload)


def bind_message(portal: str, statement: str,
                 params: Sequence[Optional[bytes]],
                 param_formats: Sequence[int] = (),
                 result_formats: Sequence[int] = (0,)) -> bytes:
    payload = _cstr(portal) + _cstr(statement)
    payload += struct.pack(">h", len(param_formats))
    for fmt in param_formats:
        payload += struct.pack(">h", fmt)
    payload += struct.pack(">h", len(params))
    for value in params:
        if value is None:
            payload += struct.pack(">i", -1)
        else:
            payload += struct.pack(">i", len(value)) + value
    payload += struct.pack(">h", len(result_formats))
    for fmt in result_formats:
        payload += struct.pack(">h", fmt)
    return _frame(b"B", payload)


def describe_message(kind: str, name: str) -> bytes:
    return _frame(b"D", kind.encode("ascii") + _cstr(name))


def execute_message(portal: str, max_rows: int = 0) -> bytes:
    return _frame(b"E", _cstr(portal) + struct.pack(">i", max_rows))


def close_message(kind: str, name: str) -> bytes:
    return _frame(b"C", kind.encode("ascii") + _cstr(name))


def sync_message() -> bytes:
    return _frame(b"S", b"")


def terminate_message() -> bytes:
    return _frame(b"X", b"")


# ----------------------------------------------------------------------
# client→server payload parsers (used by the server)

def parse_parse(payload: bytes) -> Tuple[str, str, List[int]]:
    buf = Buffer(payload)
    statement = buf.read_cstr()
    sql = buf.read_cstr()
    oids = [buf.read_int32() for _ in range(buf.read_int16())]
    return statement, sql, oids


_INT16 = struct.Struct(">h").unpack_from
_INT32 = struct.Struct(">i").unpack_from


def _cstr_at(data: bytes, start: int) -> Tuple[str, int]:
    """The NUL-terminated UTF-8 string at ``start``, and the offset past
    its terminator."""
    end = data.find(b"\x00", start)
    if end < 0:
        raise ProtocolError("unterminated string in message")
    try:
        return data[start:end].decode("utf-8"), end + 1
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"string in message is not UTF-8: {exc}"
                            ) from None


def parse_bind(payload: bytes,
               decoders: Optional[Callable[[str], Optional[ParamDecoders]]]
               = None) -> Tuple[str, str, Sequence[int], List[Any],
                                Sequence[int]]:
    """Read one Bind payload front to back, once:
    ``(portal, statement, param_formats, params, result_formats)``.

    ``decoders(statement)`` is asked once the statement name is read.
    When it returns a :class:`ParamDecoders` for as many parameters as
    the frame carries, each parameter is decoded as it is read, under
    :meth:`ParamDecoders.pick`'s format rule; otherwise ``params`` holds
    the raw bytes.  A NULL (length -1) is None either way.

    A frame cut short raises :class:`~repro.errors.ProtocolError`
    (08P01) wherever the cut is.  Only once the whole frame is read does
    the first parameter that failed raise: a
    :class:`~repro.errors.TypeMismatchError` (22P02) for a value that
    does not decode, a ``ProtocolError`` for one past a short format
    list.
    """
    portal, position = _cstr_at(payload, 0)
    statement, position = _cstr_at(payload, position)
    chosen = decoders(statement) if decoders is not None else None
    params: List[Any] = []
    append = params.append
    failure: Optional[Exception] = None
    try:
        (count,) = _INT16(payload, position)
        position += 2
        formats = struct.unpack_from(f">{count}h", payload, position) \
            if count > 0 else ()
        position += 2 * len(formats)
        (count,) = _INT16(payload, position)
        position += 2
        picked = chosen.pick(formats) \
            if chosen is not None and count == len(chosen.types) else None
        size = len(payload)
        for index in range(count):
            (length,) = _INT32(payload, position)
            position += 4
            if length < 0:
                raw = None
            else:
                end = position + length
                if end > size:
                    raise struct.error(f"parameter {index + 1} runs "
                                       "past the end of the frame")
                raw = payload[position:end]
                position = end
            if picked is None:
                append(raw)
            elif failure is None:
                decode = picked[index]
                if decode is None:
                    failure = ProtocolError(
                        "parameter format count mismatch")
                elif raw is None:
                    append(None)
                else:
                    try:
                        append(decode(raw))
                    except _DECODE_ERRORS as exc:
                        failure = _undecodable(raw, chosen.types[index],
                                               exc)
        (count,) = _INT16(payload, position)
        result_formats = struct.unpack_from(f">{count}h", payload,
                                            position + 2) \
            if count > 0 else ()
    except struct.error as exc:
        raise ProtocolError(f"truncated Bind message: {exc}") from None
    if failure is not None:
        raise failure
    return portal, statement, formats, params, result_formats


def parse_describe(payload: bytes) -> Tuple[str, str]:
    buf = Buffer(payload)
    kind = chr(buf.read_byte())
    return kind, buf.read_cstr()


def parse_execute(payload: bytes) -> Tuple[str, int]:
    portal, position = _cstr_at(payload, 0)
    if len(payload) - position < 4:
        raise ProtocolError(f"truncated message: wanted 4 bytes, "
                            f"have {len(payload) - position}")
    return portal, _INT32(payload, position)[0]


def parse_close(payload: bytes) -> Tuple[str, str]:
    return parse_describe(payload)


def parse_simple_query(payload: bytes) -> str:
    return Buffer(payload).read_cstr()
