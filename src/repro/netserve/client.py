"""A minimal synchronous PostgreSQL-wire client.

The repo cannot assume ``psycopg`` is installed, so it bundles the
smallest client that exercises the whole server surface: startup,
simple query, prepared statements over the extended protocol, explicit
pipelining, and typed server errors.  Any real PostgreSQL driver
(psycopg, JDBC, node-postgres) speaks to :class:`~repro.netserve.NetServer`
the same way — this client exists so the tests, benchmarks, and doc
snippets run with zero dependencies.

All values travel in text format; rows come back as tuples of
``Optional[str]`` (``None`` = SQL NULL).  Interpreting the text is the
caller's job, exactly as with ``psycopg`` in text mode.
"""

from __future__ import annotations

import dataclasses
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import protocol as wire

__all__ = ["NetClient", "Result", "ServerError"]


class ServerError(Exception):
    """An ErrorResponse from the server, with its SQLSTATE attached."""

    def __init__(self, sqlstate: str, message: str,
                 severity: str = "ERROR") -> None:
        super().__init__(f"[{sqlstate}] {message}")
        self.sqlstate = sqlstate
        self.message = message
        self.severity = severity

    @property
    def retryable(self) -> bool:
        """Class 53 = insufficient resources: back off and retry."""
        return self.sqlstate.startswith("53")


@dataclasses.dataclass
class Result:
    """One statement's result set."""

    columns: Tuple[str, ...]
    rows: List[Tuple[Optional[str], ...]]
    command_tag: str

    def scalar(self) -> Optional[str]:
        """The single value of a 1×1 result (feature probes, SHOW)."""
        return self.rows[0][0]


def _parse_error(payload: bytes) -> ServerError:
    fields: Dict[str, str] = {}
    buf = wire.Buffer(payload)
    while buf.remaining > 1:
        code = chr(buf.read_byte())
        if code == "\x00":
            break
        fields[code] = buf.read_cstr()
    return ServerError(fields.get("C", "XX000"),
                       fields.get("M", "unknown error"),
                       fields.get("S", "ERROR"))


class NetClient:
    """A blocking connection to a :class:`~repro.netserve.NetServer`.

    Args:
        host / port: the server's listening address.
        user / database: startup parameters (the server trusts both).
        connect_timeout: socket timeout for connect *and* each read —
            a hung server surfaces as ``socket.timeout``, not a hang.

    Usage::

        with NetClient(host, port) as client:
            client.query("SET statement_timeout = '50ms'")
            client.prepare("s0", "EXECUTE fraud_features")
            result = client.execute("s0", [1001, 42.5, 1700000000000])
    """

    def __init__(self, host: str, port: int, *,
                 user: str = "repro", database: str = "repro",
                 connect_timeout: float = 10.0) -> None:
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout)
        self._buffer = b""
        self._parameters: Dict[str, str] = {}
        self._statements: Dict[str, Tuple[int, ...]] = {}
        self._closed = False
        try:
            self.send_raw(wire.startup_message(user, database))
            self._await_ready()
        except BaseException:
            self._sock.close()  # refused or cut off: give the fd back
            raise

    # ------------------------------------------------------------------
    # low-level I/O (also the test surface for hand-built pipelines)

    def send_raw(self, data: bytes) -> None:
        """Write raw protocol bytes (tests build malformed frames here)."""
        self._sock.sendall(data)

    def _recv_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out

    def read_message(self) -> Tuple[bytes, bytes]:
        """Read one backend message: ``(type_byte, payload)``."""
        header = self._recv_exact(5)
        (length,) = struct.unpack(">i", header[1:])
        return header[:1], self._recv_exact(length - 4)

    def collect_until_ready(self) -> List[Tuple[bytes, bytes]]:
        """Drain messages through the next ReadyForQuery (inclusive)."""
        messages = []
        while True:
            type_byte, payload = self.read_message()
            messages.append((type_byte, payload))
            if type_byte == b"Z":
                return messages

    def _await_ready(self) -> None:
        error: Optional[ServerError] = None
        while True:
            type_byte, payload = self.read_message()
            if type_byte == b"S":
                buf = wire.Buffer(payload)
                key = buf.read_cstr()
                self._parameters[key] = buf.read_cstr()
            elif type_byte == b"E":
                error = _parse_error(payload)
                if error.severity == "FATAL":
                    raise error
            elif type_byte == b"Z":
                if error is not None:
                    raise error
                return
            # R (auth ok), K (key data), N (notice): nothing to do

    @property
    def server_parameters(self) -> Dict[str, str]:
        """ParameterStatus values announced at startup."""
        return dict(self._parameters)

    # ------------------------------------------------------------------
    # simple query protocol

    def query(self, sql: str) -> List[Result]:
        """Run a simple Query message; one Result per statement."""
        self.send_raw(wire.simple_query(sql))
        results: List[Result] = []
        columns: Tuple[str, ...] = ()
        rows: List[Tuple[Optional[str], ...]] = []
        error: Optional[ServerError] = None
        while True:
            type_byte, payload = self.read_message()
            if type_byte == b"T":
                columns = _parse_row_description(payload)
                rows = []
            elif type_byte == b"D":
                rows.append(_parse_data_row(payload))
            elif type_byte == b"C":
                tag = wire.Buffer(payload).read_cstr()
                results.append(Result(columns, rows, tag))
                columns, rows = (), []
            elif type_byte == b"I":
                results.append(Result((), [], ""))
            elif type_byte == b"E":
                error = error or _parse_error(payload)
            elif type_byte == b"Z":
                if error is not None:
                    raise error
                return results

    # ------------------------------------------------------------------
    # extended query protocol

    def prepare(self, name: str, sql: str) -> Tuple[int, ...]:
        """Parse + Describe a statement; returns its parameter OIDs."""
        self.send_raw(wire.parse_message(name, sql)
                      + wire.describe_message("S", name)
                      + wire.sync_message())
        param_oids: Tuple[int, ...] = ()
        error: Optional[ServerError] = None
        while True:
            type_byte, payload = self.read_message()
            if type_byte == b"t":
                buf = wire.Buffer(payload)
                param_oids = tuple(buf.read_int32()
                                   for _ in range(buf.read_int16()))
            elif type_byte == b"E":
                error = error or _parse_error(payload)
            elif type_byte == b"Z":
                if error is not None:
                    raise error
                self._statements[name] = param_oids
                return param_oids
            # 1 (ParseComplete), T (row description), n (NoData)

    def execute(self, statement: str,
                params: Sequence[Any] = (), *,
                param_formats: Sequence[int] = ()) -> Result:
        """Bind + Execute a prepared statement; one full round trip.

        ``params`` are Python values sent in text format (the server
        coerces them against the deployment's schema); pass raw
        ``bytes`` values together with ``param_formats=[1]`` to send
        binary format instead.
        """
        encoded = [value if isinstance(value, (bytes, type(None)))
                   else wire.encode_text(value) for value in params]
        self.send_raw(wire.bind_message("", statement, encoded,
                                        param_formats=param_formats)
                      + wire.describe_message("P", "")
                      + wire.execute_message("")
                      + wire.sync_message())
        return self._read_execution()

    def _read_execution(self) -> Result:
        columns: Tuple[str, ...] = ()
        rows: List[Tuple[Optional[str], ...]] = []
        tag = ""
        error: Optional[ServerError] = None
        while True:
            type_byte, payload = self.read_message()
            if type_byte == b"T":
                columns = _parse_row_description(payload)
            elif type_byte == b"D":
                rows.append(_parse_data_row(payload))
            elif type_byte == b"C":
                tag = wire.Buffer(payload).read_cstr()
            elif type_byte == b"E":
                error = error or _parse_error(payload)
            elif type_byte == b"Z":
                if error is not None:
                    raise error
                return Result(columns, rows, tag)
            # 2 (BindComplete), n (NoData), I (EmptyQueryResponse)

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Send Terminate and close the socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(wire.terminate_message())
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _parse_row_description(payload: bytes) -> Tuple[str, ...]:
    buf = wire.Buffer(payload)
    names = []
    for _ in range(buf.read_int16()):
        names.append(buf.read_cstr())
        buf.read_bytes(18)  # table oid, attnum, type oid, len, mod, fmt
    return tuple(names)


def _parse_data_row(payload: bytes) -> Tuple[Optional[str], ...]:
    buf = wire.Buffer(payload)
    values: List[Optional[str]] = []
    for _ in range(buf.read_int16()):
        length = buf.read_int32()
        values.append(None if length < 0
                      else buf.read_bytes(length).decode("utf-8"))
    return tuple(values)
