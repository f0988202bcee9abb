"""The load generator's own PostgreSQL-wire v3 client.

Deliberately independent of ``repro.netserve.client``: a change there
cannot move the benchmark's numbers.  It speaks only what the workloads
need — startup, ``Parse`` once, ``Bind/Execute/Sync`` per read, simple
``Query`` per INSERT — and counts the bytes it sends and receives.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Optional, Sequence, Tuple

_INT32 = struct.Struct(">i")
_INT16 = struct.Struct(">h")
_SYNC = b"S" + _INT32.pack(4)
_EXECUTE = b"E" + _INT32.pack(9) + b"\x00" + _INT32.pack(0)


class ServerError(Exception):
    """An ErrorResponse: the op failed, the connection is still usable."""

    def __init__(self, sqlstate: str, message: str) -> None:
        super().__init__(f"[{sqlstate}] {message}")
        self.sqlstate = sqlstate


def _frame(type_byte: bytes, payload: bytes) -> bytes:
    return type_byte + _INT32.pack(len(payload) + 4) + payload


class Connection:
    """One blocking connection; every read has a timeout, never a hang."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.bytes_out = 0
        self.bytes_in = 0
        self._buffer = b""
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        body = (_INT32.pack(196608) + b"user\x00perfbench\x00"
                b"database\x00perfbench\x00\x00")
        self._send(_INT32.pack(len(body) + 4) + body)
        self._until_ready()

    def _send(self, data: bytes) -> None:
        self._sock.sendall(data)
        self.bytes_out += len(data)

    def _message(self) -> Tuple[bytes, bytes]:
        while True:
            buffer = self._buffer
            if len(buffer) >= 5:
                end = 1 + _INT32.unpack_from(buffer, 1)[0]
                if len(buffer) >= end:
                    self._buffer = buffer[end:]
                    return buffer[:1], buffer[5:end]
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.bytes_in += len(chunk)
            self._buffer += chunk

    def _until_ready(self) -> List[Optional[str]]:
        """Read through ReadyForQuery; returns the last DataRow's fields."""
        row: List[Optional[str]] = []
        error: Optional[ServerError] = None
        while True:
            kind, payload = self._message()
            if kind == b"D":
                row = _data_row(payload)
            elif kind == b"E":
                error = error or _error(payload)
            elif kind == b"Z":
                if error is not None:
                    raise error
                return row

    def prepare(self, name: str, sql: str) -> None:
        payload = (name.encode() + b"\x00" + sql.encode() + b"\x00"
                   + _INT16.pack(0))
        self._send(_frame(b"P", payload) + _SYNC)
        self._until_ready()
        # Bind = portal "" + statement + 0 formats + n params + 1 text
        # result format; only the parameter block changes per read.
        self._bind_head = b"\x00" + name.encode() + b"\x00" + _INT16.pack(0)
        self._bind_tail = _INT16.pack(1) + _INT16.pack(0)

    def execute(self, params: Sequence[int]) -> List[Optional[str]]:
        """One read: Bind/Execute/Sync on the prepared statement."""
        parts = [self._bind_head, _INT16.pack(len(params))]
        for value in params:
            text = b"%d" % value
            parts.append(_INT32.pack(len(text)))
            parts.append(text)
        parts.append(self._bind_tail)
        self._send(_frame(b"B", b"".join(parts)) + _EXECUTE + _SYNC)
        return self._until_ready()

    def query(self, sql: str) -> List[Optional[str]]:
        """One simple Query (the INSERT path)."""
        self._send(_frame(b"Q", sql.encode() + b"\x00"))
        return self._until_ready()

    def close(self) -> None:
        try:
            self._sock.sendall(_frame(b"X", b""))
        except OSError:
            pass
        self._sock.close()


def _data_row(payload: bytes) -> List[Optional[str]]:
    fields: List[Optional[str]] = []
    position = 2
    for _ in range(_INT16.unpack_from(payload, 0)[0]):
        length = _INT32.unpack_from(payload, position)[0]
        position += 4
        if length < 0:
            fields.append(None)
        else:
            fields.append(payload[position:position + length].decode())
            position += length
    return fields


def _error(payload: bytes) -> ServerError:
    fields = {}
    for part in payload.split(b"\x00"):
        if part:
            fields[part[:1]] = part[1:].decode("utf-8", "replace")
    return ServerError(fields.get(b"C", "XX000"), fields.get(b"M", ""))
