"""The PostgreSQL-wire server for online feature serving.

:class:`NetServer` listens on a TCP port, speaks the PostgreSQL v3
protocol (simple *and* extended query cycles — see
:mod:`repro.netserve.protocol`), and executes ``EXECUTE <deployment>``
statements through a :class:`~repro.serving.FrontendServer` (handed
in, or built in front of a :class:`~repro.cluster.NameServer` or
:class:`~repro.OpenMLDB`), so the socket layer always composes with
admission control, micro-batching, and load shedding.

Design notes
------------

* **One thread per connection.**  ``start()`` binds a blocking socket
  and starts a ``netserve-accept`` thread; each admitted connection
  gets a ``netserve-conn-<n>`` thread that answers its frames in
  arrival order (the protocol requires it).  ``max_connections``
  bounds the ones still alive: one over the cap is refused on the
  accept thread, which gives its startup 0.5 s in all.
* **No thread hop of its own per read.**  ``Execute`` calls the
  frontend's ``request`` on the connection thread, which combines its
  deployment's batch itself or waits on the ticket another connection
  thread's batch completes; admission (``max_queue`` /
  ``max_inflight``) is the read path's only concurrency limit.  A control statement runs inline on its own connection's
  thread: a WAL fsync stalls that connection only.
* **Backpressure is two-layered.**  Socket-level: a reply is one
  blocking ``sendall``, so a slow reader stalls its own connection
  thread without affecting others.  Server-level: the frontend's
  admission control sheds with :class:`~repro.errors.OverloadError`,
  which crosses the wire as SQLSTATE 53300/53400 — clients see a
  retryable "insufficient resources" error instead of a hung socket.
* **Deadlines ride ``statement_timeout``.**  It becomes the frontend
  request's ``timeout_ms``, the one :class:`~repro.serving.Deadline`
  that bounds queueing, execution and the connection's wait.  Expiry
  surfaces as SQLSTATE 57014 (query_canceled), as psql users expect.

Protocol reference and flow diagrams: ``docs/network_protocol.md``.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (DeploymentNotFoundError, OpenMLDBError, ParseError,
                      ProtocolError)
from ..obs import NULL_OBS, Observability
from ..serving.describe import DeploymentDescriptor
from ..serving.frontend import FrontendServer
from . import protocol as wire
from .statements import (ControlStatement, EmptyStatement,
                         ExecuteDeployment, Param, SelectConstant,
                         SetOption, ShowOption, TransactionNoop, classify,
                         parse_timeout_ms, split_statements)

__all__ = ["NetServer"]

#: ParameterStatus pairs sent after authentication.  psycopg refuses to
#: finish connecting without ``server_version`` / ``client_encoding``;
#: ``integer_datetimes`` matters if a client ever binds binary values.
_SERVER_PARAMETERS = (
    ("server_version", "15.0 (repro-openmldb)"),
    ("server_encoding", "UTF8"),
    ("client_encoding", "UTF8"),
    ("DateStyle", "ISO, YMD"),
    ("integer_datetimes", "on"),
    ("standard_conforming_strings", "on"),
    ("is_superuser", "off"),
)

#: Seconds an over-the-cap connection gets, in all, to finish its
#: startup before the accept thread drops it.
_REFUSE_BUDGET_S = 0.5

#: The frames every read sends unchanged, built once.
_BIND_COMPLETE = wire.bind_complete()
_READY_FOR_QUERY = wire.ready_for_query()
_SELECT_1 = wire.command_complete("SELECT 1")

_FRAME_LENGTH = struct.Struct(">i").unpack_from


class _WireError(Exception):
    """An error born at the protocol layer with an explicit SQLSTATE."""

    def __init__(self, sqlstate: str, message: str) -> None:
        super().__init__(message)
        self.sqlstate = sqlstate


class _Prepared:
    """A parsed statement: classification + (for EXECUTE) its binding.

    ``param_types`` maps ``$n`` index → the request column's
    :class:`~repro.types.ColumnType`, resolved from the deployment's
    input schema at Parse time, and ``decoders`` holds their text and
    binary decoders (None for a statement that is not an EXECUTE) — so
    Bind decodes wire bytes as it reads them and Describe can answer
    ParameterDescription without touching the backend again.  Its
    reply is chosen at Parse too: ``encode_row`` turns the features an
    EXECUTE returns into the whole DataRow frame.
    """

    __slots__ = ("name", "statement", "descriptor", "param_types",
                 "param_oids", "decoders", "encode_row", "_literals",
                 "_slots")

    def __init__(self, name: str, statement: Any,
                 descriptor: Optional[DeploymentDescriptor],
                 param_types: Sequence[Any]) -> None:
        self.name = name
        self.statement = statement
        self.descriptor = descriptor
        self.param_types = tuple(param_types)
        self.param_oids = tuple(
            wire.TYPE_OIDS[column_type] for column_type in param_types)
        self.decoders: Optional[wire.ParamDecoders] = None
        self.encode_row = None if descriptor is None \
            else wire.data_row_encoder(descriptor.output_names)
        if isinstance(statement, ExecuteDeployment):
            self.decoders = wire.ParamDecoders.of(param_types)
            # The request row, as positions into the bound values
            # followed by the statement's literal arguments.
            self._literals = tuple(arg for arg in statement.args
                                   if not isinstance(arg, Param))
            literal = itertools.count(len(param_types))
            self._slots = tuple(arg.index if isinstance(arg, Param)
                                else next(literal)
                                for arg in statement.args)

    def bound(self, values: List[Any]) -> Optional[Tuple[Any, ...]]:
        """The request row for one Bind's decoded ``values`` (None for a
        statement that is not an EXECUTE)."""
        if self.decoders is None:
            if values:
                raise _WireError(
                    "42P02", "statement takes no parameters")
            return None
        if len(values) != len(self.param_types):
            raise _WireError(
                "08P01", f"bind supplies {len(values)} parameters, "
                f"statement wants {len(self.param_types)}")
        values.extend(self._literals)
        return tuple(map(values.__getitem__, self._slots))

    def result_columns(self) -> Optional[List[Tuple[str, int]]]:
        """RowDescription columns, or None when the form returns no rows.

        Feature outputs are described as ``text`` (OID 25): the engine
        knows output *names* statically but not output types, and every
        value crosses the wire in text format anyway.
        """
        statement = self.statement
        if isinstance(statement, ExecuteDeployment):
            assert self.descriptor is not None
            return [(name, wire.TEXT_OID)
                    for name in self.descriptor.output_names]
        if isinstance(statement, SelectConstant):
            return [("?column?", 23)]  # int4
        if isinstance(statement, ShowOption):
            return [(statement.name, wire.TEXT_OID)]
        return None


class _DeadlineReader:
    """A socket's ``read`` under one deadline for the whole exchange, so
    a peer that trickles bytes or repeats requests cannot hold the
    accept thread past it."""

    def __init__(self, sock: socket.socket, seconds: float) -> None:
        self._sock = sock
        self._deadline = time.monotonic() + seconds

    def read(self, count: int) -> bytes:
        data = b""
        while len(data) < count:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("startup ran past its deadline")
            self._sock.settimeout(remaining)
            chunk = self._sock.recv(count - len(data))
            if not chunk:
                break
            data += chunk
        return data


class _Portal:
    """A bound statement: the prepared form plus its materialised row."""

    __slots__ = ("prepared", "row")

    def __init__(self, prepared: _Prepared,
                 row: Optional[Tuple[Any, ...]]) -> None:
        self.prepared = prepared
        self.row = row


class _Session:
    """Per-connection state: prepared statements, portals, settings."""

    __slots__ = ("statements", "portals", "settings", "timeout_ms",
                 "in_error", "binding")

    def __init__(self, startup: Dict[str, str]) -> None:
        self.statements: Dict[str, _Prepared] = {}
        self.portals: Dict[str, _Portal] = {}
        self.settings: Dict[str, str] = dict(startup)
        self.timeout_ms: Optional[float] = None  # SET statement_timeout
        self.in_error = False  # extended protocol: skip until Sync
        #: The prepared statement the Bind being read names.
        self.binding: Optional[_Prepared] = None

    def decoders(self, name: str) -> Optional[wire.ParamDecoders]:
        """The parameter decoders of prepared statement ``name``, which
        becomes ``binding``: a Bind looks its statement up once."""
        prepared = self.binding = self.statements.get(name)
        return None if prepared is None else prepared.decoders


class NetServer:
    """A PostgreSQL-wire frontend over a request backend, one thread per
    connection.

    Args:
        backend: a :class:`~repro.serving.FrontendServer`, or a
            backend for one (:class:`~repro.cluster.NameServer`,
            :class:`~repro.OpenMLDB`), which the server then fronts
            with a default frontend on ``obs`` and closes in
            :meth:`close`.
        host / port: bind address; port 0 picks a free port (see the
            ``address`` property after :meth:`start`).
        obs: observability handle for ``netserve.*`` metrics and
            ``net.request`` spans.
        admin: optional control-plane backend with ``execute(sql)``
            (usually an :class:`~repro.OpenMLDB`).  When present,
            ``CREATE TABLE`` / ``INSERT`` / ``DEPLOY`` statements are
            forwarded to it (an ``INSERT`` returns its row count, the
            ``INSERT 0 <n>`` tag); when absent they are refused with
            SQLSTATE 42501.
        max_frame_bytes: refuse frames larger than this (08P01) and
            close the connection; bounds per-connection memory.
        max_connections: concurrent-connection cap, and so the cap on
            connection threads alive; excess connections are told 53300
            at startup, on the accept thread, and closed.

    A session starts with no ``statement_timeout``; a client sets one
    with ``SET statement_timeout``.
    """

    def __init__(self, backend: Any, *,
                 host: str = "127.0.0.1", port: int = 0,
                 obs: Optional[Observability] = None,
                 admin: Any = None,
                 max_frame_bytes: int = 1 << 20,
                 max_connections: int = 64) -> None:
        self._admin = admin
        self._host = host
        self._port = port
        self._obs = obs or NULL_OBS
        self._max_frame_bytes = max_frame_bytes
        self._max_connections = max_connections
        self._owns_frontend = not isinstance(backend, FrontendServer)
        self._frontend: FrontendServer = (
            FrontendServer(backend, self._obs) if self._owns_frontend
            else backend)

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = False
        # Guards ``_closed`` and the sockets of open connections, the
        # connection threads not yet joined (each counts against the
        # cap), those past their last frame, and those inside a request.
        self._lock = threading.Lock()
        self._sockets: Set[socket.socket] = set()
        self._threads: Set[threading.Thread] = set()
        self._finished: Set[threading.Thread] = set()
        self._waiting: Set[threading.Thread] = set()
        self._key_seq = itertools.count(1)
        # Frames answered in an extended-protocol pipeline; Sync, Flush
        # and a simple Query are answered in _dispatch itself.
        self._handlers = {b"B": self._on_bind, b"E": self._on_execute,
                          b"P": self._on_parse, b"D": self._on_describe,
                          b"C": self._on_close}

        registry = self._obs.registry
        self._g_connections = registry.gauge("netserve.connections")
        self._m_connections = registry.counter("netserve.connections.total")
        self._m_refused = registry.counter("netserve.connections.refused")
        self._m_bytes_in = registry.counter("netserve.bytes.in")
        self._m_bytes_out = registry.counter("netserve.bytes.out")
        self._h_request = registry.histogram("netserve.request.ms")
        self._statement_counters: Dict[str, Any] = {}
        self._error_counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the listening ``(host, port)``."""
        with self._lock:
            if self._listener is not None or self._closed:
                raise OpenMLDBError("NetServer already started")
            family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
            try:
                self._listener = socket.create_server(
                    (self._host, self._port), family=family, backlog=100)
            except OSError as error:
                raise OpenMLDBError(f"NetServer failed to bind "
                                    f"{self._host}:{self._port}: {error}"
                                    ) from None
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="netserve-accept",
                daemon=True)
            self._accept_thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        if self._listener is None:
            raise OpenMLDBError("NetServer is not listening")
        return self._listener.getsockname()[:2]

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving, join the threads, close an owned frontend.

        Idempotent.  Connections are shut down, not drained: clients
        treat EOF as disconnect.  A thread inside a request is not
        joined; it exits when its ticket resolves, and the ticket
        (maybe a single-flight leader's) is never cancelled.  A
        frontend the caller handed in stays open.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for sock in self._sockets:
                with contextlib.suppress(OSError):  # the peer may be gone
                    sock.shutdown(socket.SHUT_RDWR)
            idle = self._threads - self._waiting
        if self._listener is not None:
            with contextlib.suppress(OSError):  # wakes the accept()
                self._listener.shutdown(socket.SHUT_RDWR)
            self._listener.close()
            self._accept_thread.join(timeout=timeout)
        for thread in idle:
            thread.join(timeout=timeout)
        if self._owns_frontend:
            self._frontend.close(timeout=timeout)

    def __enter__(self) -> "NetServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # connection handling

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                if self._closed:
                    return  # close() shut the listener down
                time.sleep(0.01)  # out of descriptors, say: retry shortly
                continue
            with self._lock:
                # A finished thread is past its last use of the lock, so
                # joining it here is prompt; the cap then bounds the
                # threads still alive.
                for thread in self._finished:
                    thread.join()
                self._threads -= self._finished
                self._finished.clear()
                if self._closed:
                    sock.close()
                    return
                self._sockets.add(sock)
                admitted = len(self._threads) < self._max_connections
                if admitted:
                    thread = threading.Thread(
                        target=self._serve_connection, args=(sock,),
                        name=f"netserve-conn-{sock.fileno()}",
                        daemon=True)
                    self._threads.add(thread)
                    self._g_connections.set(len(self._threads))
            self._m_connections.inc()
            if admitted:
                thread.start()
            else:
                self._m_refused.inc()
                self._refuse(sock)

    def _serve_connection(self, sock: socket.socket) -> None:
        reader = sock.makefile("rb")
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._handle(sock, reader)
        except OSError:
            pass  # peer went away mid-message, or close() shut us down
        finally:
            self._release(sock, reader)
            with self._lock:
                self._finished.add(threading.current_thread())
                self._g_connections.set(
                    len(self._threads) - len(self._finished))

    def _refuse(self, sock: socket.socket) -> None:
        """Over the cap: finish startup, then shed politely — on the
        accept thread, within one short deadline, so it costs no
        thread and cannot stall the next accept."""
        reader = _DeadlineReader(sock, _REFUSE_BUDGET_S)
        try:
            if self._startup(sock, reader, announce=False) is not None:
                self._send(sock, wire.error_response(
                    "53300", f"too many connections "
                    f"(max_connections={self._max_connections})",
                    severity="FATAL"))
        except OSError:
            pass  # silent, slow or gone: drop it
        finally:
            self._release(sock)

    def _release(self, sock: socket.socket, reader: Any = None) -> None:
        # Out of the set first: close() must not shut a reused fd.
        with self._lock:
            self._sockets.discard(sock)
        if reader is not None:
            reader.close()
        sock.close()

    def _read(self, reader: Any, count: int) -> bytes:
        data = reader.read(count)
        if len(data) < count:
            raise ConnectionError("peer closed the connection")
        return data

    def _startup(self, sock: socket.socket, reader: Any,
                 announce: bool = True) -> Optional[Dict[str, str]]:
        """Run the startup phase; returns startup params, None to drop."""
        while True:
            (length,) = struct.unpack(">i", self._read(reader, 4))
            if length < 8 or length > self._max_frame_bytes:
                self._send(sock, wire.error_response(
                    "08P01", f"invalid startup packet length {length}",
                    severity="FATAL"))
                return None
            payload = self._read(reader, length - 4)
            self._m_bytes_in.inc(length)
            (code,) = struct.unpack(">i", payload[:4])
            if code in (wire.SSL_REQUEST_CODE, wire.GSSENC_REQUEST_CODE):
                self._send(sock, b"N")  # no TLS/GSS: retry in clear
                continue
            if code == wire.CANCEL_REQUEST_CODE:
                return None  # cancellation is best-effort: ignore
            if code != wire.PROTOCOL_VERSION_3:
                self._send(sock, wire.error_response(
                    "08P01", f"unsupported protocol code {code}",
                    severity="FATAL"))
                return None
            break
        buf = wire.Buffer(payload[4:])
        params: Dict[str, str] = {}
        try:
            while buf.remaining > 1:
                key = buf.read_cstr()
                if not key:
                    break
                params[key] = buf.read_cstr()
        except ProtocolError as exc:
            self._send(sock, wire.error_response(
                "08P01", str(exc), severity="FATAL"))
            return None
        if announce:
            out = [wire.authentication_ok()]
            out.extend(wire.parameter_status(key, value)
                       for key, value in _SERVER_PARAMETERS)
            key_id = next(self._key_seq)
            out.append(wire.backend_key_data(key_id, key_id * 7919))
            out.append(_READY_FOR_QUERY)
            self._send(sock, b"".join(out))
        return params

    def _handle(self, sock: socket.socket, reader: Any) -> None:
        startup = self._startup(sock, reader)
        if startup is None:
            return
        session = _Session(startup)
        while True:
            header = self._read(reader, 5)
            type_byte = header[:1]
            (length,) = _FRAME_LENGTH(header, 1)
            if length < 4 or length > self._max_frame_bytes:
                self._count_error("08P01")
                self._send(sock, wire.error_response(
                    "08P01", f"frame of {length} bytes exceeds "
                    f"max_frame_bytes={self._max_frame_bytes}",
                    severity="FATAL"))
                return
            payload = self._read(reader, length - 4)
            self._m_bytes_in.inc(length + 1)
            if type_byte == b"X":      # Terminate
                return
            if not self._dispatch(sock, session, type_byte, payload):
                return

    def _dispatch(self, sock: socket.socket,
                  session: _Session, type_byte: bytes,
                  payload: bytes) -> bool:
        """Handle one typed frame; False closes the connection."""
        handler = self._handlers.get(type_byte)
        if handler is not None:
            if session.in_error:
                # Skip-until-Sync: a failed step poisons the rest of
                # the pipeline; queued messages are discarded, not
                # executed.
                return True
            try:
                handler(sock, session, payload)
            except Exception as exc:
                session.in_error = True
                self._send_error(sock, exc)
            return True
        if type_byte == b"S":          # Sync: recover from error state
            session.in_error = False
            self._send(sock, _READY_FOR_QUERY)
            return True
        if type_byte == b"Q":
            self._on_simple_query(sock, session, payload)
            return True
        if type_byte == b"H" or session.in_error:
            # Flush: every reply is sent already.  Anything else in a
            # failed pipeline is skipped until Sync.
            return True
        self._count_error("08P01")
        self._send(sock, wire.error_response(
            "08P01", f"unexpected message type "
            f"{type_byte.decode('latin-1')!r}", severity="FATAL"))
        return False

    # ------------------------------------------------------------------
    # simple query protocol

    def _on_simple_query(self, sock: socket.socket, session: _Session,
                         payload: bytes) -> None:
        session.in_error = False  # a simple Query implicitly resyncs
        try:
            sql = wire.parse_simple_query(payload)
            for statement_sql in split_statements(sql):
                self._run_simple(sock, session, classify(statement_sql))
        except Exception as exc:
            # The remaining statements in this Q are abandoned.
            self._send_error(sock, exc)
        self._send(sock, _READY_FOR_QUERY)

    def _run_simple(self, sock: socket.socket,
                    session: _Session, statement: Any) -> None:
        self._count_statement("simple")
        if isinstance(statement, EmptyStatement):
            self._send(sock, wire.empty_query_response())
            return
        if isinstance(statement, ExecuteDeployment):
            prepared = self._prepare(session, "", statement)
            if prepared.param_types:
                raise ParseError("simple-protocol EXECUTE cannot carry "
                                 "$n placeholders; use the extended "
                                 "protocol (Parse/Bind/Execute)")
            portal = _Portal(prepared, prepared.bound([]))
            self._send(sock, wire.row_description(prepared.result_columns())
                       + self._execute_portal(session, portal, "simple")
                       + _SELECT_1)
            return
        self._run_utility(sock, session, statement,
                                describe_rows=True)

    def _run_utility(self, sock: socket.socket,
                     session: _Session, statement: Any, *,
                     describe_rows: bool) -> None:
        """Execute the non-deployment forms (shared by both protocols)."""
        if isinstance(statement, TransactionNoop):
            self._send(sock,
                             wire.command_complete(statement.tag))
        elif isinstance(statement, SetOption):
            if statement.name == "statement_timeout":
                session.timeout_ms = parse_timeout_ms(statement.value)
            session.settings[statement.name] = statement.value
            self._send(sock, wire.command_complete("SET"))
        elif isinstance(statement, ShowOption):
            value = self._show(session, statement.name)
            out = []
            if describe_rows:
                out.append(wire.row_description(
                    [(statement.name, wire.TEXT_OID)]))
            out.append(wire.data_row([value.encode("utf-8")]))
            out.append(wire.command_complete("SHOW"))
            self._send(sock, b"".join(out))
        elif isinstance(statement, SelectConstant):
            out = []
            if describe_rows:
                out.append(wire.row_description([("?column?", 23)]))
            out.append(wire.data_row(
                [str(statement.value).encode("ascii")]))
            out.append(_SELECT_1)
            self._send(sock, b"".join(out))
        elif isinstance(statement, ControlStatement):
            tag = self._run_control(statement)
            self._send(sock, wire.command_complete(tag))
        else:
            raise ProtocolError(
                f"unhandled statement form {type(statement).__name__}")

    def _show(self, session: _Session, name: str) -> str:
        if name == "statement_timeout":
            timeout = session.timeout_ms
            return "0" if timeout is None else f"{timeout:g}ms"
        for key, value in _SERVER_PARAMETERS:
            if key.lower() == name:
                return value
        if name in session.settings:
            return session.settings[name]
        raise _WireError("42704",
                         f"unrecognized configuration parameter {name!r}")

    def _run_control(self, statement: ControlStatement) -> str:
        if self._admin is None:
            raise _WireError(
                "42501", f"{statement.kind} is not allowed on this "
                "endpoint (server started without an admin backend)")
        # A put can fsync the WAL: that stalls this connection only.
        result = self._admin.execute(statement.sql)
        if statement.kind == "INSERT":
            # The backend returns the rows written (a multi-row VALUES
            # list writes several).
            return f"INSERT 0 {result}"
        return statement.kind

    # ------------------------------------------------------------------
    # extended query protocol

    def _on_parse(self, sock: socket.socket,
                  session: _Session, payload: bytes) -> None:
        name, sql, _oids = wire.parse_parse(payload)
        statement = classify(sql)
        session.statements[name] = self._prepare(session, name, statement)
        self._send(sock, wire.parse_complete())

    def _prepare(self, session: _Session, name: str,
                 statement: Any) -> _Prepared:
        if not isinstance(statement, ExecuteDeployment):
            return _Prepared(name, statement, None, ())
        try:
            descriptor = self._frontend.describe_deployment(
                statement.deployment)
        except DeploymentNotFoundError as exc:
            raise _WireError(
                "26000", f"unknown deployment "
                f"{statement.deployment!r}: {exc}") from None
        args = statement.args
        if args is None:
            # `EXECUTE name` with no argument list: every request
            # column is a placeholder, in schema order.
            args = tuple(Param(index)
                         for index in range(descriptor.arity))
            statement = ExecuteDeployment(statement.deployment, args)
        if len(args) != descriptor.arity:
            raise _WireError(
                "42P08", f"deployment {statement.deployment!r} takes "
                f"{descriptor.arity} request values, statement "
                f"supplies {len(args)}")
        columns = list(descriptor.input_schema)
        param_types: Dict[int, Any] = {}
        for position, arg in enumerate(args):
            if isinstance(arg, Param):
                param_types[arg.index] = columns[position].type
        if param_types:
            count = max(param_types) + 1
            missing = [f"${index + 1}" for index in range(count)
                       if index not in param_types]
            if missing:
                raise _WireError(
                    "42P02", "parameter(s) "
                    f"{', '.join(missing)} are never used")
            ordered = [param_types[index] for index in range(count)]
        else:
            ordered = []
        return _Prepared(name, statement, descriptor, ordered)

    def _on_bind(self, sock: socket.socket,
                 session: _Session, payload: bytes) -> None:
        portal_name, statement_name, _formats, values, _results = \
            wire.parse_bind(payload, session.decoders)
        prepared = session.binding
        if prepared is None:
            raise _WireError(
                "26000",
                f"unknown prepared statement {statement_name!r}")
        session.portals[portal_name] = _Portal(prepared,
                                               prepared.bound(values))
        self._send(sock, _BIND_COMPLETE)

    def _on_describe(self, sock: socket.socket,
                     session: _Session, payload: bytes) -> None:
        kind, name = wire.parse_describe(payload)
        if kind == "S":
            prepared = session.statements.get(name)
            if prepared is None:
                raise _WireError(
                    "26000", f"unknown prepared statement {name!r}")
            out = [wire.parameter_description(prepared.param_oids)]
        elif kind == "P":
            portal = session.portals.get(name)
            if portal is None:
                raise _WireError("34000", f"unknown portal {name!r}")
            prepared = portal.prepared
            out = []
        else:
            raise ProtocolError(f"invalid describe kind {kind!r}")
        columns = prepared.result_columns()
        out.append(wire.row_description(columns)
                   if columns is not None else wire.no_data())
        self._send(sock, b"".join(out))

    def _on_execute(self, sock: socket.socket,
                    session: _Session, payload: bytes) -> None:
        portal_name, _max_rows = wire.parse_execute(payload)
        portal = session.portals.get(portal_name)
        if portal is None:
            raise _WireError("34000",
                             f"unknown portal {portal_name!r}")
        self._count_statement("extended")
        statement = portal.prepared.statement
        if isinstance(statement, EmptyStatement):
            self._send(sock, wire.empty_query_response())
            return
        if isinstance(statement, ExecuteDeployment):
            self._send(sock, self._execute_portal(session, portal,
                                                  "extended") + _SELECT_1)
            return
        # Utility forms: Describe already sent RowDescription (or
        # NoData), so only rows + completion go out here.
        self._run_utility(sock, session, statement,
                                describe_rows=False)

    def _on_close(self, sock: socket.socket,
                  session: _Session, payload: bytes) -> None:
        kind, name = wire.parse_close(payload)
        if kind == "S":
            session.statements.pop(name, None)
        elif kind == "P":
            session.portals.pop(name, None)
        else:
            raise ProtocolError(f"invalid close kind {kind!r}")
        self._send(sock, wire.close_complete())

    # ------------------------------------------------------------------
    # execution

    def _execute_portal(self, session: _Session, portal: _Portal,
                        protocol: str) -> bytes:
        """Run one deployment request through the frontend; its DataRow.

        The session's startup ``user`` is the tenant.  The wait inside
        ``request`` never cancels the ticket, which single-flight
        riders on other connections may share.  The thread is marked
        as waiting before it checks ``_closed`` — set operations under
        the GIL, no lock — so :meth:`close`, which sets ``_closed``
        before it reads the set, either sees the mark or is seen.
        """
        prepared = portal.prepared
        statement = prepared.statement
        me = threading.current_thread()
        waiting = self._waiting
        waiting.add(me)  # close() does not wait for this one
        try:
            if self._closed:
                raise ConnectionError("server is closing")
            started = time.monotonic()
            try:
                with self._obs.tracer.span(
                        "net.request", deployment=statement.deployment,
                        protocol=protocol):
                    features = self._frontend.request(
                        statement.deployment, portal.row,
                        timeout_ms=session.timeout_ms,
                        tenant=session.settings.get("user", ""))
            finally:
                self._h_request.observe(
                    (time.monotonic() - started) * 1_000.0)
        finally:
            waiting.discard(me)
        return prepared.encode_row(features)

    # ------------------------------------------------------------------
    # plumbing

    def _send(self, sock: socket.socket, data: bytes) -> None:
        sock.sendall(data)  # a slow reader stalls this thread alone
        self._m_bytes_out.inc(len(data))

    def _send_error(self, sock: socket.socket,
                    error: BaseException) -> None:
        if isinstance(error, _WireError):
            sqlstate = error.sqlstate
            message = str(error)
        elif isinstance(error, OpenMLDBError):
            sqlstate = wire.sqlstate_for(error)
            message = str(error)
        else:
            sqlstate = "XX000"
            message = f"{type(error).__name__}: {error}"
        self._count_error(sqlstate)
        self._send(sock, wire.error_response(sqlstate, message))

    def _count_statement(self, protocol: str) -> None:
        counter = self._statement_counters.get(protocol)
        if counter is None:
            counter = self._obs.registry.counter(
                "netserve.statements", protocol=protocol)
            self._statement_counters[protocol] = counter
        counter.inc()

    def _count_error(self, sqlstate: str) -> None:
        counter = self._error_counters.get(sqlstate)
        if counter is None:
            counter = self._obs.registry.counter(
                "netserve.errors", sqlstate=sqlstate)
            self._error_counters[sqlstate] = counter
        counter.inc()

