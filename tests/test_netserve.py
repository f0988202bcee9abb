"""Network serving tests: wire protocol, server behaviour, edge cases.

Unit-level over the pure framing/classification modules, then
integration-level with a live :class:`~repro.netserve.NetServer` over
a real single-node OpenMLDB (happy paths, both query protocols) and
over deterministic stub backends (deadlines, shedding).  The edge-case
classes exercise what a conformant server must survive: mid-message
disconnects, oversized and malformed frames, pipelined batches with a
failing step (skip-until-Sync), and concurrent connections sharing one
deployment.
"""

import math
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NameServer, TabletServer
from repro.core import OpenMLDB
from repro.errors import (DeadlineExceededError, DeploymentNotFoundError,
                          OverloadError, ParseError, ProtocolError,
                          StorageError, TypeMismatchError)
from repro.netserve import (NetClient, NetServer, ServerError, classify,
                            parse_timeout_ms, split_statements,
                            sqlstate_for)
from repro.netserve import protocol as wire
from repro.netserve.statements import (ControlStatement, EmptyStatement,
                                       ExecuteDeployment, Param,
                                       SelectConstant, SetOption,
                                       ShowOption, TransactionNoop)
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import FrontendServer
from repro.serving.describe import DeploymentDescriptor
from repro.types import ColumnType
from tests.conftest import PerRowBatch

FEATURE_SQL = ("SELECT uid, sum(v) OVER w AS s FROM t "
               "WINDOW w AS (PARTITION BY uid ORDER BY ts "
               "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")


@pytest.fixture(scope="module")
def db():
    instance = OpenMLDB()
    instance.execute("CREATE TABLE t (uid int, ts timestamp, v double, "
                     "INDEX(KEY=uid, TS=ts))")
    for uid in range(4):
        for k in range(5):
            instance.execute(f"INSERT INTO t VALUES "
                             f"({uid}, {1_000 + k * 100}, {float(k)})")
    instance.execute(f"DEPLOY feat {FEATURE_SQL}")
    yield instance
    instance.close()


@pytest.fixture(scope="module")
def server(db):
    srv = NetServer(db, admin=db, max_frame_bytes=64 * 1024)
    host, port = srv.start()
    yield host, port
    srv.close()


@pytest.fixture()
def client(server):
    host, port = server
    with NetClient(host, port) as c:
        yield c


# ---------------------------------------------------------------------
# statement classification


def _split_by_characters(sql):
    """The reference splitter: one character at a time, in and out of
    single-quoted strings (``''`` stays inside one)."""
    statements = []
    current = []
    in_string = False
    index = 0
    while index < len(sql):
        char = sql[index]
        if in_string:
            current.append(char)
            if char == "'":
                if index + 1 < len(sql) and sql[index + 1] == "'":
                    current.append("'")
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif char == ";":
            statements.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    statements.append("".join(current))
    return [statement for statement in
            (piece.strip() for piece in statements) if statement] or [""]


class TestStatements:
    def test_execute_literals(self):
        s = classify("EXECUTE feat (1, 2.5, 'a''b', NULL, true, false)")
        assert isinstance(s, ExecuteDeployment)
        assert s.deployment == "feat"
        assert s.args == (1, 2.5, "a'b", None, True, False)

    def test_execute_params_and_mix(self):
        s = classify("execute feat ($1, 7, $2)")
        assert s.args == (Param(0), 7, Param(1))

    def test_execute_bare_means_all_params(self):
        s = classify("EXECUTE feat")
        assert s.args is None

    def test_execute_malformed_args(self):
        with pytest.raises(ParseError):
            classify("EXECUTE feat (1 2)")
        with pytest.raises(ParseError):
            classify("EXECUTE feat (frobnicate)")
        with pytest.raises(ParseError):
            classify("EXECUTE feat ($0)")

    def test_session_forms(self):
        assert classify("SET statement_timeout = '50ms'") == \
            SetOption("statement_timeout", "50ms")
        assert classify("SET SESSION statement_timeout TO 50") == \
            SetOption("statement_timeout", "50")
        assert classify("SHOW statement_timeout") == \
            ShowOption("statement_timeout")
        assert classify("SELECT 1") == SelectConstant(1)
        assert classify("BEGIN") == TransactionNoop("BEGIN")
        assert classify("commit;") == TransactionNoop("COMMIT")
        assert classify("") == EmptyStatement()
        assert classify("  ;  ") == EmptyStatement()

    def test_control_forms(self):
        s = classify("CREATE TABLE x (a int, ts timestamp, "
                     "INDEX(KEY=a, TS=ts))")
        assert isinstance(s, ControlStatement)
        assert s.kind == "CREATE TABLE"
        assert classify("INSERT INTO x VALUES (1, 2)").kind == "INSERT"
        assert classify("DEPLOY d SELECT a FROM x").kind == "DEPLOY"

    def test_general_select_is_refused(self):
        with pytest.raises(ParseError):
            classify("SELECT * FROM t")
        with pytest.raises(ParseError):
            classify("DROP TABLE t")

    def test_split_statements(self):
        assert split_statements("a; b ;c") == ["a", "b", "c"]
        assert split_statements("a 'x;y'; b") == ["a 'x;y'", "b"]
        assert split_statements("a 'it''s; fine'") == ["a 'it''s; fine'"]
        assert split_statements("  ") == [""]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["'", "''", ";", " ", "\n", "a", "SELECT 1"]),
        st.characters())).map("".join))
    def test_split_statements_matches_the_character_loop(self, sql):
        assert split_statements(sql) == _split_by_characters(sql)

    def test_parse_timeout_ms(self):
        assert parse_timeout_ms("50") == 50.0
        assert parse_timeout_ms("50ms") == 50.0
        assert parse_timeout_ms("2s") == 2_000.0
        assert parse_timeout_ms("1min") == 60_000.0
        assert parse_timeout_ms("0") is None      # 0 disables
        with pytest.raises(ParseError):
            parse_timeout_ms("fast")
        with pytest.raises(ParseError):
            parse_timeout_ms("5 parsecs")


# ---------------------------------------------------------------------
# wire framing / value codecs


class TestProtocol:
    def test_sqlstate_mapping(self):
        assert sqlstate_for(DeadlineExceededError("x")) == "57014"
        assert sqlstate_for(ProtocolError("x")) == "08P01"
        assert sqlstate_for(ParseError("x")) == "42601"
        assert sqlstate_for(DeploymentNotFoundError("d")) == "26000"
        assert sqlstate_for(TypeMismatchError("x")) == "22P02"
        assert sqlstate_for(StorageError("x")) == "58000"
        assert sqlstate_for(
            OverloadError("x", reason="inflight")) == "53300"
        assert sqlstate_for(
            OverloadError("x", reason="queue_full")) == "53400"
        assert sqlstate_for(ValueError("x")) == "XX000"

    def test_text_codec_round_trip(self):
        assert wire.encode_text(None) is None
        assert wire.encode_text(True) == b"t"
        assert wire.encode_text(False) == b"f"
        assert wire.encode_text(1.5) == b"1.5"
        assert wire.decode_parameter(b"42", ColumnType.INT, False) == 42
        assert wire.decode_parameter(b"1.5", ColumnType.DOUBLE,
                                     False) == 1.5
        assert wire.decode_parameter(b"t", ColumnType.BOOL, False) is True
        assert wire.decode_parameter(None, ColumnType.INT, False) is None

    def test_binary_codec(self):
        assert wire.decode_parameter(struct.pack(">i", 7),
                                     ColumnType.INT, True) == 7
        assert wire.decode_parameter(struct.pack(">q", 9),
                                     ColumnType.TIMESTAMP, True) == 9
        assert wire.decode_parameter(struct.pack(">d", 2.5),
                                     ColumnType.DOUBLE, True) == 2.5

    def test_codec_failures_are_typed(self):
        with pytest.raises(TypeMismatchError):
            wire.decode_parameter(b"not-a-number", ColumnType.INT, False)
        with pytest.raises(TypeMismatchError):
            wire.decode_parameter(b"\x01", ColumnType.INT, True)

    def test_buffer_truncation_is_protocol_error(self):
        buf = wire.Buffer(b"\x00\x01")
        with pytest.raises(ProtocolError):
            buf.read_int32()
        with pytest.raises(ProtocolError):
            wire.Buffer(b"no-terminator").read_cstr()


# ---------------------------------------------------------------------
# live server: happy paths


class TestSimpleProtocol:
    def test_startup_parameters(self, client):
        params = client.server_parameters
        assert "server_version" in params
        assert params["client_encoding"] == "UTF8"

    def test_select_and_session(self, client):
        assert client.query("SELECT 1")[0].rows == [("1",)]
        assert client.query("SET statement_timeout = '250ms'")[0] \
            .command_tag == "SET"
        assert client.query("SHOW statement_timeout")[0] \
            .scalar() == "250ms"
        assert client.query("SHOW server_encoding")[0].scalar() == "UTF8"

    def test_show_unknown_parameter(self, client):
        with pytest.raises(ServerError) as err:
            client.query("SHOW nonexistent_thing")
        assert err.value.sqlstate == "42704"

    def test_transaction_noops(self, client):
        tags = [r.command_tag for r in
                client.query("BEGIN; SELECT 1; COMMIT")]
        assert tags == ["BEGIN", "SELECT 1", "COMMIT"]

    def test_empty_query(self, client):
        assert client.query("")[0].command_tag == ""

    def test_execute_deployment(self, client):
        result = client.query("EXECUTE feat (1, 1500, 9.0)")[0]
        assert result.columns == ("uid", "s")
        assert result.rows == [("1", "19.0")]
        assert result.command_tag == "SELECT 1"

    def test_error_aborts_rest_of_batch(self, client):
        # Second statement errors; third must not run, but the
        # connection recovers (ReadyForQuery still arrives).
        with pytest.raises(ServerError) as err:
            client.query("SELECT 1; SELECT * FROM t; SELECT 2")
        assert err.value.sqlstate == "42601"
        assert client.query("SELECT 3")[0].scalar() == "3"

    def test_control_plane_via_admin(self, client, db):
        client.query("CREATE TABLE wire_made (a int, ts timestamp, "
                     "INDEX(KEY=a, TS=ts))")
        assert client.query("INSERT INTO wire_made VALUES (1, 10)")[0] \
            .command_tag == "INSERT 0 1"
        assert "wire_made" in db.tables

    def test_insert_tag_counts_the_rows_written(self, client, db):
        client.query("CREATE TABLE wire_rows (a int, ts timestamp, "
                     "INDEX(KEY=a, TS=ts))")
        # A one-row INSERT is answered with exactly the same bytes.
        client.send_raw(wire.simple_query(
            "INSERT INTO wire_rows VALUES (1, 10)"))
        assert client.collect_until_ready() == [
            (b"C", b"INSERT 0 1\x00"), (b"Z", b"I")]
        result = client.query(
            "INSERT INTO wire_rows VALUES (2, 20), (3, 30), (4, 40)")[0]
        assert result.command_tag == "INSERT 0 3"
        assert db.table("wire_rows").row_count == 4

    def test_doubled_quote_round_trips(self, client):
        client.query("CREATE TABLE wire_quotes (k int, ts timestamp, "
                     "s string, INDEX(KEY=k, TS=ts))")
        client.query("INSERT INTO wire_quotes VALUES (1, 10, 'it''s'); "
                     "INSERT INTO wire_quotes VALUES (2, 10, 'a;''b')")
        client.query("DEPLOY wire_quoted SELECT k, max(s) OVER w AS m "
                     "FROM wire_quotes WINDOW w AS (PARTITION BY k "
                     "ORDER BY ts ROWS_RANGE BETWEEN 1000 PRECEDING AND "
                     "CURRENT ROW)")
        assert client.query("EXECUTE wire_quoted (1, 20, '')")[0].rows \
            == [("1", "it's")]
        assert client.query("EXECUTE wire_quoted (2, 20, '')")[0].rows \
            == [("2", "a;'b")]


    def test_deploy_with_repeated_output_names_is_refused(self, client):
        # Two ``k`` columns would reach the wire as the second's value
        # twice: the DataRow encoder reads a served row back by name.
        for name in ("wire_dup_t", "wire_dup_d"):
            client.query(f"CREATE TABLE {name} (k string, ts timestamp, "
                         "v double, INDEX(KEY=k, TS=ts))")
        client.query("INSERT INTO wire_dup_d VALUES ('a', 500, 99.0)")
        join = (" FROM wire_dup_t LAST JOIN wire_dup_d ORDER BY "
                "wire_dup_d.ts ON wire_dup_t.k = wire_dup_d.k")
        with pytest.raises(ServerError) as err:
            client.query("DEPLOY wire_dup SELECT *" + join)
        assert "'k'" in err.value.message and "alias" in err.value.message
        client.query("DEPLOY wire_dup SELECT wire_dup_t.k, wire_dup_t.ts, "
                     "wire_dup_t.v, wire_dup_d.k AS dk, wire_dup_d.ts AS "
                     "dts, wire_dup_d.v AS dv" + join)
        assert client.query("EXECUTE wire_dup ('a', 2000, 7.0)")[0].rows \
            == [("a", "2000", "7.0", "a", "500", "99.0")]


class TestExtendedProtocol:
    def test_prepare_describes_parameters(self, client):
        oids = client.prepare("s_desc", "EXECUTE feat ($1, $2, $3)")
        assert oids == (23, 20, 701)  # int4, int8 (epoch ms), float8

    def test_bare_execute_binds_all_columns(self, client):
        oids = client.prepare("s_all", "EXECUTE feat")
        assert oids == (23, 20, 701)
        result = client.execute("s_all", [2, 1500, 9.0])
        assert result.rows == [("2", "19.0")]

    def test_mixed_literals_and_params(self, client):
        client.prepare("s_mix", "EXECUTE feat (3, $1, 0.0)")
        assert client.execute("s_mix", [1500]).rows == [("3", "10.0")]

    def test_binary_parameters(self, client):
        client.prepare("s_bin", "EXECUTE feat ($1, $2, $3)")
        params = [struct.pack(">i", 1), struct.pack(">q", 1500),
                  struct.pack(">d", 0.0)]
        result = client.execute("s_bin", params, param_formats=[1])
        assert result.rows == [("1", "10.0")]

    def test_null_parameter_is_rejected_by_engine_or_routes(self, client):
        client.prepare("s_null", "EXECUTE feat ($1, $2, $3)")
        # NULL key: the engine decides; the wire must deliver a typed
        # response either way, never hang or disconnect.
        try:
            client.execute("s_null", [None, 1500, 0.0])
        except ServerError as err:
            assert len(err.sqlstate) == 5

    def test_unknown_deployment_is_26000(self, client):
        with pytest.raises(ServerError) as err:
            client.prepare("s_no", "EXECUTE nosuch")
        assert err.value.sqlstate == "26000"

    def test_wrong_arity_at_parse(self, client):
        with pytest.raises(ServerError) as err:
            client.prepare("s_ar", "EXECUTE feat (1, 2)")
        assert err.value.sqlstate == "42P08"

    def test_wrong_param_count_at_bind(self, client):
        client.prepare("s_cnt", "EXECUTE feat ($1, $2, $3)")
        with pytest.raises(ServerError) as err:
            client.execute("s_cnt", [1])
        assert err.value.sqlstate == "08P01"

    def test_bad_parameter_text_is_22p02(self, client):
        client.prepare("s_bad", "EXECUTE feat ($1, $2, $3)")
        with pytest.raises(ServerError) as err:
            client.execute("s_bad", ["zero", 1500, 0.0])
        assert err.value.sqlstate == "22P02"

    def test_close_statement(self, client):
        client.prepare("s_gone", "EXECUTE feat ($1, $2, $3)")
        client.send_raw(wire.close_message("S", "s_gone")
                        + wire.sync_message())
        types = [t for t, _ in client.collect_until_ready()]
        assert types == [b"3", b"Z"]
        with pytest.raises(ServerError) as err:
            client.execute("s_gone", [1, 1500, 0.0])
        assert err.value.sqlstate == "26000"

    def test_infinity_parameters_sum_to_typed_values(self):
        # A sum over infinities is a value — inf, or NaN with both
        # signs — and an overflowing one is ±inf, never an escaped
        # ValueError / OverflowError.
        db = OpenMLDB()
        db.execute("CREATE TABLE t (uid int, ts timestamp, v double, "
                   "INDEX(KEY=uid, TS=ts))")
        db.insert("t", (1, 1_000, -math.inf))
        db.insert("t", (2, 1_000, 1e308))
        db.execute(f"DEPLOY feat {FEATURE_SQL}")
        srv = NetServer(db)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.prepare("s_inf", "EXECUTE feat ($1, $2, $3)")
                sums = [c.execute("s_inf", [uid, 1_500, value]).rows[0][1]
                        for uid, value in ((0, "Infinity"), (1, "Infinity"),
                                           (1, "-Infinity"), (2, "1e308"),
                                           (2, "-1e308"))]
        finally:
            srv.close()
            db.close()
        assert sums == ["inf", "nan", "-inf", "inf", "0.0"]

    def test_utility_via_extended_protocol(self, client):
        # psycopg sends SET through Parse/Bind/Execute, not Query.
        client.prepare("s_set", "SET statement_timeout = '99ms'")
        result = client.execute("s_set")
        assert result.command_tag == "SET"
        assert client.query("SHOW statement_timeout")[0].scalar() == "99ms"


# ---------------------------------------------------------------------
# edge cases: disconnects, malformed frames, pipelining


class TestEdgeCases:
    def test_mid_message_disconnect(self, server):
        host, port = server
        sock = socket.create_connection((host, port))
        sock.sendall(wire.startup_message("u", "d"))
        # Read through ReadyForQuery, then abandon a frame mid-send.
        self._drain_startup(sock)
        sock.sendall(b"Q" + struct.pack(">i", 100) + b"partial")
        sock.close()
        # The server must shrug it off and keep serving new clients.
        with NetClient(host, port) as fresh:
            assert fresh.query("SELECT 1")[0].scalar() == "1"

    def test_disconnect_during_startup(self, server):
        host, port = server
        sock = socket.create_connection((host, port))
        sock.sendall(struct.pack(">i", 100))  # promises 96 more bytes
        sock.close()
        with NetClient(host, port) as fresh:
            assert fresh.query("SELECT 2")[0].scalar() == "2"

    def test_oversized_frame_is_fatal_08p01(self, server):
        host, port = server
        with NetClient(host, port) as client:
            # Frame header claims 10 MB — past the server's 64 KiB cap.
            client.send_raw(b"Q" + struct.pack(">i", 10 * 1024 * 1024))
            type_byte, payload = client.read_message()
            assert type_byte == b"E"
            fields = self._error_fields(payload)
            assert fields["C"] == "08P01"
            assert fields["S"] == "FATAL"
            # ...and the connection is gone.
            with pytest.raises((ConnectionError, socket.timeout)):
                client.read_message()

    def test_unknown_message_type_is_fatal(self, server):
        host, port = server
        with NetClient(host, port) as client:
            client.send_raw(b"W" + struct.pack(">i", 4))
            type_byte, payload = client.read_message()
            assert type_byte == b"E"
            assert self._error_fields(payload)["C"] == "08P01"
            with pytest.raises((ConnectionError, socket.timeout)):
                client.read_message()

    def test_truncated_payload_is_typed_error(self, client):
        # A Describe whose payload ends before the name's terminator.
        client.send_raw(wire._frame(b"D", b"S") + wire.sync_message())
        messages = client.collect_until_ready()
        assert messages[0][0] == b"E"
        assert self._error_fields(messages[0][1])["C"] == "08P01"
        assert messages[-1][0] == b"Z"
        assert client.query("SELECT 1")[0].scalar() == "1"

    def test_unsupported_protocol_version(self, server):
        host, port = server
        sock = socket.create_connection((host, port), timeout=5)
        body = struct.pack(">i", 131072)  # protocol 2.0
        sock.sendall(struct.pack(">i", len(body) + 4) + body)
        header = self._recv_exact(sock, 5)
        assert header[:1] == b"E"
        payload = self._recv_exact(
            sock, struct.unpack(">i", header[1:])[0] - 4)
        assert self._error_fields(payload)["C"] == "08P01"
        sock.close()

    def test_ssl_request_gets_plaintext_refusal(self, server):
        host, port = server
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(struct.pack(">ii", 8, wire.SSL_REQUEST_CODE))
        assert self._recv_exact(sock, 1) == b"N"
        # ...and the same socket can then start up in cleartext.
        sock.sendall(wire.startup_message("u", "d"))
        self._drain_startup(sock)
        sock.close()

    def test_pipelined_error_skips_until_sync(self, client):
        """An erroring Parse poisons the rest of the pipeline.

        One write carries: Parse(ok) Bind Execute, Parse(bad) Bind
        Execute, Parse(ok) Bind Execute, Sync.  The first trio runs,
        the bad Parse errors, and everything after it — including the
        third, perfectly valid trio — is skipped until Sync answers
        with ReadyForQuery.
        """
        batch = (
            wire.parse_message("p1", "EXECUTE feat (1, 1500, 0.0)")
            + wire.bind_message("", "p1", [])
            + wire.execute_message("")
            + wire.parse_message("p2", "EXECUTE nosuch (1)")
            + wire.bind_message("", "p2", [])
            + wire.execute_message("")
            + wire.parse_message("p3", "EXECUTE feat (2, 1500, 0.0)")
            + wire.bind_message("", "p3", [])
            + wire.execute_message("")
            + wire.sync_message())
        client.send_raw(batch)
        types = [t for t, _ in client.collect_until_ready()]
        # 1=ParseComplete 2=BindComplete D=row C=complete, then one E,
        # then silence until Z.  No second D: p3 never executed.
        assert types == [b"1", b"2", b"D", b"C", b"E", b"Z"]

    def test_simple_query_resets_error_state(self, client):
        client.send_raw(wire.parse_message("p_err", "EXECUTE nosuch"))
        client.send_raw(wire.simple_query("SELECT 5"))
        # The error for the Parse arrives, then the Query runs fully.
        types = [t for t, _ in client.collect_until_ready()]
        assert types[0] == b"E"
        assert b"D" in types and types[-1] == b"Z"

    @staticmethod
    def _error_fields(payload):
        fields = {}
        buf = wire.Buffer(payload)
        while buf.remaining > 1:
            code = chr(buf.read_byte())
            if code == "\x00":
                break
            fields[code] = buf.read_cstr()
        return fields

    @staticmethod
    def _recv_exact(sock, count):
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            if not chunk:
                raise ConnectionError("closed")
            data += chunk
        return data

    @classmethod
    def _drain_startup(cls, sock):
        while True:
            header = cls._recv_exact(sock, 5)
            (length,) = struct.unpack(">i", header[1:])
            cls._recv_exact(sock, length - 4)
            if header[:1] == b"Z":
                return


# ---------------------------------------------------------------------
# concurrency and serving-stack composition


class StubBackend(PerRowBatch):
    """Deterministic backend: optional gate/delay, fixed descriptor."""

    SCHEMA = Schema.from_pairs([("uid", "int"), ("ts", "timestamp"),
                                ("v", "double")])

    def __init__(self, delay_s=0.0, gate=None):
        self.delay_s = delay_s
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def describe_deployment(self, name):
        if name != "feat":
            raise DeploymentNotFoundError(name)
        return DeploymentDescriptor("feat", "t", self.SCHEMA,
                                    ("uid", "s"))

    def request(self, name, row):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s)
        return {"uid": row[0], "s": float(row[2]) + 1.0}


class BatchStubBackend(StubBackend):
    """A stub whose ``request_batch`` notes the thread each ran on."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batch_threads = []

    def request_batch(self, name, rows, deadlines=None):
        self.batch_threads.append(threading.current_thread().name)
        return [self.request(name, row) for row in rows]


def _wait_until(condition, what, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.002)


def _execute_in_thread(host, port, row, box, timeout=None):
    """One connection executing ``row`` on its own thread; the rows, or
    the error or dropped connection, land in ``box``."""
    def run():
        with NetClient(host, port) as c:
            if timeout is not None:
                c.query(f"SET statement_timeout = '{timeout}'")
            c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
            try:
                box["rows"] = c.execute("s0", list(row)).rows
            except (ServerError, ConnectionError) as exc:
                box["error"] = exc
    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestOneHopPerRead:
    """A wire read runs on its connection's thread, batch included."""

    def test_reads_never_enter_an_executor_thread(self):
        backend = BatchStubBackend()
        frontend = FrontendServer(backend, max_wait_ms=0)
        srv = NetServer(frontend)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                for i in range(20):
                    assert c.execute("s0", [i, i, 1.0]).rows \
                        == [(str(i), "2.0")]
            names = [t.name for t in threading.enumerate()]
            assert not [n for n in names if n.startswith("netserve-exec")]
            assert not [n for n in names if n.startswith("serving-")]
            assert len(backend.batch_threads) == 20
            assert all(n.startswith("netserve-conn-")
                       for n in backend.batch_threads)
        finally:
            srv.close()
            frontend.close()

    def test_plain_backend_reads_through_a_frontend_the_server_owns(
            self, db):
        obs = Observability()
        batch_threads = []
        request_batch = db.request_batch

        def recording_batch(name, rows, deadlines=None):
            batch_threads.append(threading.current_thread().name)
            return request_batch(name, rows, deadlines)

        before = set(threading.enumerate())
        db.request_batch = recording_batch  # the fixture is shared
        try:
            srv = NetServer(db, obs=obs)
            assert set(threading.enumerate()) == before
            host, port = srv.start()
            try:
                with NetClient(host, port) as c:
                    c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                    for _ in range(3):
                        assert c.execute("s0", [1, 1_500, 0.0]).rows \
                            == [("1", "10.0")]
                started = set(threading.enumerate()) - before
                assert not [t for t in started
                            if not t.name.startswith("netserve-")]
            finally:
                srv.close()
        finally:
            del db.request_batch
        assert obs.registry.get("serving.admitted").value == 3
        assert len(batch_threads) == 3
        assert all(n.startswith("netserve-conn-") for n in batch_threads)

    def test_a_combined_batch_roots_its_own_trace(self):
        # The connection thread that combines runs the batch inside its
        # own net.request span; the batch must still root its own trace
        # (docs/observability.md), not nest under that span.
        instance = OpenMLDB(observability=True)
        instance.execute("CREATE TABLE t (uid int, ts timestamp, "
                         "v double, INDEX(KEY=uid, TS=ts))")
        instance.execute("INSERT INTO t VALUES (1, 1000, 2.0)")
        instance.execute(f"DEPLOY feat {FEATURE_SQL}")
        srv = NetServer(instance, obs=instance.obs)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                assert c.execute("s0", [1, 1_500, 0.0]).rows \
                    == [("1", "2.0")]
        finally:
            srv.close()
            instance.close()
        spans = {span["name"]: span for span in instance.obs.tracer.export()}
        batch, request = spans["deployment.execute_batch"], \
            spans["net.request"]
        assert batch["parent_id"] is None and request["parent_id"] is None
        assert batch["trace_id"] != request["trace_id"]
        assert spans["deployment.execute"]["parent_id"] == batch["span_id"]

    def test_follower_of_a_timed_out_leader_gets_its_features(self):
        # The leader's connection gives up at its statement_timeout;
        # the shared ticket future is not cancelled, so a follower
        # riding it on another connection still gets the features.
        # The leader's ticket runs in a batch another connection
        # combines (the window holds until the batch of two is full),
        # so the leader is free to time out while it executes.
        gate = threading.Event()
        obs = Observability()
        frontend = FrontendServer(BatchStubBackend(gate=gate), obs,
                                  max_batch=2, max_wait_ms=30_000)
        srv = NetServer(frontend)
        host, port = srv.start()
        combiner, leader, follower = {}, {}, {}
        try:
            combine = _execute_in_thread(host, port, (1, 1, 1.0),
                                         combiner)
            _wait_until(lambda: frontend.inflight >= 1, "never admitted")
            lead = _execute_in_thread(host, port, (7, 7, 1.0), leader,
                                      timeout="150ms")
            _wait_until(lambda: frontend.inflight >= 2, "never admitted")
            follow = _execute_in_thread(host, port, (7, 7, 1.0),
                                        follower)
            _wait_until(lambda: obs.registry.get("serving.dedup").value,
                        "follower never joined the leader")
            lead.join(timeout=10)
            assert not lead.is_alive()
            assert leader["error"].sqlstate == "57014"
            gate.set()
            follow.join(timeout=10)
            assert not follow.is_alive()
            assert follower == {"rows": [("7", "2.0")]}
            combine.join(timeout=10)
            assert combiner == {"rows": [("1", "2.0")]}
        finally:
            gate.set()
            srv.close()
            frontend.close()

    def test_follower_of_a_cancelled_leader_gets_its_features(self):
        # Closing the leader's server cancels its connection task while
        # it awaits; a follower on another server over the same
        # frontend must not see that cancellation.
        gate = threading.Event()
        obs = Observability()
        frontend = FrontendServer(BatchStubBackend(gate=gate), obs,
                                  max_wait_ms=0)
        leader_srv, follower_srv = NetServer(frontend), NetServer(frontend)
        leader, follower = {}, {}
        try:
            lead = _execute_in_thread(*leader_srv.start(), (7, 7, 1.0),
                                      leader)
            _wait_until(lambda: frontend.inflight >= 1, "never admitted")
            follow = _execute_in_thread(*follower_srv.start(),
                                        (7, 7, 1.0), follower)
            _wait_until(lambda: obs.registry.get("serving.dedup").value,
                        "follower never joined the leader")
            leader_srv.close()
            gate.set()
            follow.join(timeout=10)
            assert not follow.is_alive()
            assert follower == {"rows": [("7", "2.0")]}
            lead.join(timeout=10)
        finally:
            gate.set()
            leader_srv.close()
            follower_srv.close()
            frontend.close()

    def test_interleaved_requests_do_not_parent_each_others_spans(self):
        gate = threading.Event()
        obs = Observability(enabled=True)
        frontend = FrontendServer(BatchStubBackend(gate=gate),
                                  max_wait_ms=0, single_flight=False)
        srv = NetServer(frontend, obs=obs)
        host, port = srv.start()
        boxes = [{}, {}]
        try:
            first = _execute_in_thread(host, port, (1, 1, 1.0), boxes[0])
            _wait_until(lambda: frontend.inflight >= 1, "never admitted")
            second = _execute_in_thread(host, port, (2, 2, 2.0),
                                        boxes[1])
            _wait_until(lambda: frontend.inflight >= 2, "never admitted")
            gate.set()
            for thread in (first, second):
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            gate.set()
            srv.close()
            frontend.close()
        assert [box["rows"] for box in boxes] \
            == [[("1", "2.0")], [("2", "3.0")]]
        spans = [span for span in obs.tracer.export()
                 if span["name"] == "net.request"]
        assert len(spans) == 2
        assert [span["parent_id"] for span in spans] == [None, None]
        assert spans[0]["trace_id"] != spans[1]["trace_id"]


class TestConcurrencyAndComposition:
    def test_concurrent_connections_share_one_deployment(self, server):
        host, port = server
        errors = []
        rows = {}
        barrier = threading.Barrier(6)

        def worker(uid):
            try:
                with NetClient(host, port) as c:
                    c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                    barrier.wait()
                    for i in range(10):
                        result = c.execute("s0", [uid, 1_500, 0.0])
                        rows.setdefault(uid, set()).add(result.rows[0])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(uid,))
                   for uid in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # Every connection saw its own uid's features — no cross-talk
        # between concurrently bound portals.
        for uid in range(4):
            assert rows[uid] == {(str(uid), "10.0")}
        for uid in (4, 5):  # keys with no stored rows still answer
            assert len(rows[uid]) == 1

    def test_statement_timeout_becomes_57014(self):
        backend = StubBackend(delay_s=0.25)
        frontend = FrontendServer(backend, max_wait_ms=0)
        srv = NetServer(frontend)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                assert c.execute("s0", [1, 1, 1.0]).rows  # no timeout
                c.query("SET statement_timeout = '30ms'")
                with pytest.raises(ServerError) as err:
                    c.execute("s0", [2, 2, 2.0])
                assert err.value.sqlstate == "57014"
                # Disabling the timeout restores service.
                c.query("SET statement_timeout = 0")
                assert c.execute("s0", [3, 3, 3.0]).rows
        finally:
            srv.close()
            frontend.close()

    def test_deadline_scope_without_timeout_kwarg(self):
        """Backends whose request() lacks timeout_ms get a deadline scope."""
        observed = {}

        class ScopedBackend(StubBackend):
            def request(self, name, row):
                from repro.serving.deadline import current_deadline
                observed["deadline"] = current_deadline()
                return super().request(name, row)

        backend = ScopedBackend()
        srv = NetServer(backend)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.query("SET statement_timeout = '5s'")
                assert c.query("EXECUTE feat (1, 1, 1.0)")[0].rows
        finally:
            srv.close()
        assert observed["deadline"] is not None
        assert observed["deadline"].budget_ms == 5_000.0

    def test_shed_requests_become_sqlstate_53(self):
        gate = threading.Event()
        backend = StubBackend(gate=gate)
        frontend = FrontendServer(backend, max_queue=1, max_inflight=1,
                                  max_batch=1, max_wait_ms=0,
                                  single_flight=False)
        srv = NetServer(frontend)
        host, port = srv.start()
        try:
            blocked = NetClient(host, port)
            blocked.prepare("s0", "EXECUTE feat ($1, $2, $3)")
            result_box = {}

            def occupy():
                result_box["r"] = blocked.execute("s0", [1, 1, 1.0])

            holder = threading.Thread(target=occupy)
            holder.start()
            deadline = time.monotonic() + 5
            while frontend.inflight < 1:
                assert time.monotonic() < deadline, "never admitted"
                time.sleep(0.005)

            with NetClient(host, port) as shedder:
                shedder.prepare("s1", "EXECUTE feat ($1, $2, $3)")
                with pytest.raises(ServerError) as err:
                    shedder.execute("s1", [2, 2, 2.0])
                assert err.value.sqlstate in ("53300", "53400")
                assert err.value.retryable

            gate.set()
            holder.join(timeout=10)
            assert result_box["r"].rows  # the admitted request finished
            blocked.close()
        finally:
            gate.set()
            srv.close()
            frontend.close()

    def test_max_connections_refused_with_53300(self, db):
        srv = NetServer(db, max_connections=1)
        host, port = srv.start()
        try:
            keeper = NetClient(host, port)
            with pytest.raises(ServerError) as err:
                NetClient(host, port)
            assert err.value.sqlstate == "53300"
            assert err.value.severity == "FATAL"
            # The first connection is unaffected.
            assert keeper.query("SELECT 1")[0].scalar() == "1"
            keeper.close()
            # Slots free up once connections close.
            deadline = time.monotonic() + 5
            while True:
                try:
                    with NetClient(host, port) as again:
                        assert again.query("SELECT 1")[0].scalar() == "1"
                    break
                except ServerError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
        finally:
            srv.close()

    def test_netserve_metrics_appear(self, db):
        obs = Observability()
        srv = NetServer(db, obs=obs)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.query("EXECUTE feat (1, 1500, 0.0)")
                c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                c.execute("s0", [1, 1500, 0.0])
                with pytest.raises(ServerError):
                    c.query("SELECT * FROM t")
        finally:
            srv.close()
        rendered = obs.registry.render()
        assert "netserve.connections.total 1" in rendered
        assert "netserve.statements{protocol=simple}" in rendered
        assert "netserve.statements{protocol=extended}" in rendered
        assert "netserve.errors{sqlstate=42601}" in rendered
        assert "netserve.request.ms" in rendered

    def test_control_plane_refused_without_admin(self, db):
        srv = NetServer(db)  # no admin backend
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                with pytest.raises(ServerError) as err:
                    c.query("CREATE TABLE nope (a int, ts timestamp, "
                            "INDEX(KEY=a, TS=ts))")
                assert err.value.sqlstate == "42501"
        finally:
            srv.close()

    def test_smoke_cluster_undeploy_between_parse_and_execute_is_26000(
            self):
        # One SQLSTATE for "no such deployment" on either backend: a
        # cluster used to answer 58000 here (its lookup raised
        # StorageError), and _prepare hid every real storage fault
        # during Describe behind 26000.
        cluster = NameServer([TabletServer(f"tablet-{i}")
                              for i in range(3)])
        cluster.create_table("t", StubBackend.SCHEMA,
                             [IndexDef(("uid",), "ts")],
                             partitions=2, replicas=2)
        cluster.put("t", (1, 1_000, 2.0))
        cluster.deploy("feat", FEATURE_SQL)
        srv = NetServer(cluster)
        host, port = srv.start()
        try:
            with NetClient(host, port) as c:
                c.prepare("s0", "EXECUTE feat ($1, $2, $3)")
                assert c.execute("s0", [1, 1_500, 1.0]).rows \
                    == [("1", "3.0")]
                # A NULL key is a key: a row, not XX000.
                assert c.query("EXECUTE feat (NULL, 1500, 1.0)")[0].rows \
                    == [(None, "1.0")]
                cluster.undeploy("feat")
                with pytest.raises(ServerError) as err:
                    c.execute("s0", [1, 1_500, 1.0])
                assert err.value.sqlstate == "26000"
                with pytest.raises(ServerError) as err:
                    c.prepare("s1", "EXECUTE feat")
                assert err.value.sqlstate == "26000"
                cluster.deploy("feat", FEATURE_SQL)  # redeploy serves
                assert c.execute("s0", [1, 1_500, 1.0]).rows \
                    == [("1", "3.0")]
                cluster.close()
                with pytest.raises(ServerError) as err:
                    c.prepare("s2", "EXECUTE feat")
                assert err.value.sqlstate == "58000"  # not "unknown"
        finally:
            srv.close()
            cluster.close()

    def test_describe_deployment_surfaces(self, db):
        descriptor = db.describe_deployment("feat")
        assert descriptor.name == "feat"
        assert descriptor.table == "t"
        assert descriptor.arity == 3
        assert descriptor.output_names == ("uid", "s")
        with pytest.raises(DeploymentNotFoundError):
            db.describe_deployment("nosuch")
