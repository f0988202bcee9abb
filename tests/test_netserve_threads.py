"""What a serving process loads and starts: modules, threads, sockets.

A process that serves features over the wire imports the cluster, the
wire server, the serving frontend and the SQL parser — and none of the
offline engine, asyncio, ``concurrent.futures`` (the frontend's
tickets carry their own outcomes) or the TLS and hash stacks behind
them.  A :class:`~repro.netserve.NetServer` runs one accept thread plus
one thread per admitted connection, refuses a connection over its cap
without a thread, and gives every thread and descriptor back on
``close()``, promptly even while a request is still blocked in the
backend.
"""

import gc
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import DeploymentNotFoundError
from repro.netserve import NetClient, NetServer, ServerError
from repro.netserve import client as netclient
from repro.netserve import protocol as wire
from repro.obs import Observability
from repro.schema import Schema
from repro.serving import FrontendServer
from repro.serving.describe import DeploymentDescriptor
from tests.conftest import PerRowBatch

SRC = Path(__file__).resolve().parent.parent / "src"

_FOOTPRINT = """
import sys
import repro.cluster, repro.netserve, repro.serving, repro.sql.parser
loaded = [name for name in ("asyncio", "ssl", "hashlib",
                            "concurrent.futures",
                            "repro.offline.engine", "repro.core.database")
          if name in sys.modules]
assert not loaded, loaded
import repro, repro.core
from repro import OpenMLDB
assert OpenMLDB is repro.core.database.OpenMLDB
for module in (repro, repro.core):
    for name in module.__all__:
        assert getattr(module, name) is not None, (module.__name__, name)
"""


def test_serving_imports_leave_offline_engine_and_asyncio_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class GatedBackend(PerRowBatch):
    """One deployment; ``request`` blocks on ``gate`` once ``entered``."""

    SCHEMA = Schema.from_pairs([("uid", "int"), ("ts", "timestamp"),
                                ("v", "double")])

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    def describe_deployment(self, name):
        if name != "feat":
            raise DeploymentNotFoundError(name)
        return DeploymentDescriptor("feat", "t", self.SCHEMA, ("uid", "s"))

    def request(self, name, row):
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return {"uid": row[0], "s": float(row[2]) + 1.0}


def _netserve_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("netserve-")]


def _refused_sqlstate(host, port):
    with pytest.raises(ServerError) as err:
        NetClient(host, port)
    return err.value.sqlstate


def _fd_count():
    gc.collect()  # a refused client's socket waits in a traceback cycle
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_threads_and_sockets_are_bounded_and_given_back():
    backend = GatedBackend()
    frontend = FrontendServer(backend, max_wait_ms=0)
    threads_before = threading.active_count()
    fds_before = _fd_count()
    srv = NetServer(frontend, max_connections=2)
    host, port = srv.start()
    cap = 2 + 1  # max_connections, plus the accept thread
    try:
        members = [NetClient(host, port) for _ in range(2)]
        assert len(_netserve_threads()) == cap
        silent = [socket.create_connection((host, port), timeout=10)
                  for _ in range(2)]
        for _ in range(2):
            assert _refused_sqlstate(host, port) == "53300"
            assert len(_netserve_threads()) <= cap
        for sock in silent:  # dropped by the accept thread, no reply
            assert sock.recv(1) == b""
            sock.close()
        assert len(_netserve_threads()) == cap
        for member in members:
            assert member.query("SELECT 1")[0].scalar() == "1"

        # One member's request blocks in the backend; close() must not
        # wait for it.
        backend.gate.clear()
        members[0].prepare("s0", "EXECUTE feat ($1, $2, $3)")
        outcome = {}

        def blocked_read():
            try:
                outcome["rows"] = members[0].execute("s0", [1, 1, 1.0])
            except (ConnectionError, OSError) as exc:
                outcome["error"] = exc

        reader = threading.Thread(target=blocked_read)
        reader.start()
        assert backend.entered.wait(timeout=10)
        server_threads = _netserve_threads()
        started = time.monotonic()
        srv.close()
        assert time.monotonic() - started < 1.0
        assert len(_netserve_threads()) == 1  # the one inside request
    finally:
        backend.gate.set()
        srv.close()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert "error" in outcome  # its connection was shut down under it
    for thread in server_threads:
        thread.join(timeout=10)
    for member in members:
        member.close()
    assert _netserve_threads() == []
    assert threading.active_count() == threads_before
    assert _fd_count() == fds_before
    frontend.close()


def test_connection_churn_keeps_the_books():
    # More clients than the cap and than cores, with a short switch
    # interval: a lost update to the connection set would leave the
    # gauge off zero, a thread behind, or a client neither served nor
    # refused.
    obs = Observability()
    frontend = FrontendServer(GatedBackend(), max_wait_ms=0)
    srv = NetServer(frontend, obs=obs, max_connections=3)
    host, port = srv.start()
    outcomes, errors = [], []
    interval = sys.getswitchinterval()

    def churn():
        try:
            for _ in range(15):
                try:
                    with NetClient(host, port) as client:
                        outcomes.append(client.query("SELECT 1")[0].scalar())
                except ServerError as exc:
                    outcomes.append(exc.sqlstate)
                assert len(_netserve_threads()) <= 3 + 1
        except BaseException as exc:  # reported below
            errors.append(exc)

    clients = [threading.Thread(target=churn) for _ in range(8)]
    sys.setswitchinterval(1e-5)
    try:
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=60)
            assert not client.is_alive()
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not errors, errors
        assert len(outcomes) == 8 * 15
        assert set(outcomes) <= {"1", "53300"} and "1" in outcomes
        for thread in _netserve_threads():
            if thread.name.startswith("netserve-conn-"):
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert obs.registry.get("netserve.connections").value == 0
    finally:
        srv.close()
        frontend.close()
    assert _netserve_threads() == []


def _repeated_ssl_requests(sock):
    """An SSLRequest every 0.3 s, for as long as the server answers."""
    while True:
        sock.sendall(struct.pack(">ii", 8, wire.SSL_REQUEST_CODE))
        if sock.recv(1) != b"N":
            return
        yield 0.3


def _trickled_startup(sock):
    """A startup packet, one byte every 0.1 s."""
    for byte in wire.startup_message("u", "db"):
        sock.sendall(bytes([byte]))
        yield 0.1


@pytest.mark.parametrize("peer", [_repeated_ssl_requests, _trickled_startup],
                         ids=["repeated_ssl_request", "trickled_startup"])
def test_a_refused_startup_does_not_stall_accept(peer):
    # The refusal runs on the accept thread: a peer over the cap that
    # keeps its startup going must not keep the next client waiting once
    # a slot is free.
    obs = Observability()
    frontend = FrontendServer(GatedBackend(), max_wait_ms=0)
    srv = NetServer(frontend, obs=obs, max_connections=1)
    host, port = srv.start()
    stop = threading.Event()

    def pester(sock):
        ends = time.monotonic() + 3.0
        try:
            for pause in peer(sock):
                if time.monotonic() > ends or stop.wait(pause):
                    return
        except OSError:
            pass  # the server gave up on it: what the test wants

    def value(name):
        return obs.registry.get(name).value

    def wait_for(predicate):
        ends = time.monotonic() + 10.0
        while not predicate():
            assert time.monotonic() < ends
            stop.wait(0.005)

    member = NetClient(host, port)
    refused = socket.create_connection((host, port), timeout=10)
    pesterer = threading.Thread(target=pester, args=(refused,))
    try:
        pesterer.start()
        wait_for(lambda: value("netserve.connections.refused") == 1)
        member.close()
        wait_for(lambda: value("netserve.connections") == 0)
        started = time.monotonic()
        with NetClient(host, port) as client:
            assert client.query("SELECT 1")[0].scalar() == "1"
        assert time.monotonic() - started < 1.0
    finally:
        stop.set()
        pesterer.join(timeout=10)
        refused.close()
        srv.close()
        frontend.close()


def test_a_refused_client_closes_its_socket(monkeypatch):
    frontend = FrontendServer(GatedBackend(), max_wait_ms=0)
    srv = NetServer(frontend, max_connections=1)
    host, port = srv.start()
    opened = []
    create_connection = socket.create_connection

    def spy(*args, **kwargs):
        sock = create_connection(*args, **kwargs)
        opened.append(sock)
        return sock

    monkeypatch.setattr(netclient.socket, "create_connection", spy)
    try:
        with NetClient(host, port):
            assert _refused_sqlstate(host, port) == "53300"
        assert len(opened) == 2
        # The refused client's socket is closed when the constructor
        # raises, not whenever the collector reaches it.
        assert opened[1].fileno() == -1
    finally:
        srv.close()
        frontend.close()
