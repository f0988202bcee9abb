"""Network serving: external clients over the PostgreSQL wire protocol.

Exercises the socket layer in front of the serving stack
(docs/network_protocol.md):

* a `NetServer` exposing deployments as prepared statements
  (`EXECUTE name ($1, ...)` resolved against the deployment's request
  schema at Parse time),
* many concurrent client connections sharing one deployment,
* the deadline path — `SET statement_timeout` becomes the serving
  `Deadline`, and an over-budget request fails with SQLSTATE `57014`
  (`query_canceled`), exactly as a real PostgreSQL driver reports it,
* the shed path — a saturated `FrontendServer` refuses work *before*
  executing, and the client sees a clean, retryable class-53 error
  instead of a hanging socket.

Run:  python examples/network_clients.py
"""

from __future__ import annotations

import threading
import time

from repro import OpenMLDB
from repro.netserve import NetClient, NetServer, ServerError
from repro.obs import Observability
from repro.serving import FrontendServer

FEATURE_SQL = (
    "SELECT card, sum(amount) OVER w AS spend, count(amount) OVER w AS n "
    "FROM txns WINDOW w AS (PARTITION BY card ORDER BY ts "
    "ROWS_RANGE BETWEEN 5m PRECEDING AND CURRENT ROW)")


def build_db() -> OpenMLDB:
    db = OpenMLDB()
    db.execute("CREATE TABLE txns (card string, ts timestamp, "
               "amount double, INDEX(KEY=card, TS=ts))")
    for card in range(8):
        for k in range(50):
            db.insert("txns", (f"c{card}", 1_000 + k * 1_000, float(k)))
    db.deploy("card_features", FEATURE_SQL)
    return db


class SlowBackend:
    """Wraps a backend with a fixed per-request delay (a slow engine)."""

    def __init__(self, inner, delay_s: float, gate=None):
        self.inner = inner
        self.delay_s = delay_s
        self.gate = gate

    def describe_deployment(self, name):
        return self.inner.describe_deployment(name)

    def request_batch(self, name, rows, deadlines):
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s * len(rows))
        return self.inner.request_batch(name, rows, deadlines)


def concurrent_clients(host: str, port: int) -> None:
    """Several connections, one deployment, no cross-talk."""
    clients, requests_each = 6, 25
    errors: list[Exception] = []
    completed = [0] * clients
    barrier = threading.Barrier(clients)

    def worker(cid: int) -> None:
        try:
            with NetClient(host, port) as client:
                client.prepare("s0", "EXECUTE card_features ($1, $2, $3)")
                barrier.wait()
                for k in range(requests_each):
                    card = f"c{cid % 8}"
                    result = client.execute("s0", [card, 60_000, 1.0])
                    assert result.rows[0][0] == card
                    completed[cid] += 1
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    assert not errors, errors
    total = sum(completed)
    print(f"{clients} connections x {requests_each} prepared executes: "
          f"{total} requests in {wall * 1e3:.0f} ms "
          f"({total / wall:.0f} req/s through the wire)")


def deadline_path(db: OpenMLDB) -> None:
    """SET statement_timeout -> serving Deadline -> SQLSTATE 57014."""
    slow = SlowBackend(db, delay_s=0.12)
    frontend = FrontendServer(slow, max_wait_ms=0)
    server = NetServer(frontend)
    host, port = server.start()
    try:
        with NetClient(host, port) as client:
            client.prepare("s0", "EXECUTE card_features ($1, $2, $3)")
            result = client.execute("s0", ["c1", 60_000, 1.0])
            print(f"no timeout set: slow request served -> "
                  f"{result.rows[0]}")

            client.query("SET statement_timeout = '30ms'")
            try:
                client.execute("s0", ["c1", 60_000, 1.0])
            except ServerError as err:
                print(f"statement_timeout=30ms on a ~120ms backend: "
                      f"SQLSTATE {err.sqlstate} ({err})")
                assert err.sqlstate == "57014"

            client.query("SET statement_timeout = 0")
            # A *different* row: the timed-out request is still the
            # single-flight leader for its exact (deployment, row) key.
            assert client.execute("s0", ["c4", 61_000, 1.0]).rows
            print("statement_timeout=0: service restored on the same "
                  "connection")
    finally:
        server.close()
        frontend.close()


def shed_path(db: OpenMLDB) -> None:
    """A saturated frontend sheds with a retryable class-53 error."""
    gate = threading.Event()
    gated = SlowBackend(db, delay_s=0.0, gate=gate)
    frontend = FrontendServer(gated, max_queue=2, max_inflight=4,
                              max_wait_ms=0)
    server = NetServer(frontend, max_connections=16)
    host, port = server.start()

    attempts = 12
    outcomes: list[str] = []
    lock = threading.Lock()

    def worker(idx: int) -> None:
        # Distinct rows per client: identical requests would be
        # collapsed by single-flight dedup instead of filling the queue.
        try:
            with NetClient(host, port) as client:
                client.prepare("s0", "EXECUTE card_features ($1, $2, $3)")
                client.execute("s0", [f"c{idx % 8}", 60_000 + idx, 1.0])
                verdict = "served"
        except ServerError as err:
            assert err.sqlstate.startswith("53") and err.retryable
            verdict = f"shed ({err.sqlstate})"
        with lock:
            outcomes.append(verdict)

    try:
        threads = [threading.Thread(target=worker, args=(idx,))
                   for idx in range(attempts)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)          # let the queue + inflight bounds fill
        gate.set()               # release the admitted requests
        for thread in threads:
            thread.join()
    finally:
        server.close()
        frontend.close()

    served = sum(1 for verdict in outcomes if verdict == "served")
    shed = attempts - served
    print(f"{attempts} concurrent requests against max_queue=2 / "
          f"max_inflight=4: {served} served, {shed} shed with retryable "
          f"53xxx errors")
    assert shed > 0 and served > 0


def main() -> None:
    obs = Observability(enabled=True)
    db = build_db()

    server = NetServer(db, obs=obs, admin=db)
    host, port = server.start()
    print(f"NetServer listening on {host}:{port} "
          f"(PostgreSQL wire protocol, trust auth)")

    # A first session: simple protocol for session knobs and health
    # checks, extended protocol for feature requests.
    with NetClient(host, port) as client:
        print(f"server_version = "
              f"{client.server_parameters['server_version']}")
        assert client.query("SELECT 1")[0].scalar() == "1"
        param_oids = client.prepare(
            "s0", "EXECUTE card_features ($1, $2, $3)")
        print(f"prepared statement parameter OIDs: {param_oids}")
        features = client.execute("s0", ["c3", 60_000, 2.5])
        print(f"features over the wire: columns={features.columns} "
              f"rows={features.rows}")

    print("\n-- concurrent clients --")
    concurrent_clients(host, port)
    server.close()

    print("\n-- deadline-exceeded path --")
    deadline_path(db)

    print("\n-- load-shedding path --")
    shed_path(db)

    print("\nnetserve metrics (shared registry):")
    for line in obs.registry.render().splitlines():
        if line.lstrip().startswith("netserve."):
            print(line)

    db.close()


if __name__ == "__main__":
    main()
