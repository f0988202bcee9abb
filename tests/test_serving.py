"""Serving-frontend tests: admission, batching, deadlines, lifecycle.

Covers the `repro.serving` subsystem end to end — unit-level over fake
backends (deterministic control of timing) and integration-level over
the simulated cluster — plus the ISSUE acceptance scenario: a saturated
frontend sheds typed ``OverloadError`` while every admitted request
completes during ``drain()``, all of it visible in the metrics
registry.
"""

import threading
import time

import pytest

from repro.cluster import FaultInjector, NameServer, RetryPolicy, TabletServer
from repro.errors import (DeadlineExceededError, OpenMLDBError,
                          OverloadError, SchemaError, ServingError,
                          StorageError)
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.serving import (AdmissionController, Deadline, FrontendServer,
                           Ticket, current_deadline, deadline_scope)
from tests.conftest import PerRowBatch

FAST = RetryPolicy(attempts=2, base_delay_ms=0.1, multiplier=2.0,
                   max_delay_ms=1.0, rpc_timeout_ms=20.0)

FEATURE_SQL = ("SELECT uid, sum(v) OVER w AS s FROM t "
               "WINDOW w AS (PARTITION BY uid ORDER BY ts "
               "ROWS_RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW)")


def make_cluster(obs=None, tablets=3, partitions=2, replicas=2,
                 policy=FAST):
    schema = Schema.from_pairs([
        ("uid", "int"), ("ts", "timestamp"), ("v", "double")])
    cluster = NameServer([TabletServer(f"tablet-{i}")
                          for i in range(tablets)],
                         retry_policy=policy, obs=obs)
    cluster.create_table("t", schema, [IndexDef(("uid",), "ts")],
                         partitions=partitions, replicas=replicas)
    for uid in range(8):
        for k in range(5):
            cluster.put("t", (uid, 1_000 + k * 100, float(k)))
    cluster.deploy("feat", FEATURE_SQL)
    return cluster


class RecordingBackend(PerRowBatch):
    """Fake backend: counts calls, optionally blocks or sleeps."""

    def __init__(self, delay_s=0.0, gate=None):
        self.delay_s = delay_s
        self.gate = gate  # threading.Event the backend waits on
        self.entered = threading.Event()  # set by the first call
        self.calls = 0
        self._lock = threading.Lock()

    def request(self, name, row):
        with self._lock:
            self.calls += 1
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s)
        return {"deployment": name, "row": tuple(row)}


def wait_until(predicate, timeout_s=30.0):
    """Wait on state: poll ``predicate`` until it holds (bounded)."""
    limit = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < limit, "state never reached"
        time.sleep(0.001)


# ---------------------------------------------------------------------
# deadlines


class TestDeadline:
    def test_budget_and_clamp(self):
        deadline = Deadline.after(1_000.0)
        assert 0 < deadline.remaining_ms() <= 1_000.0
        assert deadline.clamp_ms(10_000.0) <= 1_000.0
        assert deadline.clamp_ms(1.0) == 1.0
        assert not deadline.expired

    def test_expiry_and_check(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check("unit test")

    def test_scope_is_ambient_and_nests(self):
        assert current_deadline() is None
        outer = Deadline.after(1_000.0)
        inner = Deadline.after(500.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_scope_is_a_no_op(self):
        outer = Deadline.after(1_000.0)
        with deadline_scope(outer):
            with deadline_scope(None):
                assert current_deadline() is outer

    def test_typed_hierarchy(self):
        # Serving errors must NOT look like storage failures: the retry
        # layer failovers on StorageError, never on shed/deadline.
        assert issubclass(OverloadError, ServingError)
        assert issubclass(DeadlineExceededError, ServingError)
        assert issubclass(ServingError, OpenMLDBError)
        assert not issubclass(ServingError, StorageError)


# ---------------------------------------------------------------------
# admission control


def ticket(deployment="d", row=(1,)):
    return Ticket(deployment=deployment, row=row)


class TestAdmissionControl:
    def test_full_queue_sheds_with_reason(self):
        control = AdmissionController(max_queue=2)
        control.admit(ticket())
        control.admit(ticket())
        with pytest.raises(OverloadError) as err:
            control.admit(ticket())
        assert err.value.reason == "queue_full"
        assert err.value.deployment == "d"
        assert control.inflight == 2

    def test_inflight_limit_sheds(self):
        control = AdmissionController(max_queue=8, max_inflight=1)
        control.admit(ticket())
        with pytest.raises(OverloadError) as err:
            control.admit(ticket())
        assert err.value.reason == "inflight"
        control.release()
        control.admit(ticket())  # slot freed

    def test_draining_sheds_new_arrivals(self):
        control = AdmissionController(max_queue=8)
        control.drain(timeout=0.1)
        with pytest.raises(OverloadError) as err:
            control.admit(ticket())
        assert err.value.reason == "draining"

    def test_each_deployment_batches_apart(self):
        control = AdmissionController(max_queue=8)
        admitted = {"a": [], "b": []}
        combiners = []
        for _ in range(2):
            for name in ("a", "b"):
                admitted[name].append(ticket(deployment=name))
                combiners.append(control.admit(admitted[name][-1]))
        # The first caller of each deployment combines; the rest wait.
        assert combiners == [True, True, False, False]
        assert control.take("a", max_batch=8, max_wait_ms=0) \
            == admitted["a"]
        assert control.take("b", max_batch=8, max_wait_ms=0) \
            == admitted["b"]

    def test_a_batch_keeps_arrival_order(self):
        control = AdmissionController(max_queue=8)
        first, second = ticket(row=(1,)), ticket(row=(2,))
        control.admit(first)
        control.admit(second)
        batch = control.take("d", max_batch=8, max_wait_ms=0)
        assert batch == [first, second]

    def test_leaving_hands_the_role_to_a_waiting_caller(self):
        control = AdmissionController(max_queue=8)
        mine, gone, waiting = ticket(), ticket(), ticket()
        for each in (mine, gone, waiting):
            control.admit(each)
        assert control.take("d", max_batch=1, max_wait_ms=0) == [mine]
        assert control.abandon(gone) is False
        assert control.leave("d") == []
        assert waiting.baton and not gone.baton
        assert waiting.wake.acquire(blocking=False)  # woken to combine

    def test_leaving_returns_what_abandoned_callers_left(self):
        control = AdmissionController(max_queue=8)
        mine, gone = ticket(), ticket()
        control.admit(mine)
        control.admit(gone)
        assert control.take("d", max_batch=1, max_wait_ms=0) == [mine]
        control.abandon(gone)
        assert control.leave("d") == [gone]
        assert control.leave("d") == []
        # The role is free again: the next caller combines.
        assert control.admit(ticket()) is True


# ---------------------------------------------------------------------
# the batching window: a lone ticket waits for company, a pair goes


class WatchedFill(threading.Condition):
    """A lane's fill condition that reports (or forbids) a wait."""

    def __init__(self, lock, forbid=False):
        super().__init__(lock)
        self.forbid = forbid
        self.waiting = threading.Event()

    def wait(self, timeout=None):
        assert not self.forbid, "take waited for company"
        self.waiting.set()  # still under the lock the admit needs
        return super().wait(timeout)


def watch_fill(control, deployment="d", forbid=False):
    lane = control._lanes[deployment]
    lane.fill = WatchedFill(control._lock, forbid=forbid)
    return lane.fill


class TestBatchWindow:
    def lone_take(self, control):
        """A combiner's take over its lone ticket, on a thread."""
        taken = []
        taker = threading.Thread(target=lambda: taken.append(control.take(
            "d", max_batch=8, max_wait_ms=30_000)), daemon=True)
        taker.start()
        return taker, taken

    def test_a_lone_ticket_waits_until_company_arrives(self):
        control = AdmissionController(max_queue=8)
        mine, company = ticket(row=(1,)), ticket(row=(2,))
        assert control.admit(mine) is True
        fill = watch_fill(control)
        taker, taken = self.lone_take(control)
        assert fill.waiting.wait(timeout=5)
        assert control.admit(company) is False  # notifies the combiner
        taker.join(timeout=5)
        assert not taker.is_alive()
        assert taken == [[mine, company]]

    def test_close_releases_a_lone_ticket(self):
        control = AdmissionController(max_queue=8)
        mine = ticket()
        control.admit(mine)
        fill = watch_fill(control)
        taker, taken = self.lone_take(control)
        assert fill.waiting.wait(timeout=5)
        control.close()
        taker.join(timeout=5)
        assert not taker.is_alive()
        assert taken == [[mine]]

    def test_max_batch_one_never_waits(self):
        control = AdmissionController(max_queue=8)
        mine = ticket()
        control.admit(mine)
        watch_fill(control, forbid=True)
        assert control.take("d", max_batch=1, max_wait_ms=30_000) \
            == [mine]

    def test_a_pair_goes_at_once_capped_at_max_batch(self):
        control = AdmissionController(max_queue=8)
        tickets = [ticket(row=(i,)) for i in range(3)]
        for each in tickets:
            control.admit(each)
        watch_fill(control, forbid=True)
        assert control.take("d", max_batch=2, max_wait_ms=30_000) \
            == tickets[:2]
        assert control.take("d", max_batch=8, max_wait_ms=0) \
            == tickets[2:]

    def test_two_concurrent_requests_do_not_wait_out_the_window(self):
        obs = Observability(enabled=True)
        frontend = FrontendServer(RecordingBackend(), obs=obs,
                                  max_wait_ms=30_000)
        results, started = {}, threading.Barrier(2)

        def call(key):
            started.wait()
            results[key] = frontend.request("d", (key,))

        threads = [threading.Thread(target=call, args=(key,), daemon=True)
                   for key in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not [thread for thread in threads if thread.is_alive()]
        frontend.close()
        assert results == {key: {"deployment": "d", "row": (key,)}
                           for key in (1, 2)}
        assert obs.registry.get("serving.batches").value == 1

    def test_tickets_queued_during_a_batch_go_in_the_next(self):
        sizes, queued = [], threading.Semaphore(0)
        later = []

        class Backend(PerRowBatch):
            def request(self, name, row):
                return {"row": tuple(row)}

            def request_batch(self, name, rows, deadlines):
                sizes.append(len(rows))
                if len(sizes) == 1:  # queue two behind this batch
                    for key in (3, 4):
                        later.append(threading.Thread(
                            target=call, args=(key,), daemon=True))
                        later[-1].start()
                    for _ in range(2):
                        assert queued.acquire(timeout=5)
                return super().request_batch(name, rows, deadlines)

        frontend = FrontendServer(Backend(), max_wait_ms=30_000)
        admit = frontend._admission.admit

        def counting_admit(each):
            combine = admit(each)
            if each.row[0] in (3, 4):
                queued.release()
            return combine
        frontend._admission.admit = counting_admit
        results = {}

        def call(key):
            results[key] = frontend.request("d", (key,))

        first = [threading.Thread(target=call, args=(key,), daemon=True)
                 for key in (1, 2)]
        for thread in first:
            thread.start()
        for thread in first:
            thread.join(timeout=5)
        for thread in later:  # started inside the first batch
            thread.join(timeout=5)
        assert not [thread for thread in first + later
                    if thread.is_alive()]
        frontend.close()
        assert sizes == [2, 2]
        assert results == {key: {"row": (key,)} for key in (1, 2, 3, 4)}


# ---------------------------------------------------------------------
# the frontend over fake backends


class TestFrontendUnit:
    def test_request_round_trips(self):
        backend = RecordingBackend()
        with FrontendServer(backend, max_wait_ms=0) as frontend:
            out = frontend.request("d", (1, 2))
        assert out == {"deployment": "d", "row": (1, 2)}
        assert backend.calls == 1

    def test_single_flight_dedups_thundering_herd(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        obs = Observability(enabled=True)
        frontend = FrontendServer(backend, obs=obs, max_wait_ms=0)
        results, started = [], threading.Barrier(4)

        def herd():
            started.wait()
            results.append(frontend.request("d", (7,)))

        threads = [threading.Thread(target=herd) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Wait for the herd to pile onto the single in-flight key, then
        # open the gate: one backend call serves all four clients.
        wait_until(lambda: obs.registry.get("serving.dedup").value == 3)
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        frontend.close()
        assert len(results) == 4
        assert all(result == results[0] for result in results)
        assert backend.calls == 1
        assert obs.registry.get("serving.dedup").value == 3
        assert obs.registry.get("serving.admitted").value == 1

    def test_single_flight_off_executes_each(self):
        backend = RecordingBackend()
        with FrontendServer(backend, single_flight=False,
                            max_wait_ms=0) as frontend:
            for _ in range(3):
                frontend.request("d", (7,))
        assert backend.calls == 3

    def test_deadline_expired_while_queued_is_dropped(self):
        gate = threading.Event()
        backend = RecordingBackend(gate=gate)
        obs = Observability(enabled=True)
        frontend = FrontendServer(backend, obs=obs,
                                  single_flight=False, max_wait_ms=0)
        blocker = threading.Thread(
            target=lambda: frontend.request("d", (1,)))
        blocker.start()
        # The blocker's thread combines, and is now held by the gate.
        assert backend.entered.wait(timeout=30)
        with pytest.raises(DeadlineExceededError):
            frontend.request("d", (2,), timeout_ms=20.0)
        gate.set()
        blocker.join(timeout=30)
        frontend.close()
        assert obs.registry.get("serving.deadline.expired").value >= 1
        assert backend.calls == 1  # the expired request never executed

    def test_a_combiners_late_result_is_raised_not_returned(self):
        obs = Observability(enabled=True)
        with FrontendServer(RecordingBackend(delay_s=0.05), obs=obs,
                            max_wait_ms=0) as frontend:
            # The caller combines its own batch and cannot leave it
            # early; the result lands after its deadline.
            with pytest.raises(DeadlineExceededError):
                frontend.request("d", (1,), timeout_ms=10.0)
        assert obs.registry.get("serving.batches").value == 1

    def test_a_batch_runs_under_no_ambient_deadline_of_its_combiner(self):
        seen = []

        class ScopeBackend(RecordingBackend):
            def request(self, name, row):
                seen.append(current_deadline())
                return super().request(name, row)

        with FrontendServer(ScopeBackend(), max_wait_ms=0) as frontend:
            # The caller's thread runs the batch; a deadline installed
            # on that thread is not the request's.
            with deadline_scope(Deadline.after(60_000.0)):
                frontend.request("d", (1,))
            frontend.request("d", (2,), timeout_ms=60_000.0)
        assert seen[0] is None
        assert seen[1] is not None and seen[1].budget_ms == 60_000.0

    def test_per_row_failure_stays_per_row(self):
        class FlakyBackend(RecordingBackend):
            def request(self, name, row):
                if row[0] == "bad":
                    raise StorageError("injected per-row failure")
                return super().request(name, row)

        with FrontendServer(FlakyBackend(), single_flight=False,
                            max_wait_ms=0) as frontend:
            with pytest.raises(StorageError):
                frontend.request("d", ("bad",))
            # The failure above did not poison the frontend.
            assert frontend.request("d", ("good",))["row"] == ("good",)

    def test_drain_and_close_are_idempotent(self):
        frontend = FrontendServer(RecordingBackend(), max_wait_ms=0)
        assert frontend.request("d", (1,))["row"] == (1,)
        assert frontend.drain() is True
        assert frontend.drain() is True
        frontend.close()
        frontend.close()
        with pytest.raises(OverloadError) as err:
            frontend.request("d", (2,))
        assert err.value.reason in ("draining", "closed")


# ---------------------------------------------------------------------
# the frontend over the cluster


class TestFrontendOverCluster:
    def test_matches_direct_cluster_request(self):
        obs = Observability(enabled=True)
        cluster = make_cluster(obs=obs)
        direct = cluster.request("feat", (3, 1_500, 9.0))
        with FrontendServer(cluster, obs=obs,
                            max_wait_ms=0) as frontend:
            assert frontend.request("feat", (3, 1_500, 9.0)) == direct
        cluster.close()

    def test_batch_shares_window_scans(self):
        obs = Observability(enabled=True)
        cluster = make_cluster(obs=obs)
        rows = [(3, 1_500, 9.0)] * 4
        outcomes = cluster.request_batch("feat", rows)
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert outcomes[0] == cluster.request("feat", (3, 1_500, 9.0))
        cluster.close()

    def test_batch_isolates_per_row_errors(self):
        cluster = make_cluster()
        outcomes = cluster.request_batch(
            "feat", [(3, 1_500, 9.0), ("not-an-int", 1_500, 9.0)])
        assert isinstance(outcomes[0], dict)
        assert isinstance(outcomes[1], SchemaError)
        cluster.close()

    def test_batch_runs_as_admitted_in_one_call(self):
        # Rows queued behind a busy combiner run as one request_batch
        # call, in arrival order even though they route to different
        # partitions, and each ticket gets its own outcome.
        cluster = make_cluster()
        batches, gate = [], threading.Event()
        request_batch = cluster.request_batch

        def spy(name, rows, deadlines=None):
            batches.append(list(rows))
            if len(batches) == 1:
                assert gate.wait(timeout=30)
            return request_batch(name, rows, deadlines=deadlines)
        cluster.request_batch = spy
        rows = [(0, 1_500, 9.0), (4, 1_500, 9.0), (1, "x", 9.0),
                (5, 1_500, 9.0), (2, 1_500, 9.0)]
        partitions = [cluster.partition_for("t", row[0]) for row in rows]
        assert partitions != sorted(partitions)
        frontend = FrontendServer(cluster, max_batch=8, max_wait_ms=0)
        outcomes = {}

        def call(row):
            try:
                outcomes[row] = frontend.request("feat", row)
            except OpenMLDBError as exc:
                outcomes[row] = exc
        threads = [threading.Thread(target=call, args=((7, 1_500, 9.0),))]
        threads[0].start()
        wait_until(lambda: len(batches) == 1)  # the combiner is busy
        for count, row in enumerate(rows, start=2):
            threads.append(threading.Thread(target=call, args=(row,)))
            threads[-1].start()
            wait_until(lambda: frontend.inflight == count)
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        frontend.close()
        assert batches == [[(7, 1_500, 9.0)], rows]
        for row in rows:
            if row[1] == "x":
                assert isinstance(outcomes[row], SchemaError)
            else:
                assert outcomes[row] == cluster.request("feat", row)
        cluster.close()

    def test_deadline_stops_retry_without_failover(self):
        # A slow leader under a generous RPC timeout: only the request
        # deadline can cut the call short.  That must surface as
        # DeadlineExceededError and must NOT suspect the tablet — the
        # budget running out is the client's story, not a failure.
        obs = Observability(enabled=True)
        patient = RetryPolicy(attempts=2, base_delay_ms=0.1,
                              multiplier=2.0, max_delay_ms=1.0,
                              rpc_timeout_ms=1_000.0)
        cluster = make_cluster(obs=obs, policy=patient)
        faults = FaultInjector(cluster)
        for name in list(cluster.tablets):
            faults.slow(name, delay_ms=50.0)
        with pytest.raises(DeadlineExceededError):
            cluster.request("feat", (3, 1_500, 9.0), timeout_ms=20.0)
        assert cluster.failovers == 0
        faults.heal()
        assert cluster.request("feat", (3, 1_500, 9.0))["s"] >= 0
        cluster.close()

    def test_frontend_deadline_propagates_to_rpcs(self):
        patient = RetryPolicy(attempts=2, base_delay_ms=0.1,
                              multiplier=2.0, max_delay_ms=1.0,
                              rpc_timeout_ms=1_000.0)
        cluster = make_cluster(policy=patient)
        faults = FaultInjector(cluster)
        for name in list(cluster.tablets):
            faults.slow(name, delay_ms=50.0)
        with FrontendServer(cluster, max_wait_ms=0) as frontend:
            with pytest.raises(DeadlineExceededError):
                frontend.request("feat", (3, 1_500, 9.0),
                                 timeout_ms=20.0)
        assert cluster.failovers == 0
        cluster.close()


# ---------------------------------------------------------------------
# nameserver lifecycle + narrowed replication errors


class TestNameServerLifecycle:
    def test_close_is_idempotent_and_rejects_traffic(self):
        cluster = make_cluster()
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(StorageError, match="cluster closed"):
            cluster.put("t", (1, 9_000, 1.0))
        with pytest.raises(StorageError, match="cluster closed"):
            cluster.request("feat", (1, 1_500, 1.0))
        with pytest.raises(StorageError, match="cluster closed"):
            cluster.request_batch("feat", [(1, 1_500, 1.0)])


class TestReplicationErrorNarrowing:
    def _cluster_with_follower(self):
        obs = Observability(enabled=True)
        cluster = make_cluster(obs=obs, partitions=1)
        leader = cluster.leader_of("t", 0).name
        follower_name = next(
            name for name in cluster.tables["t"].assignment[0]
            if name != leader)
        return cluster, obs, cluster.tablets[follower_name]

    def test_storage_error_becomes_lag_not_a_write_failure(self):
        cluster, obs, follower = self._cluster_with_follower()
        errors_before = obs.registry.get(
            "cluster.replication.errors").value

        def broken(*args, **kwargs):
            raise StorageError("injected delivery failure")

        follower.replicate = broken
        cluster.put("t", (1, 9_000, 1.0))  # acknowledged regardless
        assert obs.registry.get("cluster.replication.errors").value \
            == errors_before + 1
        cluster.close()

    def test_programming_error_propagates(self):
        cluster, _, follower = self._cluster_with_follower()

        def buggy(*args, **kwargs):
            raise TypeError("a bug, not a delivery failure")

        follower.replicate = buggy
        with pytest.raises(TypeError):
            cluster.put("t", (1, 9_000, 1.0))
        cluster.close()


# ---------------------------------------------------------------------
# ISSUE acceptance: graceful degradation under saturation


class TestSaturationAcceptance:
    def test_saturated_frontend_sheds_and_drains_cleanly(self):
        obs = Observability(enabled=True)
        backend = RecordingBackend(delay_s=0.005)
        frontend = FrontendServer(backend, obs=obs, max_queue=4,
                                  max_inflight=8,
                                  max_batch=4, max_wait_ms=0,
                                  single_flight=False)
        clients = 16
        outcomes = []
        lock = threading.Lock()
        started = threading.Barrier(clients)

        def closed_loop(cid):
            started.wait()
            for i in range(6):
                try:
                    out = frontend.request("feat", (cid, i))
                except OverloadError as exc:
                    out = exc
                with lock:
                    outcomes.append(out)

        threads = [threading.Thread(target=closed_loop, args=(c,))
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert frontend.drain(timeout=30) is True
        frontend.close()

        served = [out for out in outcomes if isinstance(out, dict)]
        shed = [out for out in outcomes
                if isinstance(out, OverloadError)]
        assert len(served) + len(shed) == clients * 6
        # 16 clients against one combiner, queue bound 4, in-flight
        # bound 8: saturation sheds...
        assert shed
        assert {exc.reason for exc in shed} <= {
            "queue_full", "inflight", "draining"}
        # ...but every admitted request completed (served == executed).
        assert len(served) == backend.calls
        assert obs.registry.get("serving.admitted").value == len(served)

        registry = obs.registry
        # The degradation is visible in the registry: shed counters by
        # reason, a batch-size distribution, and empty queues post-drain.
        shed_total = sum(
            series.value for series in registry.series()
            if series.name == "serving.shed")
        assert shed_total == len(shed)
        assert registry.get("serving.batches").value >= 1
        batch_sizes = registry.get("serving.batch.size")
        assert batch_sizes.count >= 1
        assert batch_sizes.max <= 4
        assert registry.get("serving.inflight").value == 0
        depth_gauges = [series for series in registry.series()
                        if series.name == "serving.queue.depth"]
        assert depth_gauges
        assert all(gauge.value == 0 for gauge in depth_gauges)


# ---------------------------------------------------------------------
# combining under stress


class CountingBatchBackend:
    """Fake batch backend: counts the rows it executed."""

    def __init__(self):
        self.executed = 0
        self._lock = threading.Lock()

    def request(self, name, row):
        return self.request_batch(name, [row])[0]

    def request_batch(self, name, rows, deadlines=None):
        with self._lock:
            self.executed += len(rows)
        sum(range(2_000))  # a little work, so queues form
        return [{"deployment": name, "row": tuple(row)} for row in rows]


class TestCombinerStress:
    def test_every_call_ends_typed_and_no_ticket_is_stranded(self):
        import random
        import sys

        obs = Observability(enabled=True)
        backend = CountingBatchBackend()
        frontend = FrontendServer(backend, obs=obs, max_queue=3,
                                  max_batch=4, max_wait_ms=0.2)
        before = set(threading.enumerate())
        wrong, kinds = [], set()
        lock = threading.Lock()
        stop_at = time.monotonic() + 1.0

        def caller(seed):
            rng = random.Random(seed)
            while time.monotonic() < stop_at:
                name = rng.choice(("a", "b"))
                row = (rng.randrange(8),)  # duplicates: single-flight
                timeout_ms = rng.choice((None, 0.05, 0.5, 5.0))
                try:
                    out = frontend.request(name, row,
                                           timeout_ms=timeout_ms)
                    kind = "features"
                    ok = out == {"deployment": name, "row": row}
                except OpenMLDBError as exc:
                    kind, ok = type(exc).__name__, True
                except BaseException as exc:  # noqa: BLE001 - recorded
                    kind, ok = repr(exc), False
                with lock:
                    kinds.add(kind)
                    if not ok:
                        wrong.append(kind)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,),
                                        daemon=True)  # if one strands
                       for seed in range(16)]
            for thread in threads:
                thread.start()
            join_by = time.monotonic() + 30.0
            for thread in threads:
                thread.join(timeout=max(join_by - time.monotonic(), 0.0))
        finally:
            sys.setswitchinterval(previous)
        assert not [thread for thread in threads if thread.is_alive()]
        assert not wrong
        assert "features" in kinds
        assert frontend.inflight == 0
        assert frontend.drain(timeout=10) is True
        frontend.close()
        registry = obs.registry
        assert registry.get("serving.admitted").value \
            == backend.executed + registry.get(
                "serving.deadline.expired").value
        assert set(threading.enumerate()) <= before
