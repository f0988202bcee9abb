"""The serving frontend: request lifecycle ownership for online serving.

:class:`FrontendServer` sits in front of a request backend — a
:class:`~repro.cluster.NameServer` or a single-node
:class:`~repro.OpenMLDB` — and owns everything between "a client called
``request``" and "features came back":

* **admission control** — bounded per-deployment FIFO queues plus a
  global in-flight limiter; past the bounds, requests are shed with
  :class:`~repro.errors.OverloadError` (see :mod:`repro.serving.admission`);
* **micro-batching by flat combining** — no worker thread: a caller
  that finds its deployment without a combiner hands the queued batch,
  in arrival order, to the backend's ``request_batch`` on its own
  thread; everyone else waits on its own ticket.  Only a lone request
  waits (``max_wait_ms``) for company: a batch with two or more goes
  at once.  The :class:`Ticket` carries the
  outcome: there is no future, and a combiner reads its own answer
  off its ticket;
* **deadline propagation** — a per-request ``timeout_ms`` becomes a
  :class:`~repro.serving.deadline.Deadline` that clamps every routed
  RPC's timeout; a request that expires while queued is dropped
  without executing, and a late result is raised, never returned;
* **single-flight dedup** — identical concurrent requests (same
  deployment, same request row: the thundering herd on a hot key)
  compute once: each rider waits on its leader's ticket and gets its
  outcome;
* **graceful drain** — :meth:`drain` stops admissions and waits for
  every admitted request to finish; :meth:`close` drains and then
  refuses every later request.  Both are idempotent.

Every stage is visible through the observability layer (queue-depth
gauges, shed/dedup counters, batch-size and latency histograms — see
docs/observability.md for the serving metric table).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import DeadlineExceededError, OverloadError
from ..obs import NULL_OBS, Observability
from .admission import AdmissionController, Ticket
from .deadline import Deadline, no_ambient_deadline

__all__ = ["FrontendServer"]


class FrontendServer:
    """Admission-controlled, micro-batching request frontend.

    Args:
        backend: a :class:`~repro.core.deployment.DeploymentHost` (a
            :class:`~repro.cluster.NameServer` or a single-node
            :class:`~repro.OpenMLDB`), or anything with its
            ``request_batch(name, rows, deadlines)`` contract: one
            outcome per row, in order — the feature dict or the
            :class:`~repro.errors.OpenMLDBError` that row raised.  Every
            batch runs through it, as admitted; ``describe_deployment``
            is asked only by network frontends.
        obs: observability handle (share the backend's to get one
            registry across frontend and cluster).
        max_queue: per-deployment queued-request bound (admission).
        max_inflight: global bound on admitted-but-unfinished requests;
            defaults to ``4 * max_queue``.
        max_batch: how many requests one batch executes at most.
        max_wait_ms: how long a lone request waits for company; a
            batch with two or more queued goes at once, and 0 sends a
            lone request at once too.
        default_timeout_ms: deadline applied when a request does not
            bring its own; ``None`` means no deadline by default.
        single_flight: collapse identical concurrent requests.
        tenants: optional :class:`~repro.ctlplane.TenantRegistry`; when
            set, every request's ``tenant`` is charged one token from
            that tenant's rate budget *before* admission, so an
            over-rate tenant is shed at the door
            (:class:`~repro.errors.TenantBudgetError`) without ever
            occupying a queue slot other tenants need.
    """

    def __init__(self, backend: Any,
                 obs: Optional[Observability] = None, *,
                 max_queue: int = 64,
                 max_inflight: Optional[int] = None,
                 max_batch: int = 8,
                 max_wait_ms: float = 1.0,
                 default_timeout_ms: Optional[float] = None,
                 single_flight: bool = True,
                 tenants: Optional[Any] = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self._backend = backend
        self._request_batch = backend.request_batch
        self._obs = obs or NULL_OBS
        self._tenants = tenants
        self._default_timeout_ms = default_timeout_ms
        self._single_flight = single_flight
        self._max_batch = max_batch
        self._max_wait_ms = max_wait_ms
        self._closed = False
        self._lifecycle_lock = threading.Lock()

        self._flight_lock = threading.Lock()
        self._in_flight: Dict[Tuple[str, Tuple[Any, ...]], Ticket] = {}

        registry = self._obs.registry
        self._m_admitted = registry.counter("serving.admitted")
        self._m_dedup = registry.counter("serving.dedup")
        self._m_expired = registry.counter("serving.deadline.expired")
        self._m_batches = registry.counter("serving.batches")
        self._h_batch_size = registry.histogram("serving.batch.size")
        self._h_queue_wait = registry.histogram("serving.queue.wait.ms")
        self._h_request = registry.histogram("serving.request.ms")
        self._shed_counters: Dict[Tuple[str, str], Any] = {}

        self._admission = AdmissionController(
            max_queue=max_queue,
            max_inflight=(max_inflight if max_inflight is not None
                          else 4 * max_queue),
            obs=self._obs)

    # ------------------------------------------------------------------
    # client surface

    def request(self, name: str, row: Sequence[Any], *,
                timeout_ms: Optional[float] = None,
                tenant: str = "") -> Dict[str, Any]:
        """Execute one request through admission, batching, and dedup.

        Blocks until the features are ready (closed-loop clients), the
        request is shed (:class:`OverloadError`), or its deadline budget
        runs out (:class:`DeadlineExceededError`).  The calling thread
        may combine: run a batch of its own and others' requests.

        Args:
            name: deployment name.
            row: request tuple for the deployment's primary table.
            timeout_ms: per-request deadline budget; overrides the
                frontend's ``default_timeout_ms``.
            tenant: charge this tenant's rate budget (requires a
                registry via the ``tenants`` constructor arg); an
                over-rate tenant is shed with
                :class:`~repro.errors.TenantBudgetError` before
                admission, so its burst cannot crowd out others.
        """
        if self._tenants is not None and tenant:
            try:
                self._tenants.acquire(tenant, deployment=name)
            except OverloadError as exc:
                self._count_shed(name, exc.reason)
                raise
        budget = timeout_ms if timeout_ms is not None \
            else self._default_timeout_ms
        deadline = Deadline.after(budget) if budget is not None else None
        ticket = Ticket(name, tuple(row), deadline)
        if self._single_flight:
            with self._flight_lock:
                leader = self._in_flight.setdefault((name, ticket.row),
                                                    ticket)
                if leader is not ticket:
                    wake = _ride(leader)
            if leader is not ticket:
                # Thundering herd: an identical request is already
                # queued or executing — ride its outcome, never cancel
                # its ticket.
                self._m_dedup.inc()
                if not leader.done and not wake.acquire(
                        timeout=_timeout_s(deadline)) \
                        and not leader.done:
                    raise self._late(name)
                return _outcome(leader)
        try:
            combine = self._admission.admit(ticket)
        except OverloadError as exc:
            self._count_shed(name, exc.reason)
            self._forget(name, [ticket])
            _settle(ticket, exc)  # fail its riders
            raise
        self._m_admitted.inc()
        if combine or self._wait(ticket):
            self._combine(ticket)
            if deadline is not None and deadline.expired:
                raise self._late(name)
        return _outcome(ticket)

    def _wait(self, ticket: Ticket) -> bool:
        """Wait for the ticket's outcome; True if handed the combiner
        role instead.  Raises :class:`DeadlineExceededError` on time."""
        if ticket.wake.acquire(timeout=_timeout_s(ticket.deadline)):
            return ticket.baton
        if self._admission.abandon(ticket):
            self._leave(ticket.deployment)  # pass the role on
        raise self._late(ticket.deployment)

    @staticmethod
    def _late(name: str) -> DeadlineExceededError:
        return DeadlineExceededError(f"request on {name!r} exceeded its "
                                     f"deadline waiting for the result")

    def _combine(self, ticket: Ticket) -> None:
        """Run batches until ``ticket`` is done, then hand the role on;
        never under this thread's ambient deadline."""
        name = ticket.deployment
        ticket.waiting = False  # the role is never handed back to it
        try:
            with no_ambient_deadline():
                while not ticket.done:
                    self._execute_batch(name, self._admission.take(
                        name, self._max_batch, self._max_wait_ms,
                        ticket.deadline))
        finally:
            self._leave(name)

    def _leave(self, name: str) -> None:
        """Hand the role on, first dropping abandoned tickets."""
        while True:
            abandoned = self._admission.leave(name)
            if not abandoned:
                return
            self._execute_batch(name, abandoned)

    def describe_deployment(self, name: str) -> Any:
        """Delegate deployment introspection to the backend.

        Network frontends (``repro.netserve``) describe prepared
        statements through the same frontend they execute through, so
        the whole serving stack stays one object to wire up.
        """
        return self._backend.describe_deployment(name)

    # ------------------------------------------------------------------
    # combiner side

    def _execute_batch(self, name: str, tickets: List[Ticket]) -> None:
        """Run one micro-batch and settle every ticket in it."""
        now = time.monotonic()
        live: List[Ticket] = []
        try:
            for ticket in tickets:
                self._h_queue_wait.observe(
                    (now - ticket.enqueued_s) * 1_000.0)
                if ticket.deadline is not None and ticket.deadline.expired:
                    # Expired while queued: drop without executing.
                    self._m_expired.inc()
                    self._complete(ticket, DeadlineExceededError(
                        f"request on {name!r} expired after "
                        f"{(now - ticket.enqueued_s) * 1_000.0:.1f} ms "
                        f"in the queue"))
                else:
                    live.append(ticket)
            if live:
                self._m_batches.inc()
                self._h_batch_size.observe(len(live))
                outcomes = self._request_batch(
                    name, [ticket.row for ticket in live],
                    deadlines=[ticket.deadline for ticket in live])
                for ticket, outcome in zip(live, outcomes):
                    if isinstance(outcome, DeadlineExceededError):
                        self._m_expired.inc()
                    self._complete(ticket, outcome)
        except BaseException as exc:  # never strand a waiting caller
            for ticket in tickets:
                self._complete(ticket, exc)
        finally:
            self._forget(name, tickets)
            for ticket in tickets:
                if not ticket.done:  # defensive backstop
                    self._complete(ticket, OverloadError(
                        "batch executor completed without a result",
                        deployment=name, reason="internal"))
            self._admission.release(len(tickets))

    def _complete(self, ticket: Ticket, outcome: Any) -> None:
        if ticket.done:
            return
        self._h_request.observe(
            (time.monotonic() - ticket.enqueued_s) * 1_000.0)
        _settle(ticket, outcome)

    # ------------------------------------------------------------------
    # shedding bookkeeping

    def _count_shed(self, deployment: str, reason: str) -> None:
        key = (deployment, reason)
        counter = self._shed_counters.get(key)
        if counter is None:
            counter = self._obs.registry.counter(
                "serving.shed", deployment=deployment, reason=reason)
            self._shed_counters[key] = counter
        counter.inc()

    def _forget(self, name: str, tickets: List[Ticket]) -> None:
        """Drop the single-flight entries ``tickets`` lead: a later
        identical request computes afresh."""
        if not self._single_flight:
            return
        in_flight = self._in_flight
        with self._flight_lock:
            for ticket in tickets:
                key = (name, ticket.row)
                if in_flight.get(key) is ticket:
                    del in_flight[key]

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def draining(self) -> bool:
        return self._admission.draining

    @property
    def inflight(self) -> int:
        return self._admission.inflight

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting new requests; wait for admitted ones to finish.

        New arrivals shed with ``reason="draining"`` from the moment
        this is called.  Returns False if in-flight work did not finish
        within ``timeout`` seconds.
        """
        return self._admission.drain(timeout=timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Drain, then refuse every later request.  Idempotent."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        self._admission.drain(timeout=timeout)
        self._admission.close()

    def __enter__(self) -> "FrontendServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _timeout_s(deadline: Optional[Deadline]) -> float:
    """A lock wait's timeout for ``deadline``: -1 (none) without one."""
    return -1.0 if deadline is None else min(
        deadline.remaining_ms() / 1_000.0, threading.TIMEOUT_MAX)


def _ride(leader: Ticket) -> threading.Lock:
    """Add a held lock to ``leader``'s riders, under the flight lock;
    :func:`_settle` releases it.  The rider checks ``leader.done``
    after this, and settling sets ``done`` before it reads ``riders``,
    so a rider is never left waiting on a ticket already settled."""
    wake = threading.Lock()
    wake.acquire()
    if leader.riders is None:
        leader.riders = [wake]
    else:
        leader.riders.append(wake)
    return wake


def _settle(ticket: Ticket, outcome: Any) -> None:
    """Give ``ticket`` its outcome and wake its caller and riders."""
    ticket.outcome = outcome
    ticket.done = True
    if ticket.wake is not None:
        ticket.wake.release()
    if ticket.riders is not None:
        for wake in ticket.riders:
            wake.release()


def _outcome(ticket: Ticket) -> Dict[str, Any]:
    """A settled ticket's features, or its error raised."""
    outcome = ticket.outcome
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome
