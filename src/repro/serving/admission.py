"""Admission control: bounded FIFO queues, a concurrency limiter, and
the per-deployment combiner role.

The serving frontend admits every request through one
:class:`AdmissionController`.  Admission can fail — that is the point:
past the configured bounds the controller sheds load with a typed
:class:`~repro.errors.OverloadError` instead of queueing without limit,
so the latency of *admitted* requests stays bounded while the system is
saturated (the graceful-degradation story of the paper's Section 8.2,
applied to the request path).

Three bounds, checked in order:

1. **draining** — a frontend that is shutting down admits nothing new;
2. **in-flight limit** — admitted-but-unfinished requests across all
   deployments (the concurrency limiter);
3. **per-deployment queue bound** — each deployment owns a bounded
   FIFO queue; a full queue sheds the newcomer (``reason="queue_full"``).

No worker thread drains the queues: each deployment's queue has at most
one *combiner*, a caller running its batches on its own thread (flat
combining, Hendler et al., SPAA 2010).  It pulls them with :meth:`take`
and, once its own ticket is done, :meth:`leave` hands the role to the
oldest caller still waiting, so no queued ticket is ever stranded.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import OverloadError
from ..obs import NULL_OBS, Observability
from .deadline import Deadline

__all__ = ["AdmissionController", "Ticket"]


class Ticket:
    """One request travelling through the frontend, and its outcome.

    Once ``done``, ``outcome`` holds the answer: the feature dict, or
    the exception the caller raises.  A waiting caller blocks on
    ``wake``, released when the ticket is done or the combiner role is
    handed to it (``baton``); ``waiting`` is False once it gave up at
    its deadline.  Single-flight riders each add a held lock to
    ``riders``, released when the ticket is done.
    """

    __slots__ = ("deployment", "row", "deadline", "enqueued_s", "wake",
                 "waiting", "baton", "done", "outcome", "riders")

    def __init__(self, deployment: str, row: Tuple[Any, ...],
                 deadline: Optional[Deadline] = None) -> None:
        self.deployment = deployment
        self.row = row
        self.deadline = deadline
        self.enqueued_s = time.monotonic()
        self.wake: Optional[threading.Lock] = None
        self.waiting = True
        self.baton = False
        self.done = False
        self.outcome: Any = None
        self.riders: Optional[List[threading.Lock]] = None


class _Lane:
    """One deployment's FIFO queue and its combiner state."""

    __slots__ = ("queue", "combining", "fill", "depth")

    def __init__(self, lock: threading.Lock, depth: Any) -> None:
        self.queue: Deque[Ticket] = collections.deque()
        self.combining = False
        self.fill = threading.Condition(lock)  # a lone ticket got company
        self.depth = depth  # the serving.queue.depth gauge


class AdmissionController:
    """Bounded per-deployment FIFO admission with an in-flight limit.

    Args:
        max_queue: per-deployment queued-request bound.
        max_inflight: admitted-but-unfinished bound across deployments
            (queued + executing); ``None`` disables the limiter.
        obs: observability handle for queue-depth gauges and the
            in-flight gauge.
    """

    def __init__(self, max_queue: int = 64,
                 max_inflight: Optional[int] = None,
                 obs: Optional[Observability] = None) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self._obs = obs or NULL_OBS
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._lanes: Dict[str, _Lane] = {}
        self._inflight = 0
        self._draining = False
        self._closed = False
        self._g_inflight = self._obs.registry.gauge("serving.inflight")

    # ------------------------------------------------------------------
    # caller side

    def admit(self, ticket: Ticket) -> bool:
        """Admit one request or shed it with :class:`OverloadError`.

        Returns True when the caller must combine (its deployment had
        no combiner); otherwise ``ticket.wake`` is set for it to wait on.
        """
        with self._lock:
            if self._draining or self._closed:
                state = "closed" if self._closed else "draining"
                raise OverloadError(
                    f"frontend is {state}; request shed",
                    deployment=ticket.deployment, reason=state)
            if self.max_inflight is not None \
                    and self._inflight >= self.max_inflight:
                raise OverloadError(
                    f"in-flight limit {self.max_inflight} reached",
                    deployment=ticket.deployment, reason="inflight")
            lane = self._lanes.get(ticket.deployment)
            if lane is None:
                lane = self._lanes[ticket.deployment] = _Lane(
                    self._lock, self._obs.registry.gauge(
                        "serving.queue.depth",
                        deployment=ticket.deployment))
            queue = lane.queue
            if len(queue) >= self.max_queue:
                raise OverloadError(
                    f"deployment {ticket.deployment!r} queue is full "
                    f"({self.max_queue} queued)",
                    deployment=ticket.deployment, reason="queue_full")
            queue.append(ticket)
            self._inflight += 1
            lane.depth.set(len(queue))
            self._g_inflight.set(self._inflight)
            if not lane.combining:
                lane.combining = True
                return True
            ticket.wake = threading.Lock()
            ticket.wake.acquire()
            if len(queue) == 2:
                lane.fill.notify()  # a lone ticket has company
            return False

    def abandon(self, ticket: Ticket) -> bool:
        """The caller gave up waiting at its deadline; True if it was
        handed the combiner role first (and must pass it on)."""
        with self._lock:
            ticket.waiting = False
            if ticket.baton:
                ticket.wake.acquire(False)  # the handoff's release
            return ticket.baton

    def release(self, count: int = 1) -> None:
        """Mark ``count`` admitted requests finished."""
        with self._lock:
            self._inflight -= count
            self._g_inflight.set(self._inflight)
            if self._inflight == 0 and self._draining:
                self._idle.notify_all()  # only drain() waits on it

    # ------------------------------------------------------------------
    # combiner side

    def take(self, deployment: str, max_batch: int, max_wait_ms: float,
             deadline: Optional[Deadline] = None) -> List[Ticket]:
        """Pop the combiner's next batch: up to ``max_batch`` queued
        tickets, oldest first.  A lone ticket waits up to
        ``max_wait_ms`` (never past the combiner's own ``deadline``)
        for company; once a second is queued the batch goes at once."""
        with self._lock:
            lane = self._lanes[deployment]
            queue = lane.queue
            if len(queue) < min(2, max_batch) and max_wait_ms > 0 \
                    and not self._closed:
                now = time.monotonic()
                end_s = now + max_wait_ms / 1_000.0
                if deadline is not None:
                    end_s = min(end_s,
                                now + deadline.remaining_ms() / 1_000.0)
                while len(queue) < 2 and not self._closed:
                    remaining = end_s - time.monotonic()
                    if remaining <= 0:
                        break
                    lane.fill.wait(remaining)
            batch = [queue.popleft()
                     for _ in range(min(max_batch, len(queue)))]
            lane.depth.set(len(queue))
            return batch

    def leave(self, deployment: str) -> List[Ticket]:
        """Release the combiner role, or hand it to the oldest queued
        caller still waiting.  If every queued caller gave up, their
        (expired) tickets come back for the combiner to drop first."""
        with self._lock:
            lane = self._lanes[deployment]
            queue = lane.queue
            if not queue:
                lane.combining = False
                return []
            for ticket in queue:
                if ticket.waiting:
                    ticket.baton = True
                    ticket.wake.release()
                    return []
            abandoned = list(queue)
            queue.clear()
            lane.depth.set(0)
            return abandoned

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting; wait for every admitted request to finish.

        Returns False if in-flight work did not finish in ``timeout``
        seconds (the frontend is left draining either way).
        """
        with self._lock:
            self._draining = True
            return self._idle.wait_for(lambda: self._inflight == 0,
                                       timeout=timeout)

    def close(self) -> None:
        """Stop admitting for good; a combiner holding a batch window
        open dispatches at once."""
        with self._lock:
            self._draining = True
            self._closed = True
            for lane in self._lanes.values():
                lane.fill.notify_all()
