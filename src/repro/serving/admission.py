"""Admission control: bounded FIFO queues and a concurrency limiter.

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

Workers pull work with :meth:`AdmissionController.next_batch`, which
blocks until a deployment has queued requests, then returns up to
``max_batch`` of them (waiting at most ``max_wait_ms`` after the first
to let a batch fill).  Deployments are served round-robin so one hot
deployment cannot starve the rest.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import OverloadError
from ..obs import NULL_OBS, Observability
from .deadline import Deadline

__all__ = ["AdmissionController", "Ticket"]


@dataclasses.dataclass
class Ticket:
    """One admitted request travelling through the frontend."""

    deployment: str
    row: Tuple[Any, ...]
    future: Any  # concurrent.futures.Future
    deadline: Optional[Deadline] = None
    enqueued_s: float = dataclasses.field(default_factory=time.monotonic)


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
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[Ticket]] = {}
        self._rotation: List[str] = []
        self._next_slot = 0
        self._inflight = 0
        self._draining = False
        self._closed = False
        self._depth_gauges: Dict[str, Any] = {}
        self._g_inflight = self._obs.registry.gauge("serving.inflight")

    # ------------------------------------------------------------------
    # caller side

    def admit(self, ticket: Ticket) -> None:
        """Admit one request or shed it with :class:`OverloadError`."""
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
            queue = self._queues.get(ticket.deployment)
            if queue is None:
                queue = self._queues[ticket.deployment] = \
                    collections.deque()
                self._rotation.append(ticket.deployment)
            if len(queue) >= self.max_queue:
                raise OverloadError(
                    f"deployment {ticket.deployment!r} queue is full "
                    f"({self.max_queue} queued)",
                    deployment=ticket.deployment, reason="queue_full")
            queue.append(ticket)
            self._inflight += 1
            self._depth_gauge(ticket.deployment).set(len(queue))
            self._g_inflight.set(self._inflight)
            self._work.notify()

    def release(self, count: int = 1) -> None:
        """Mark ``count`` admitted requests finished (worker side)."""
        with self._lock:
            self._inflight -= count
            self._g_inflight.set(self._inflight)
            if self._inflight == 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------
    # worker side

    def next_batch(self, max_batch: int, max_wait_ms: float
                   ) -> Optional[Tuple[str, List[Ticket]]]:
        """Block until work exists; return one deployment's batch.

        After the first queued request is seen, waits up to
        ``max_wait_ms`` for the batch to fill to ``max_batch`` before
        dispatching what is there.  Returns None once the controller is
        closed and empty (worker shutdown signal).
        """
        with self._lock:
            while True:
                name = self._pick_deployment()
                if name is not None:
                    break
                if self._closed:
                    return None
                self._work.wait(timeout=0.1)
            queue = self._queues[name]
            if len(queue) < max_batch and max_wait_ms > 0:
                deadline_s = time.monotonic() + max_wait_ms / 1_000.0
                while len(queue) < max_batch:
                    remaining = deadline_s - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._work.wait(timeout=remaining)
            batch = [queue.popleft()
                     for _ in range(min(max_batch, len(queue)))]
            self._depth_gauge(name).set(len(queue))
            return name, batch

    def _pick_deployment(self) -> Optional[str]:
        """Round-robin over deployments with queued work."""
        if not self._rotation:
            return None
        for step in range(len(self._rotation)):
            name = self._rotation[(self._next_slot + step)
                                  % len(self._rotation)]
            if len(self._queues[name]):
                self._next_slot = (self._next_slot + step + 1) \
                    % len(self._rotation)
                return name
        return None

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def queued(self, deployment: Optional[str] = None) -> int:
        with self._lock:
            if deployment is not None:
                queue = self._queues.get(deployment)
                return len(queue) if queue is not None else 0
            return sum(len(queue) for queue in self._queues.values())

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting; wait for every admitted request to finish.

        Returns False if in-flight work did not finish in ``timeout``
        seconds (the frontend is left draining either way).
        """
        with self._lock:
            self._draining = True
            self._work.notify_all()
            return self._idle.wait_for(lambda: self._inflight == 0,
                                       timeout=timeout)

    def close(self) -> None:
        """Drain-stop: wake workers so they observe shutdown."""
        with self._lock:
            self._draining = True
            self._closed = True
            self._work.notify_all()

    # ------------------------------------------------------------------

    def _depth_gauge(self, deployment: str) -> Any:
        gauge = self._depth_gauges.get(deployment)
        if gauge is None:
            gauge = self._obs.registry.gauge("serving.queue.depth",
                                             deployment=deployment)
            self._depth_gauges[deployment] = gauge
        return gauge
