"""repro.serving — the request-path serving frontend.

The paper's online half is about bounded tail latency under real
traffic (TP99 in Figures 6–7); this package supplies the request
lifecycle machinery a production deployment puts in front of the
engine, and starts no thread of its own:

* :class:`FrontendServer` — the frontend itself: admission control,
  micro-batching by flat combining (a caller runs its deployment's
  batch of up to ``max_batch`` on its own thread; only a lone request
  waits ``max_wait_ms`` for company),
  single-flight dedup, deadline propagation, graceful drain, and
  per-deployment SLO metrics.
* :class:`AdmissionController` / :class:`Ticket` — bounded
  per-deployment FIFO queues, each with at most one combiner, plus a
  global in-flight limiter; overload sheds with
  :class:`~repro.errors.OverloadError`.
* :class:`Deadline`, :func:`deadline_scope`, :func:`current_deadline` —
  ambient per-request deadlines that clamp every routed RPC timeout so
  a request never retries past its own budget
  (:class:`~repro.errors.DeadlineExceededError`).
"""

from .admission import AdmissionController, Ticket
from .deadline import Deadline, current_deadline, deadline_scope
from .describe import DeploymentDescriptor
from .frontend import FrontendServer

__all__ = ["FrontendServer", "AdmissionController", "Ticket",
           "Deadline", "current_deadline", "deadline_scope",
           "DeploymentDescriptor"]
