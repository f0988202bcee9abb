"""Request deadlines with ambient (thread-local) propagation.

A :class:`Deadline` is an absolute point on the monotonic clock derived
from a per-request budget.  The serving frontend installs the active
request's deadline in a thread-local slot (:func:`deadline_scope`)
around execution; downstream layers read it back with
:func:`current_deadline`:

* the nameserver's one routed call (``NameServer._routed``, which every
  ``put`` and every cluster read runs in) clamps every per-RPC timeout
  and every backoff to the remaining budget and stops retrying once it
  is spent — a request never retries past its own deadline;
* the tablet RPC guard rejects calls whose deadline already expired
  before doing any work;
* the online engine checks the budget between windows, so a request
  that ran out mid-plan stops scanning instead of finishing late.

Propagating ambiently (rather than threading a parameter through every
storage call) mirrors how gRPC deadlines ride request context, and
keeps the zero-cost property: with no deadline installed the check is
one thread-local read — an attribute the slot's class defaults to
``None``, so a thread that never installed a deadline finds it without
the failed instance lookup a bare ``threading.local`` costs.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import ContextManager, Iterator, Optional

from ..errors import DeadlineExceededError

__all__ = ["Deadline", "current_deadline", "deadline_scope"]


class Deadline:
    """An absolute deadline on the monotonic clock.

    Args:
        budget_ms: milliseconds from *now* until expiry.
    """

    __slots__ = ("budget_ms", "_expires_s")

    def __init__(self, budget_ms: float) -> None:
        self.budget_ms = budget_ms
        self._expires_s = time.monotonic() + budget_ms / 1_000.0

    @classmethod
    def after(cls, budget_ms: float) -> "Deadline":
        """Alias constructor that reads as prose: ``Deadline.after(50)``."""
        return cls(budget_ms)

    def remaining_ms(self) -> float:
        """Budget left, in milliseconds (never negative)."""
        return max((self._expires_s - time.monotonic()) * 1_000.0, 0.0)

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires_s

    def clamp_ms(self, timeout_ms: Optional[float]) -> float:
        """Clamp a per-RPC timeout to the remaining budget."""
        remaining = self.remaining_ms()
        if timeout_ms is None:
            return remaining
        return min(timeout_ms, remaining)

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"{what} exceeded its {self.budget_ms:g} ms deadline")

    def __repr__(self) -> str:
        return (f"Deadline(budget_ms={self.budget_ms:g}, "
                f"remaining_ms={self.remaining_ms():.3f})")


class _Ambient(threading.local):
    """This thread's ambient deadline; ``None`` until a scope installs
    one."""

    deadline: Optional[Deadline] = None


_ambient = _Ambient()


def current_deadline() -> Optional[Deadline]:
    """The deadline installed on this thread, if any."""
    return _ambient.deadline


_NO_SCOPE = contextlib.nullcontext()


def deadline_scope(deadline: Optional[Deadline]
                   ) -> ContextManager[None]:
    """Install ``deadline`` as this thread's ambient deadline.

    ``deadline_scope(None)`` is a no-op (one shared null context: every
    request of every host passes through here), so callers can pass an
    optional deadline straight through.  Scopes nest; the previous
    deadline is restored on exit.
    """
    return _NO_SCOPE if deadline is None else _installed(deadline)


def no_ambient_deadline() -> ContextManager[None]:
    """Clear this thread's ambient deadline for the scope."""
    return _NO_SCOPE if current_deadline() is None else _installed(None)


@contextlib.contextmanager
def _installed(deadline: Optional[Deadline]) -> Iterator[None]:
    previous = _ambient.deadline
    _ambient.deadline = deadline
    try:
        yield
    finally:
        _ambient.deadline = previous
