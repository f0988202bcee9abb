"""Per-request trace spans with cross-node context propagation.

A :class:`Tracer` produces :class:`Span` trees: the online path of one
request renders as

::

    deployment.execute            (root — where the deployment is known)
    ├─ index.seek                 (LAST JOIN index lookups)
    ├─ window.scan                (window row fetches)
    │  └─ ...                     (tablet-side children in cluster mode)
    ├─ agg.fold                   (folding compiled aggregates and the
    │                              memoized block and span summaries)
    └─ encode                     (final projection)

Span parentage is tracked with a thread-local stack, so ``with
tracer.span(...)`` nests naturally.  For the simulated cluster, where a
request hops from the nameserver "frontend" to tablet servers, the
caller serialises the active span with :meth:`Tracer.inject` and the
tablet resumes it with :meth:`Tracer.start_from` — the same
trace-context propagation a real RPC layer performs, which is what
stitches one trace across tablet servers.

A disabled tracer returns one shared no-op span from every call and
records nothing.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Union

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed operation; a context manager that finishes on exit."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "tags", "start_s", "end_s")

    def __init__(self, tracer: "Tracer", trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str,
                 tags: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None

    def set_tag(self, **tags: Any) -> None:
        self.tags.update(tags)

    @property
    def duration_ms(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return (end - self.start_s) * 1_000

    def context(self) -> Dict[str, int]:
        """The wire form of this span (see :meth:`Tracer.inject`)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def finish(self) -> None:
        if self.end_s is None:
            self.end_s = time.perf_counter()
            self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.finish()
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "tags": dict(self.tags), "start_s": self.start_s,
                "duration_ms": self.duration_ms}


class _NullSpan:
    """Shared no-op span: the whole disabled tracing path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set_tag(self, **tags: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def context(self) -> None:
        return None


NULL_SPAN = _NullSpan()

_Parent = Union[Span, Dict[str, int], None]


class Tracer:
    """Produces and collects spans for one process (or simulated node)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._finished: List[Span] = []
        self._finished_lock = threading.Lock()
        self._local = threading.local()

    # -- span creation --------------------------------------------------

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: _Parent = None,
             **tags: Any) -> Union[Span, _NullSpan]:
        """Open a span; parent defaults to the thread's innermost span.

        With no parent anywhere, the span roots a new trace.  Pass
        ``parent=`` explicitly to attach work running on another thread
        (the offline engine's pool) or resumed from another node.
        """
        if not self.enabled:
            return NULL_SPAN
        trace_id: Optional[int] = None
        parent_id: Optional[int] = None
        if parent is None:
            stack = self._stack()
            if stack:
                parent = stack[-1]
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif isinstance(parent, dict):
            trace_id = parent.get("trace_id")
            parent_id = parent.get("span_id")
        if trace_id is None:
            trace_id = self._next_id()
        span = Span(self, trace_id, self._next_id(), parent_id, name, tags)
        self._stack().append(span)
        return span

    def root(self, name: str, **tags: Any) -> Union[Span, _NullSpan]:
        """Open a span that roots a new trace even inside another one
        (a batch run on a caller's thread is not that caller's child)."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, self._next_id(), self._next_id(), None, name,
                    tags)
        self._stack().append(span)
        return span

    def start_from(self, context: Optional[Dict[str, int]], name: str,
                   **tags: Any) -> Union[Span, _NullSpan]:
        """Resume a propagated trace context (the RPC-receive side).

        ``context`` is what :meth:`inject` produced on the caller; with
        ``None`` the span falls back to local parentage (or a new root).
        """
        return self.span(name, parent=context, **tags)

    def inject(self) -> Optional[Dict[str, int]]:
        """Serialise the active span for propagation across a hop."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1].context() if stack else None

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # out-of-order finish: still unwind correctly
            stack.remove(span)
        with self._finished_lock:
            self._finished.append(span)

    # -- export ----------------------------------------------------------

    def export(self, trace_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Finished spans as dicts (all traces, or one), oldest first."""
        with self._finished_lock:
            spans = list(self._finished)
        spans.sort(key=lambda span: (span.trace_id, span.start_s))
        return [span.to_dict() for span in spans
                if trace_id is None or span.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        with self._finished_lock:
            seen: Dict[int, None] = {}
            for span in self._finished:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def last_trace(self) -> List[Dict[str, Any]]:
        ids = self.trace_ids()
        return self.export(ids[-1]) if ids else []

    def render(self, trace_id: Optional[int] = None) -> str:
        """ASCII tree of one trace (default: the most recent)."""
        if trace_id is None:
            ids = self.trace_ids()
            if not ids:
                return "(no traces recorded)"
            trace_id = ids[-1]
        spans = self.export(trace_id)
        children: Dict[Optional[int], List[Dict[str, Any]]] = {}
        for span in spans:
            children.setdefault(span["parent_id"], []).append(span)
        known = {span["span_id"] for span in spans}
        lines = [f"trace {trace_id}"]

        def walk(parent_key: Optional[int], indent: str) -> None:
            siblings = children.get(parent_key, [])
            for position, span in enumerate(siblings):
                last = position == len(siblings) - 1
                branch = "└─ " if last else "├─ "
                tag_text = " ".join(
                    f"{key}={value}"
                    for key, value in sorted(span["tags"].items()))
                lines.append(
                    f"{indent}{branch}{span['name']} "
                    f"({span['duration_ms']:.3f} ms)"
                    + (f"  {tag_text}" if tag_text else ""))
                walk(span["span_id"],
                     indent + ("   " if last else "│  "))

        # Roots: spans with no parent, or whose parent wasn't captured
        # locally (a remote parent on another node's tracer).
        roots = [key for key in children
                 if key is None or key not in known]
        for root in roots:
            walk(root, "")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._finished_lock:
            self._finished.clear()
        self._local = threading.local()
