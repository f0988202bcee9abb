"""Hand-in process pool for (key, PART_ID) window tasks (Section 6).

:class:`~repro.offline.engine.OfflineEngine` folds every task in its own
process; Python's GIL means that is one core.  A caller who wants real
parallel compute builds a :class:`WindowProcessPool` and passes it to
``execute(..., pool=)``: the same tasks then run on ``multiprocessing``
workers — the reproduction's stand-in for the paper's multi-server
batch cluster — with two properties the paper's engine also needs:

* **a compact wire format** — rows cross the process boundary encoded
  with the storage layer's :class:`~repro.storage.encoding.RowCodec`
  (the same bytes the binlog and snapshots persist), framed with an
  18-byte per-event header carrying ``(source, ts, anchor, emit)``;
* **a picklable task spec** — closures don't pickle, but the planner's
  frozen :class:`~repro.sql.planner.WindowPlan` and
  :class:`~repro.schema.Schema` do, so each worker *recompiles* the
  window (cached per spec key) and runs the identical
  :class:`~repro.offline.partial.WindowKernel` code path, which is what
  keeps pool output byte-identical to the in-process run.

Workers report their task time via ``time.thread_time()`` (real CPU
seconds measured *in the worker process*) plus a log-bucket histogram
state that the parent merges exactly into its registry
(``Histogram.merge_state`` — the fleet-wide histogram merge that
mergeable partials unlock).

The caller owns the pool's lifetime (it is a context manager).  Pool
creation can fail in sandboxes that forbid ``fork``/``spawn``;
:class:`WindowProcessPool` probes at construction and raises
:class:`ProcessPoolUnavailable` there — at the caller, who decides what
that means (tests and benchmarks ``skip``) — never midway through a run.
"""

from __future__ import annotations

import dataclasses
import struct
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..schema import Schema
from ..storage.encoding import RowCodec
from .partial import TaskEvent, WindowKernel

__all__ = ["WindowTaskSpec", "ProcessPoolUnavailable",
           "WindowProcessPool", "encode_events", "decode_events",
           "run_window_task", "compile_window_spec"]

# Per-event wire header: source table (0 = primary, 1+i = union i),
# timestamp, anchor index (-1 = context-only row), emit flag, row bytes.
_EVENT_HEADER = struct.Struct("<BqiBI")

_TASK_FOLD = "fold"
_TASK_SEGMENT = "segment"
_TASK_CARRY = "carry"


class ProcessPoolUnavailable(ExecutionError):
    """multiprocessing cannot start here; raised at pool construction."""


@dataclasses.dataclass(frozen=True)
class WindowTaskSpec:
    """Everything a worker needs to recompile one window.

    All fields are plain data (frozen dataclasses, tuples, Schemas), so
    the spec pickles at well under a kilobyte — the compiled closures
    stay behind; workers rebuild them once per ``spec_key``.
    """

    plan: Any                      # sql.planner.WindowPlan
    schema: Schema                 # primary table schema
    table: str
    alias: str
    union_schemas: Tuple[Schema, ...] = ()


def compile_window_spec(spec: WindowTaskSpec) -> WindowKernel:
    """Recompile the window exactly as ``CompiledQuery`` does."""
    from ..sql.compiler import CompiledWindow
    from ..sql.expressions import Scope

    scope = Scope()
    scope.add_namespace(spec.alias, spec.schema.column_names)
    if spec.alias != spec.table:
        scope.add_alias(spec.table, spec.alias)
    return WindowKernel(CompiledWindow(spec.plan, spec.schema, scope))


def spec_codecs(spec: WindowTaskSpec) -> List[RowCodec]:
    """One codec per event source: primary first, then each union."""
    return [RowCodec(spec.schema)] + [RowCodec(schema)
                                      for schema in spec.union_schemas]


# ----------------------------------------------------------------------
# event wire format


def encode_events(events: Sequence[Tuple[int, int, Any, Optional[int]]],
                  emit_flags: Sequence[bool],
                  codecs: Sequence[RowCodec]) -> bytes:
    """Frame ``(source, ts, row, anchor)`` events into one task blob."""
    pieces: List[bytes] = []
    pack = _EVENT_HEADER.pack
    for (source, ts, row, anchor), emit in zip(events, emit_flags):
        row_bytes = codecs[source].encode(row)
        pieces.append(pack(source, ts,
                           -1 if anchor is None else anchor,
                           1 if emit else 0, len(row_bytes)))
        pieces.append(row_bytes)
    return b"".join(pieces)


def decode_events(blob: bytes, codecs: Sequence[RowCodec]
                  ) -> Tuple[List[TaskEvent], List[bool]]:
    """Inverse of :func:`encode_events`."""
    events: List[TaskEvent] = []
    emit_flags: List[bool] = []
    unpack = _EVENT_HEADER.unpack_from
    header_size = _EVENT_HEADER.size
    offset = 0
    end = len(blob)
    while offset < end:
        source, ts, anchor, emit, row_len = unpack(blob, offset)
        offset += header_size
        row = codecs[source].decode(blob[offset:offset + row_len])
        offset += row_len
        events.append((ts, row, None if anchor < 0 else anchor))
        emit_flags.append(bool(emit))
    return events, emit_flags


# ----------------------------------------------------------------------
# worker side

# Recompiled kernels keyed by the parent's spec key.  Bounded: an
# engine run uses one key per window, so a handful suffices.
_KERNEL_CACHE: Dict[str, Tuple[WindowKernel, List[RowCodec]]] = {}
_KERNEL_CACHE_CAP = 16


def _kernel_for(spec_key: str, spec: WindowTaskSpec
                ) -> Tuple[WindowKernel, List[RowCodec]]:
    cached = _KERNEL_CACHE.get(spec_key)
    if cached is None:
        if len(_KERNEL_CACHE) >= _KERNEL_CACHE_CAP:
            _KERNEL_CACHE.clear()
        cached = (compile_window_spec(spec), spec_codecs(spec))
        _KERNEL_CACHE[spec_key] = cached
    return cached


def _task_histogram_state(cpu_seconds: float) -> Dict[str, Any]:
    from ..obs.metrics import Histogram

    histogram = Histogram("offline.worker.task.ms")
    histogram.observe(cpu_seconds * 1_000)
    return histogram.state()


def run_window_task(payload: Tuple[str, str, WindowTaskSpec, bytes,
                                   Optional[List[Any]]]
                    ) -> Tuple[str, Any, float, Dict[str, Any]]:
    """Execute one (key, PART_ID) task inside a worker process.

    Returns ``(result_kind, result, cpu_seconds, histogram_state)``.
    ``cpu_seconds`` is this worker's own ``thread_time`` — real process
    compute time, which the parent records in place of its own clock.
    """
    kind, spec_key, spec, blob, seed = payload
    kernel, codecs = _kernel_for(spec_key, spec)
    started = time.thread_time()
    events, emit_flags = decode_events(blob, codecs)
    if kind == _TASK_FOLD:
        result_kind: str = "emits"
        result: Any = kernel.fold(events, emit_flags)
    elif kind == _TASK_SEGMENT:
        result_kind = "states"
        result = kernel.segment_states(events)
    elif kind == _TASK_CARRY:
        result_kind = "emits"
        result, _end_states = kernel.seeded_fold(events, emit_flags, seed)
    else:
        raise ExecutionError(f"unknown window task kind {kind!r}")
    cpu_seconds = time.thread_time() - started
    return (result_kind, result, cpu_seconds,
            _task_histogram_state(cpu_seconds))


def _pool_probe(value: int) -> int:
    return value + 1


# ----------------------------------------------------------------------
# parent side


class WindowProcessPool:
    """A probed ``ProcessPoolExecutor`` for window tasks.

    Construction forks/spawns the workers *and* round-trips a probe
    task, so an environment where multiprocessing cannot run fails
    here — with :class:`ProcessPoolUnavailable` — rather than midway
    through a batch run.  ``fork`` is preferred (no interpreter
    re-import per worker); the default context is the fallback.
    """

    def __init__(self, workers: int,
                 start_method: Optional[str] = None,
                 probe_timeout: float = 30.0) -> None:
        if workers <= 0:
            raise ExecutionError("pool workers must be positive")
        self.workers = workers
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if start_method is None:
                methods = multiprocessing.get_all_start_methods()
                start_method = "fork" if "fork" in methods else None
            context = (multiprocessing.get_context(start_method)
                       if start_method is not None else None)
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=context)
            probe = self._executor.submit(_pool_probe, 41)
            if probe.result(timeout=probe_timeout) != 42:
                raise ExecutionError("pool probe returned garbage")
        except ProcessPoolUnavailable:
            raise
        except Exception as exc:
            self.close()
            raise ProcessPoolUnavailable(
                f"multiprocessing unavailable: {exc!r}") from exc

    def submit(self, payload: Any) -> Any:
        """Submit one task; returns the future."""
        return self._executor.submit(run_window_task, payload)

    def close(self) -> None:
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WindowProcessPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
