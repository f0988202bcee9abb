"""Binlog replicator (paper Section 5.1, "Aggregator Update").

The replicator serialises table updates into a binlog with monotonically
increasing offsets.  All appends go through the replicator lock, so no
concurrent ``Put`` can interleave a conflicting update mid-sequence — the
monotone ``binlog_offset`` assumption the paper's aggregator-update design
rests on.

Each appended entry may carry a *closure*: ``AppendEntry(entry,
closure)`` both persists the entry and schedules the closure for
**asynchronous** execution on the replicator's worker thread, off the
insertion fast path.  The cluster's ``replication="async"`` mode ships
entries to followers this way; an append with no closure starts no
thread.
"""

from __future__ import annotations

import itertools
import queue
import threading
from typing import (Any, Callable, List, NamedTuple, Optional,
                    TYPE_CHECKING, Tuple)

from ..errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..storage.encoding import RowCodec
    from ..storage.persist import FileBinlog

__all__ = ["BinlogEntry", "Replicator"]


class BinlogEntry(NamedTuple):
    """One replicated update: table, row payload, and its offset.

    The binlog does not keep these: it keeps each row once and builds an
    entry when one is read (:meth:`Replicator.entries_from`, queued
    closures).
    """

    offset: int
    table: str
    row: Tuple[Any, ...]


class Replicator:
    """Monotone binlog of one table, with asynchronous closure execution.

    A binlog serves one partition of one table, so the table's name and
    row codec are given once: at construction, or — for a binlog built
    bare — the table by its first append.  A row for another table is
    refused.

    Closures run on a single worker thread in offset order, which gives
    replicated entries a total order without blocking inserts.  Exceptions
    raised by a closure are captured (not swallowed silently: they are
    recorded on :attr:`failures` and surfaced by :meth:`check`).

    The log is one list of row tuples indexed by offset (the very objects
    the tables hold).  An append allocates one list slot — no entry
    object and no boxed offset per row.
    """

    def __init__(self, table: Optional[str] = None,
                 codec: Optional["RowCodec"] = None,
                 wal: Optional["FileBinlog"] = None) -> None:
        self.table = table
        self._codec = codec
        self._rows: List[Tuple[Any, ...]] = []
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Tuple[int, Callable]]]" \
            = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._pending = 0
        self._pending_cond = threading.Condition()
        self.failures: List[Tuple[int, BaseException]] = []
        self._wal = wal

    # ------------------------------------------------------------------
    # durability

    @property
    def wal(self) -> Optional["FileBinlog"]:
        return self._wal

    def restore(self) -> int:
        """Rebuild the in-memory entry list from the WAL.

        Called once, before new appends: the entry list must be empty
        and the WAL's row frames contiguous from offset 0.  Returns the
        number of entries restored.
        """
        if self._wal is None:
            return 0
        with self._lock:
            if self._rows:
                raise StorageError(
                    "restore() requires an empty binlog (restore before "
                    "appending)")
            for frame in self._wal.replay(0):
                if not frame.is_row:
                    continue
                if frame.offset != len(self._rows):
                    raise StorageError(
                        f"WAL row frames not contiguous: expected offset "
                        f"{len(self._rows)}, found {frame.offset}")
                self._rows.append(self._codec.decode(frame.payload))
            return len(self._rows)

    def sync(self) -> None:
        """Force the WAL's buffered frames to disk (durability barrier)."""
        if self._wal is not None:
            self._wal.sync()

    # ------------------------------------------------------------------

    def append_entry(self, table: str, row: Tuple[Any, ...],
                     closure: Optional[Callable[[BinlogEntry], None]] = None
                     ) -> int:
        """Append one row of ``table``; optionally schedule ``closure``.

        Returns the entry's binlog offset.  The append itself is protected
        by the replicator lock; closure execution happens later, on the
        worker thread, in offset order.  With a WAL attached, the entry
        is written through to disk before the append returns (fsync'd in
        batches — see :class:`~repro.storage.persist.FileBinlog`).

        ``row`` is a row its host already validated; a tuple is stored
        as is, so the binlog shares it with the table that holds it.

        Raises:
            StorageError: ``table`` is not this binlog's table.
        """
        row = tuple(row)
        with self._lock:
            if table != self.table:
                if self.table is not None:
                    raise StorageError(
                        f"binlog of {self.table!r} got a row for "
                        f"{table!r}")
                self.table = table
            offset = len(self._rows)
            self._rows.append(row)
            if self._wal is not None:
                self._wal.append(offset, table, self._codec.encode(row))
        if closure is not None:
            self._ensure_worker()
            with self._pending_cond:
                self._pending += 1
            self._queue.put((offset, closure))
        return offset

    def _ensure_worker(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(target=self._run, daemon=True)
            self._worker.start()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            offset, closure = item
            try:
                # The lists only grow, so an appended slot is read unlocked.
                closure(BinlogEntry(offset, self.table,
                                    self._rows[offset]))
            except BaseException as exc:  # recorded, surfaced via check()
                self.failures.append((offset, exc))
            finally:
                with self._pending_cond:
                    self._pending -= 1
                    self._pending_cond.notify_all()

    # ------------------------------------------------------------------

    @property
    def last_offset(self) -> int:
        with self._lock:
            return len(self._rows) - 1

    @property
    def pending(self) -> int:
        """Closures appended but not yet executed (replication queue
        depth — the binlog-side view of replica lag)."""
        with self._pending_cond:
            return self._pending

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until all scheduled closures have executed.

        ``NameServer.replication_barrier`` uses this to make
        asynchronous replication deterministic.  Returns False on
        timeout.
        """
        with self._pending_cond:
            return self._pending_cond.wait_for(
                lambda: self._pending == 0, timeout=timeout)

    def check(self) -> None:
        """Raise the first recorded closure failure, if any."""
        if self.failures:
            offset, exc = self.failures[0]
            raise RuntimeError(
                f"binlog closure failed at offset {offset}") from exc

    def entries_from(self, offset: int,
                     stop: Optional[int] = None) -> List[BinlogEntry]:
        """Snapshot of the entries with ``offset <= entry.offset < stop``
        (replay source); ``stop`` defaults to the end of the log."""
        with self._lock:
            rows = self._rows[offset:stop]
        return list(map(BinlogEntry, range(offset, offset + len(rows)),
                        itertools.repeat(self.table), rows))

    def log_control(self, text: str) -> None:
        """Write a control frame (storage event) to the WAL, if attached.

        Control frames do not consume binlog offsets; they carry the
        current ``last_offset`` so replay can order them against row
        frames and skip those a snapshot already covers.
        """
        if self._wal is None:
            return
        from ..storage.persist import FRAME_CONTROL
        with self._lock:
            self._wal.append(len(self._rows) - 1, self.table,
                             text.encode("utf-8"), kind=FRAME_CONTROL)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker after draining queued closures.

        Raises:
            StorageError: the worker failed to drain within ``timeout``
                seconds — queued deliveries would be silently
                abandoned, so the condition is surfaced instead of
                ignored.
        """
        if self._worker is not None and self._worker.is_alive():
            self._queue.put(None)
            self._worker.join(timeout=timeout)
            if self._worker.is_alive():
                raise StorageError(
                    f"replicator worker did not drain within {timeout:g}s "
                    f"({self.pending} closure(s) still pending)")
        if self._wal is not None:
            self._wal.close()
