"""Partition binlog (paper Section 5.1's monotone ``binlog_offset``).

The replicator serialises one partition's updates into a binlog with
monotonically increasing offsets.  All appends go through the replicator
lock, so no concurrent ``Put`` can interleave a conflicting update
mid-sequence.  An acknowledged write is always in here: the nameserver
delivers each entry to the partition's followers inline, before ``put``
returns, and catch-up and failover replay the suffix a replica missed.
The binlog starts no thread.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, TYPE_CHECKING, Tuple

from ..errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..storage.encoding import RowCodec
    from ..storage.persist import FileBinlog

__all__ = ["Replicator"]


class Replicator:
    """Monotone binlog of one table's partition.

    A binlog serves one partition of one table, so the table's name and
    row codec are given once: at construction, or — for a binlog built
    bare — the table by its first append.  A row for another table is
    refused.

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

    def append_entry(self, table: str, row: Tuple[Any, ...]) -> int:
        """Append one row of ``table``; returns the entry's binlog offset.

        The append is protected by the replicator lock.  With a WAL
        attached, the entry is written through to disk before the append
        returns (fsync'd in batches — see
        :class:`~repro.storage.persist.FileBinlog`).

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
        return offset

    @property
    def last_offset(self) -> int:
        """The newest entry's offset (-1 when empty).  Read without the
        lock: the log only ever grows by whole appends, and its length
        is read in one step."""
        return len(self._rows) - 1

    def rows_from(self, offset: int) -> List[Tuple[Any, ...]]:
        """Snapshot of the rows from offset ``offset`` to the end of the
        log (the replay source: the row at index ``i`` has offset
        ``offset + i``).  A list slice is one step, so it needs no lock:
        it holds a prefix-closed run of whole appends."""
        return self._rows[offset:]

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

    def close(self) -> None:
        """Close the WAL, if attached."""
        if self._wal is not None:
            self._wal.close()
