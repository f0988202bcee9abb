"""On-disk storage engine (paper Section 7.3): an LSM tree of flushed
memtable indexes.

The paper layers OpenMLDB's persistent tables on RocksDB: one **column
family per index**, each with its own sorted runs and eviction policy,
all sharing a single **memtable**.  RocksDB earns its place there by one
property — a key's tuples are pre-sorted by timestamp, so a window is one
contiguous range — and by applying TTL while it compacts.  The memory
engine's :class:`~repro.storage.skiplist.TimeSeriesIndex` already has
that property, so a run here *is* one:

* The memtable is a :class:`~repro.storage.memtable.MemTable`.  A flush
  hands each index's ``TimeSeriesIndex`` over as that column family's
  newest run, never written again, and starts a fresh memtable.
* A read consults the memtable and the runs whose key level holds the
  key (an exact lookup), and merges their newest-first blocks; one
  source's blocks, sealed summaries included, go out as they are.
* Compaction replays every run's rows, oldest first, into one fresh
  ``TimeSeriesIndex`` and applies that index's own TTL ``evict``.

"Disk" here is process memory with an explicit flush threshold and
read-amplification accounting (``disk_reads``: runs consulted).
"""

from __future__ import annotations

import itertools
import threading
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..errors import SchemaError
from ..obs import NULL_OBS, Observability
from ..schema import IndexDef, Row, Schema
from .encoding import RowCodec
from .memtable import MemTable
from .skiplist import ColumnBlock, TimeSeriesIndex

__all__ = ["DiskTable"]

#: Per index name, that column family's runs, oldest first.
_Runs = Dict[str, Tuple[TimeSeriesIndex, ...]]


class DiskTable:
    """Persistent table: shared memtable + per-index runs.

    The memtable and the runs live in one attribute, ``_state``, that
    flush and compaction replace whole under the write lock; a read takes
    it once, so a row is in the memtable or in a run of what it reads,
    never in both.  The class tracks ``disk_reads`` so benchmarks can
    attribute the 20–30 ms latency band the paper quotes for the disk
    engine (Section 8.1) to actual read amplification rather than an
    arbitrary sleep.

    ``event_log(text)`` receives each explicit ``flush`` /
    ``compact:<ts>`` — a control frame on the partition WAL, re-applied in
    stream order on restore; threshold flushes are not logged.
    """

    def __init__(self, name: str, schema: Schema,
                 indexes: Sequence[IndexDef],
                 flush_threshold: int = 4096,
                 obs: Optional[Observability] = None,
                 event_log: Optional[Callable[[str], None]] = None) -> None:
        if flush_threshold <= 0:
            raise SchemaError("flush_threshold must be positive")
        self.name = name
        self.schema = schema
        self.indexes = tuple(indexes)
        self.codec = RowCodec(schema)
        self.flush_threshold = flush_threshold
        self._obs = obs or NULL_OBS
        metrics = self._obs.registry.labels(table=name)
        self._m_disk_reads = metrics.counter("storage.disk.sst_reads")
        self._m_flushes = metrics.counter("storage.disk.flushes")
        self._m_compactions = metrics.counter("storage.disk.compactions")
        self._m_compaction_evicted = metrics.counter(
            "storage.disk.compaction_evicted")
        # The shared memtable serves every column family until flush,
        # exactly as Section 7.3 describes.
        runs: _Runs = {index.name: () for index in self.indexes}
        self._state: Tuple[MemTable, _Runs] = (self._new_memtable(), runs)
        #: explicit flushes / compactions, each at the row count it
        #: landed on
        self._events: List[Tuple[int, str]] = []
        self._since_flush = 0
        self._log: List[Row] = []
        self._lock = threading.Lock()
        self._event_log = event_log
        self.disk_reads = 0
        self.flushes = 0

    def _new_memtable(self) -> MemTable:
        return MemTable(self.name, self.schema, self.indexes,
                        obs=self._obs)

    # ------------------------------------------------------------------
    # write path

    def insert(self, row: Sequence[Any], size: Optional[int] = None) -> int:
        """Insert one row (``size`` as for :meth:`MemTable.insert`: given,
        the row is a checked one and the shared memtable takes it as
        it is)."""
        if size is None:
            row = self.schema.validate_row(row)
            size = self.codec.encoded_size(row)
        with self._lock:
            offset = len(self._log)
            self._log.append(row)
            self._state[0].insert(row, size)
            self._since_flush += 1
            if self._since_flush >= self.flush_threshold:
                self._flush_locked()
            return offset

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> int:
        for row in rows:
            self.insert(row)
        return len(rows)

    def flush(self) -> None:
        """Force the shared memtable out to one run per column family."""
        self._explicit("flush")

    def compact(self, now_ts: int) -> int:
        """Merge each column family's runs into one, dropping what its
        TTL expires at ``now_ts``; returns the tuples evicted.

        Runs replay oldest first and a key's rows oldest first, so equal
        timestamps keep arrival order and LATEST ranks the newest insert
        first, as :meth:`MemTable.evict_expired` does.
        """
        return self._explicit(f"compact:{now_ts}")

    def _explicit(self, event: str) -> int:
        evicted = self.apply_event(event)
        if self._event_log is not None:
            self._event_log(event)
        return evicted

    def apply_event(self, event: str) -> int:
        """Apply one explicit storage event — ``flush`` or
        ``compact:<ts>`` — without logging it; returns tuples evicted.

        A restore re-applies logged events through here.  The event is
        recorded at the row count it landed on, so a snapshot image
        (:meth:`manifest`) replays it at the same point among its rows.
        """
        with self._lock:
            self._events.append((len(self._log), event))
            if event == "flush":
                self._flush_locked()
                return 0
            evicted = self._compact_locked(int(event.split(":", 1)[1]))
        self._m_compactions.inc(len(self.indexes))
        if evicted:
            self._m_compaction_evicted.inc(evicted)
        return evicted

    def _flush_locked(self) -> None:
        if self._since_flush == 0:
            return
        memtable, runs = self._state
        self._state = (self._new_memtable(), {
            name: (*family, memtable.structure(name))
            for name, family in runs.items()})
        self._since_flush = 0
        self.flushes += 1
        self._m_flushes.inc()

    def _compact_locked(self, now_ts: int) -> int:
        width = len(self.schema)
        evicted = 0
        memtable, runs = self._state
        compacted: _Runs = {}
        for index in self.indexes:
            merged = TimeSeriesIndex(index.ttl, width)
            for run in runs[index.name]:
                # scan_all is newest-first per key: reversed, oldest.
                for key, ts, row in reversed(list(run.scan_all())):
                    merged.put(key, ts, row)
            evicted += merged.evict(now_ts)
            compacted[index.name] = (merged,) if len(merged) else ()
        self._state = (memtable, compacted)
        return evicted

    # ------------------------------------------------------------------
    # read path (MemTable-compatible)

    @property
    def row_count(self) -> int:
        return len(self._log)

    @property
    def memory_bytes(self) -> int:
        """Encoded bytes of every row held, as a memory table counts."""
        return sum(map(self.codec.encoded_size, self._log))

    def rows(self) -> Iterator[Row]:
        return iter(self._log)

    def find_index(self, keys: Sequence[str],
                   ts: Optional[str] = None) -> IndexDef:
        return self._state[0].find_index(keys, ts)

    def window_scan_blocks(self, keys: Sequence[str], ts_column: str,
                           key_value: Any, start_ts: Optional[int] = None,
                           end_ts: Optional[int] = None,
                           limit: Optional[int] = None) -> List[ColumnBlock]:
        """Chunked window scan — same contract as
        :meth:`MemTable.window_scan_blocks`.

        One source with rows in the window hands its blocks out as they
        are; several merge into one block, newest first, equal
        timestamps in memtable-then-newest-run order (latest arrival
        first), as the cluster's fan-out merges partitions.
        """
        memtable, runs = self._state
        name = memtable.find_index(keys, ts_column).name
        consulted = [run for run in reversed(runs[name]) if key_value in run]
        if consulted:
            self.disk_reads += len(consulted)
            self._m_disk_reads.inc(len(consulted))
        scans = [blocks for blocks in (
            source.scan_blocks(key_value, start_ts, end_ts, limit)
            for source in (memtable.structure(name), *consulted)) if blocks]
        if len(scans) > 1:
            return [ColumnBlock.merged(scans, len(self.schema), limit)]
        return scans[0] if scans else []

    def last_join_lookup(self, keys: Sequence[str], key_value: Any,
                         ts_column: Optional[str] = None
                         ) -> Optional[Tuple[int, Row]]:
        ts_column = self.find_index(keys, ts_column).ts_column
        return next(itertools.chain.from_iterable(self.window_scan_blocks(
            keys, ts_column, key_value, limit=1)), None)

    def sstable_count(self) -> int:
        """Runs held across every column family."""
        return sum(map(len, self._state[1].values()))

    def manifest(self) -> Dict[str, Any]:
        """What a snapshot image needs beside the rows to rebuild this
        table exactly: every explicit event at its row position."""
        with self._lock:
            return {"events": [list(event) for event in self._events]}
