"""On-disk storage engine (paper Section 7.3): a pure-Python LSM tree.

The paper layers OpenMLDB's persistent tables on RocksDB: one **column
family per index**, each with its own SST files and eviction policy, all
sharing a single **memtable** (a skiplist over ``key‖ts`` composite keys;
here a :class:`~repro.storage.memtable.MemTable`).  This module
reimplements that structure:

* :class:`ColumnFamily` — per-index SST runs, compaction, TTL-on-compaction.
* :class:`SSTable` — an immutable sorted run of ``(key, ts, row)`` entries,
  sorted by key ascending then ts *descending* so a range read over one key
  is a contiguous newest-first slice (exactly the composite-key pre-sorting
  the paper relies on).
* :class:`DiskTable` — the table facade, API-compatible with
  :class:`~repro.storage.memtable.MemTable` for the read paths the engines
  use (``window_scan``, ``last_join_lookup``, ``rows``).

"Disk" here is process memory with an explicit flush threshold and
read-amplification accounting; the behavioural contract (shared memtable,
per-CF eviction, composite-key ordering) matches the paper.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import threading
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple)

from ..errors import IndexNotFoundError, SchemaError
from ..obs import NULL_OBS, Observability
from ..schema import IndexDef, Row, Schema, TTLKind, TTLSpec
from .memtable import MemTable
from . import skiplist

__all__ = ["BloomFilter", "SSTable", "ColumnFamily", "DiskTable"]


class BloomFilter:
    """Per-SST bloom filter over partition keys (as in RocksDB).

    A point read over many runs would otherwise binary-search every SST;
    the filter lets runs that cannot contain the key be skipped without a
    "disk" access.  ``bits_per_key=10`` with 3 hashes gives ≈1 % false
    positives, matching RocksDB's default block-based filter.
    """

    HASHES = 3

    def __init__(self, keys: Sequence[Any], bits_per_key: int = 10) -> None:
        self._size = max(len(keys) * bits_per_key, 8)
        self._bits = bytearray((self._size + 7) // 8)
        for key in keys:
            for position in self._positions(key):
                self._bits[position // 8] |= 1 << (position % 8)

    def _positions(self, key: Any) -> Iterator[int]:
        digest = hashlib.blake2b(repr(key).encode("utf-8"),
                                 digest_size=12).digest()
        for hash_index in range(self.HASHES):
            chunk = digest[hash_index * 4:(hash_index + 1) * 4]
            yield int.from_bytes(chunk, "big") % self._size

    def may_contain(self, key: Any) -> bool:
        """False ⇒ definitely absent; True ⇒ probably present."""
        return all(self._bits[position // 8] & (1 << (position % 8))
                   for position in self._positions(key))

# Composite-key entries: (key, -ts, sequence, row).  Negating ts makes the
# natural sort order "key asc, ts desc"; the sequence slot breaks
# (key, ts) ties and sorts *ascending = newest insert first* (flushes
# stamp it per insert, counting down — see DiskTable._flush_locked), so
# scans yield duplicates newest-first and compaction's per-key rank is
# 1 at the newest entry.  Entries must never be compared whole: the row
# payload can hold None or mixed types, which do not order.
_Entry = Tuple[Any, int, int, Row]


def _key_order(key: Any) -> Any:
    """The sort key of a partition key: NULL (None) before any value,
    element-wise inside a multi-column (tuple) key."""
    if isinstance(key, tuple):
        return tuple(map(_key_order, key))
    return (key is not None, key)


def _entry_sort_key(entry: _Entry) -> Tuple[Any, int, int]:
    return (_key_order(entry[0]), entry[1], entry[2])


class SSTable:
    """An immutable sorted run of composite-key entries."""

    def __init__(self, entries: Sequence[_Entry], level: int = 0) -> None:
        self._entries: List[_Entry] = sorted(entries, key=_entry_sort_key)
        self._keys = [_key_order(entry[0]) for entry in self._entries]
        self.level = level
        self.bloom = BloomFilter(sorted({entry[0] for entry in self._entries},
                                        key=_key_order))

    def __len__(self) -> int:
        return len(self._entries)

    def may_contain(self, key: Any) -> bool:
        return self.bloom.may_contain(key)

    def scan_key(self, key: Any) -> Iterator[Tuple[int, Row]]:
        """Yield ``(ts, row)`` newest-first for one key."""
        start = bisect.bisect_left(self._keys, _key_order(key))
        for entry in itertools.islice(self._entries, start, None):
            if entry[0] != key:
                break
            yield -entry[1], entry[3]

    def entries(self) -> Iterator[_Entry]:
        return iter(self._entries)


class ColumnFamily:
    """Per-index SST runs with independent eviction (Section 7.3)."""

    def __init__(self, index: IndexDef) -> None:
        self.index = index
        self.sstables: List[SSTable] = []
        self.compactions = 0

    def add_sstable(self, sstable: SSTable) -> None:
        self.sstables.append(sstable)

    def scan_key(self, key: Any) -> Iterator[Tuple[int, Row]]:
        """Merge all runs for one key, newest-first.

        Runs whose bloom filter rules the key out are skipped entirely
        (no "disk" access); the rest merge heap-free, each run already
        newest-first for the key.  Runs are consulted newest first, so
        equal timestamps come out latest arrival first, as in memory.
        """
        iterators = [sstable.scan_key(key)
                     for sstable in reversed(self.sstables)
                     if sstable.may_contain(key)]
        heads: List[Optional[Tuple[int, Row]]] = [
            next(iterator, None) for iterator in iterators
        ]
        while True:
            best = None
            best_slot = -1
            for slot, head in enumerate(heads):
                if head is not None and (best is None or head[0] > best[0]):
                    best = head
                    best_slot = slot
            if best is None:
                return
            yield best
            heads[best_slot] = next(iterators[best_slot], None)

    def compact(self, now_ts: int) -> int:
        """Merge all runs into one, dropping TTL-expired entries.

        Returns the number of entries evicted.  Eviction happens *during*
        compaction by parsing the composite keys, as the paper describes.
        The merged sort places each key's entries newest-first (ts
        descending, then per-insert sequence), so ``per_key_seen`` ranks
        the newest entry 1 and LATEST-TTL eviction drops the *oldest*
        duplicates — the same order :meth:`MemTable.evict_expired` keeps.
        """
        merged: List[_Entry] = []
        for sstable in self.sstables:
            merged.extend(sstable.entries())
        merged.sort(key=_entry_sort_key)
        kept: List[_Entry] = []
        spec = self.index.ttl
        horizon = (now_ts - spec.abs_ttl_ms) if spec.abs_ttl_ms else None
        per_key_seen = 0
        previous_key = object()
        for entry in merged:
            key, neg_ts = entry[0], entry[1]
            if key != previous_key:
                previous_key = key
                per_key_seen = 0
            per_key_seen += 1
            if self._expired(-neg_ts, per_key_seen, spec, horizon):
                continue
            kept.append(entry)
        evicted = len(merged) - len(kept)
        self.sstables = [SSTable(kept, level=1)] if kept else []
        self.compactions += 1
        return evicted

    @staticmethod
    def _expired(ts: int, rank: int, spec: TTLSpec,
                 horizon: Optional[int]) -> bool:
        too_old = horizon is not None and ts < horizon
        beyond_latest = spec.lat_ttl > 0 and rank > spec.lat_ttl
        if spec.kind is TTLKind.ABSOLUTE:
            return too_old
        if spec.kind is TTLKind.LATEST:
            return beyond_latest
        if spec.kind is TTLKind.ABS_OR_LAT:
            return too_old or beyond_latest
        return too_old and beyond_latest  # ABS_AND_LAT


class DiskTable:
    """Persistent table: shared memtable + per-index LSM runs.

    Reads merge the memtable with the column family's SSTs.  The class
    tracks ``disk_reads`` so benchmarks can attribute the 20–30 ms latency
    band the paper quotes for the disk engine (Section 8.1) to actual read
    amplification rather than an arbitrary sleep.
    """

    def __init__(self, name: str, schema: Schema,
                 indexes: Sequence[IndexDef],
                 flush_threshold: int = 4096,
                 replicas: int = 1,
                 obs: Optional[Observability] = None) -> None:
        if flush_threshold <= 0:
            raise SchemaError("flush_threshold must be positive")
        self.name = name
        self.schema = schema
        self.indexes = tuple(indexes)
        self.replicas = replicas
        self.flush_threshold = flush_threshold
        self._obs = obs or NULL_OBS
        metrics = self._obs.registry.labels(table=name)
        self._m_disk_reads = metrics.counter("storage.disk.sst_reads")
        self._m_bloom_skips = metrics.counter("storage.disk.bloom_skips")
        self._m_flushes = metrics.counter("storage.disk.flushes")
        self._m_compactions = metrics.counter("storage.disk.compactions")
        self._m_compaction_evicted = metrics.counter(
            "storage.disk.compaction_evicted")
        # The shared memtable: one MemTable serving every column family
        # until flush, exactly as Section 7.3 describes.
        self._memtable = MemTable(name, schema, indexes,
                                  replicas=replicas, obs=self._obs)
        self._families: Dict[str, ColumnFamily] = {
            index.name: ColumnFamily(index) for index in self.indexes
        }
        self._since_flush = 0
        self._sequence = 0
        self._log: List[Row] = []
        self._lock = threading.Lock()
        self._event_log: Optional[Any] = None
        self.disk_reads = 0
        self.bloom_skips = 0
        self.flushes = 0

    def attach_event_log(self, sink: Any) -> None:
        """Log explicit storage events (flush/compact) to ``sink(text)``.

        With durability on, the database wires this to a WAL control
        frame so recovery can re-apply explicit flushes and compactions
        in stream order and rebuild the exact SST layout.  Automatic
        threshold flushes are *not* logged: they are deterministic from
        row replay.
        """
        self._event_log = sink

    # ------------------------------------------------------------------
    # write path

    def insert(self, row: Sequence[Any]) -> int:
        with self._lock:
            offset = len(self._log)
            validated = self.schema.validate_row(row)
            self._log.append(validated)
            self._memtable.insert(validated)
            self._since_flush += 1
            self._sequence += 1
            if self._since_flush >= self.flush_threshold:
                self._flush_locked()
            return offset

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> int:
        for row in rows:
            self.insert(row)
        return len(rows)

    def flush(self) -> None:
        """Force the shared memtable out to one SST per column family."""
        with self._lock:
            self._flush_locked()
        if self._event_log is not None:
            self._event_log("flush")

    def _flush_locked(self) -> None:
        if self._since_flush == 0:
            return
        for index in self.indexes:
            structure = self._memtable.structure(index.name)
            entries: List[_Entry] = []
            # Per-insert sequence stamps, newest = smallest.  scan_all()
            # yields ties newest-arrival-first, so position-within-scan
            # orders duplicates; subtracting the global insert count makes
            # every stamp of a *later* flush smaller than every stamp of
            # an earlier one.  Ascending sequence therefore sorts
            # duplicate (key, ts) entries newest-first across flushes —
            # the order LATEST-TTL ranking and merged reads rely on.
            base = self._sequence
            for position, (key, ts, row) in enumerate(structure.scan_all()):
                entries.append((key, -ts, position - base, row))
            if entries:
                self._families[index.name].add_sstable(SSTable(entries))
        self._memtable = MemTable(self.name, self.schema, self.indexes,
                                  replicas=self.replicas, obs=self._obs)
        self._since_flush = 0
        self.flushes += 1
        self._m_flushes.inc()

    def compact(self, now_ts: int) -> int:
        """Compact every column family; returns total evicted entries."""
        with self._lock:
            evicted = sum(family.compact(now_ts)
                          for family in self._families.values())
        if self._event_log is not None:
            self._event_log(f"compact:{now_ts}")
        self._m_compactions.inc(len(self._families))
        if evicted:
            self._m_compaction_evicted.inc(evicted)
        return evicted

    # ------------------------------------------------------------------
    # read path (MemTable-compatible)

    @property
    def row_count(self) -> int:
        return len(self._log)

    def rows(self) -> Iterator[Row]:
        return iter(self._log)

    def find_index(self, keys: Sequence[str],
                   ts: Optional[str] = None) -> IndexDef:
        for index in self.indexes:
            if index.matches(keys, ts):
                return index
        raise IndexNotFoundError(
            f"table {self.name!r} has no index on keys={tuple(keys)} "
            f"ts={ts!r}")

    def window_scan(self, keys: Sequence[str], ts_column: str,
                    key_value: Any, start_ts: Optional[int] = None,
                    end_ts: Optional[int] = None,
                    limit: Optional[int] = None
                    ) -> Iterator[Tuple[int, Row]]:
        index = self.find_index(keys, ts_column)
        return self._merged_scan(index, key_value, start_ts, end_ts, limit)

    def _merged_scan(self, index: IndexDef, key_value: Any,
                     start_ts: Optional[int], end_ts: Optional[int],
                     limit: Optional[int]) -> Iterator[Tuple[int, Row]]:
        if limit is not None and limit <= 0:
            return
        family = self._families[index.name]
        consulted = sum(1 for sstable in family.sstables
                        if sstable.may_contain(key_value))
        skipped = len(family.sstables) - consulted
        self.disk_reads += consulted
        self.bloom_skips += skipped
        if consulted:
            self._m_disk_reads.inc(consulted)
        if skipped:
            self._m_bloom_skips.inc(skipped)
        # The memtable side bisects to the bounds; only the SST runs
        # (key-ordered, unbounded in ts) are filtered here.
        memtable_iter = self._memtable.structure(index.name).scan(
            key_value, start_ts=start_ts, end_ts=end_ts, limit=limit)
        sst_iter = family.scan_key(key_value)
        produced = 0
        for ts, row in _merge_desc(memtable_iter, sst_iter):
            if start_ts is not None and ts > start_ts:
                continue
            if end_ts is not None and ts < end_ts:
                break
            yield ts, row
            produced += 1
            if produced == limit:
                break

    def window_scan_blocks(self, keys: Sequence[str], ts_column: str,
                           key_value: Any, start_ts: Optional[int] = None,
                           end_ts: Optional[int] = None,
                           limit: Optional[int] = None
                           ) -> Iterator[skiplist.ColumnBlock]:
        """Chunked window scan — same contract as
        :meth:`MemTable.window_scan_blocks`.

        The LSM read path is a genuine k-way merge (memtable + SST runs),
        so rows are produced one at a time regardless; each batch of
        them is laid out as the same :class:`ColumnBlock` a memtable
        slices, so the engines fold both with one kernel.
        """
        merged = self.window_scan(keys, ts_column, key_value,
                                  start_ts=start_ts, end_ts=end_ts,
                                  limit=limit)
        width = len(self.schema)
        while True:
            block = list(itertools.islice(merged, skiplist.BLOCK_ROWS))
            if not block:
                return
            yield skiplist.ColumnBlock.from_pairs(block, width)

    def last_join_lookup(self, keys: Sequence[str], key_value: Any,
                         before_ts: Optional[int] = None
                         ) -> Optional[Tuple[int, Row]]:
        index = self.find_index(keys)
        for ts, row in self._merged_scan(index, key_value,
                                         before_ts, None, 1):
            return ts, row
        return None

    def sstable_count(self) -> int:
        return sum(len(family.sstables)
                   for family in self._families.values())

    def manifest(self) -> Dict[str, Any]:
        """SST-layout bookkeeping recorded in snapshot images."""
        with self._lock:
            return {
                "flushes": self.flushes,
                "sequence": self._sequence,
                "sstables": {name: len(family.sstables)
                             for name, family in self._families.items()},
                "compactions": {name: family.compactions
                                for name, family in self._families.items()},
            }


def _merge_desc(left: Iterator[Tuple[int, Row]],
                right: Iterator[Tuple[int, Row]]
                ) -> Iterator[Tuple[int, Row]]:
    """Merge two newest-first (ts, row) streams, preserving the order."""
    left_head = next(left, None)
    right_head = next(right, None)
    while left_head is not None or right_head is not None:
        if right_head is None or (left_head is not None
                                  and left_head[0] >= right_head[0]):
            yield left_head
            left_head = next(left, None)
        else:
            yield right_head
            right_head = next(right, None)
