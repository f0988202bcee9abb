"""In-memory table: schema + stream-focused two-level indexes.

A :class:`MemTable` owns one :class:`~repro.storage.skiplist.TimeSeriesIndex`
per declared :class:`~repro.schema.IndexDef`.  Every row is validated
against the schema once — by :meth:`MemTable.insert`, or by the host
that hands a tablet's insert a checked, sized row — then appended to the
insertion log and to all indexes.

Window reads go through :meth:`window_scan_blocks` / :meth:`last_join_lookup`,
which pick the index matching the requested ``PARTITION BY`` / ``ORDER BY``
columns; full scans (offline mode) iterate the insertion log.
"""

from __future__ import annotations

import datetime as _dt
import threading
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..errors import IndexNotFoundError, SchemaError, StorageError
from ..obs import NULL_OBS, Observability
from ..schema import IndexDef, Row, Schema
from ..types import ColumnType
from .encoding import RowCodec
from .skiplist import ColumnBlock, TimeSeriesIndex

__all__ = ["MemTable", "normalize_ts"]


def normalize_ts(value: Any) -> int:
    """Convert a timestamp column value to integer milliseconds.

    Naive datetimes are interpreted as UTC: ``.timestamp()`` on a naive
    value applies the *local* timezone, so the same dataset would hash
    into different window buckets depending on the machine's ``TZ`` —
    a silent source of train/serve skew.
    """
    if isinstance(value, int):
        return value
    if isinstance(value, _dt.datetime):
        if value.tzinfo is None:
            value = value.replace(tzinfo=_dt.timezone.utc)
        return int(value.timestamp() * 1000)
    raise StorageError(f"cannot use {value!r} as a timestamp")


class MemTable:
    """One in-memory table with stream-focused indexing.

    Args:
        name: table name.
        schema: the column layout.
        indexes: stream indexes; the first is the default access path.
        obs: observability handle; the default disabled instance makes
            every instrument a shared no-op.
        event_log: receives each TTL eviction that removed a tuple
            (``evict:<ts>``), to re-apply in stream order on restore.
    """

    def __init__(self, name: str, schema: Schema,
                 indexes: Sequence[IndexDef],
                 obs: Optional[Observability] = None,
                 event_log: Optional[Callable[[str], None]] = None) -> None:
        if not indexes:
            raise SchemaError(f"table {name!r} needs at least one index")
        for index in indexes:
            for column_name in (*index.key_columns, index.ts_column):
                if column_name not in schema:
                    raise SchemaError(
                        f"index {index.name!r} references unknown column "
                        f"{column_name!r}")
            ts_type = schema.column(index.ts_column).type
            if ts_type not in (ColumnType.TIMESTAMP, ColumnType.BIGINT):
                raise SchemaError(
                    f"index {index.name!r}: ORDER BY column must be a "
                    f"timestamp or bigint, got {ts_type.sql_name}")
        self.name = name
        self.schema = schema
        self.indexes: Tuple[IndexDef, ...] = tuple(indexes)
        self.codec = RowCodec(schema)
        self._structures: Dict[str, TimeSeriesIndex] = {
            index.name: TimeSeriesIndex(ttl=index.ttl, width=len(schema))
            for index in indexes
        }
        #: per index, what an insert needs: the key getter (a scalar for
        #: one key column, a tuple for several), the ts position and the
        #: structure.
        self._routes = tuple(
            (itemgetter(*(schema.position(k) for k in index.key_columns)),
             schema.position(index.ts_column), self._structures[index.name])
            for index in indexes)
        self._log: List[Row] = []
        self._log_lock = threading.Lock()
        self._bytes = 0
        self._events: List[Tuple[int, str]] = []  # see manifest()
        self._event_log = event_log
        metrics = (obs or NULL_OBS).registry.labels(table=name)
        self._m_inserts = metrics.counter("storage.inserts")
        self._m_seeks = metrics.counter("storage.index.seeks")
        self._m_scans = metrics.counter("storage.window.scans")
        self._m_ttl_evicted = metrics.counter("storage.ttl.evicted")

    # ------------------------------------------------------------------
    # write path

    def insert(self, row: Sequence[Any], size: Optional[int] = None) -> int:
        """Insert one row; returns its log offset.

        With no ``size`` the row is validated and sized here.  A caller
        that passes ``size`` — the row's encoded size — hands in a row
        its host already checked (what :meth:`Schema.validate_row`
        returned, or a decoded image or WAL row): a tablet stores the
        tuple its nameserver checked once and sized once for the memory
        charge, as it is.
        """
        if size is None:
            row = self.schema.validate_row(row)
            size = self.codec.encoded_size(row)
        with self._log_lock:
            offset = len(self._log)
            self._log.append(row)
            self._bytes += size
        for key_of, ts_position, structure in self._routes:
            ts = row[ts_position]
            structure.put(key_of(row),
                          ts if type(ts) is int else normalize_ts(ts), row)
        self._m_inserts.inc()
        return offset

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> int:
        """Insert rows in order; returns the number inserted."""
        for row in rows:
            self.insert(row)
        return len(rows)

    # ------------------------------------------------------------------
    # read path

    @property
    def row_count(self) -> int:
        return len(self._log)

    @property
    def memory_bytes(self) -> int:
        """Compact-encoded payload bytes currently held (for Table 2)."""
        return self._bytes

    def rows(self) -> Iterator[Row]:
        """Full scan in insertion order (offline mode access path)."""
        return iter(self._log)

    def find_index(self, keys: Sequence[str],
                   ts: Optional[str] = None) -> IndexDef:
        """Return the index serving ``PARTITION BY keys ORDER BY ts``.

        Raises:
            IndexNotFoundError: when no declared index matches; the paper's
                engine would reject the deployment at plan time, and so do we.
        """
        for index in self.indexes:
            if index.matches(keys, ts):
                return index
        raise IndexNotFoundError(
            f"table {self.name!r} has no index on keys={tuple(keys)} "
            f"ts={ts!r}; declared: "
            f"{[(i.key_columns, i.ts_column) for i in self.indexes]}")

    def structure(self, index_name: str) -> TimeSeriesIndex:
        return self._structures[index_name]

    def window_scan_blocks(self, keys: Sequence[str], ts_column: str,
                           key_value: Any, start_ts: Optional[int] = None,
                           end_ts: Optional[int] = None,
                           limit: Optional[int] = None) -> List[ColumnBlock]:
        """One partition key's rows, newest-first, as
        :class:`~repro.storage.skiplist.ColumnBlock` s.

        ``start_ts``/``end_ts`` bound the window as in
        ``ROWS_RANGE BETWEEN end_ts AND start_ts`` (both inclusive);
        ``limit`` caps the number of rows (``ROWS BETWEEN n PRECEDING``).
        One key seek and a bisect per edge, then the sealed blocks
        between the edges by reference and slices of the edges — the
        shape the window fold reduces column-at-a-time; iterating a
        block still yields ``(ts, row)`` pairs.
        """
        index = self.find_index(keys, ts_column)
        self._m_scans.inc()
        return self._structures[index.name].scan_blocks(
            key_value, start_ts=start_ts, end_ts=end_ts, limit=limit)

    def last_join_lookup(self, keys: Sequence[str], key_value: Any,
                         ts_column: Optional[str] = None
                         ) -> Optional[Tuple[int, Row]]:
        """Return the most recent ``(ts, row)`` matching ``key_value``.

        "Most recent" is by ``ts_column`` (a LAST JOIN's ``ORDER BY``)
        through the index ordered by it; left out, by the first index
        on ``keys``.
        """
        index = self.find_index(keys, ts_column)
        self._m_seeks.inc()
        return self._structures[index.name].latest(key_value)

    # ------------------------------------------------------------------
    # maintenance

    def evict_expired(self, now_ts: int) -> int:
        """Run TTL eviction on every index; returns tuples removed.

        Note the insertion log is retained (it backs offline scans and
        binlog replay); eviction frees the online access structures, which
        is what bounds request-path memory.  An eviction that removed a
        tuple goes to ``event_log``, so a restore repeats it.
        """
        removed = self.apply_event(f"evict:{now_ts}")
        if removed and self._event_log is not None:
            self._event_log(f"evict:{now_ts}")
        return removed

    def apply_event(self, event: str) -> int:
        """Apply one ``evict:<ts>`` without logging it (a restore
        re-applies logged evictions here); returns tuples removed."""
        position = len(self._log)
        removed = sum(structure.evict(int(event.split(":", 1)[1]))
                      for structure in self._structures.values())
        if removed:
            self._events.append((position, event))
            self._m_ttl_evicted.inc(removed)
        return removed

    def manifest(self) -> Dict[str, Any]:
        """A snapshot image's storage events: each eviction that removed
        a tuple, at the row count it landed on."""
        return {"events": [list(event) for event in self._events]}

    def key_cardinality(self, index_name: Optional[str] = None) -> int:
        """Distinct key count on an index (defaults to the first)."""
        name = index_name or self.indexes[0].name
        return self._structures[name].key_count
