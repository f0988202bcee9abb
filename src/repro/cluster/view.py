"""The cluster's read adapter: a table as the engines see it."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..ctlplane.split import stable_hash
from ..errors import IndexNotFoundError
from ..schema import IndexDef, Row, Schema
from ..storage.skiplist import ColumnBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .nameserver import ClusterTable, NameServer

__all__ = ["ClusterTableView"]


class ClusterTableView:
    """Routed read adapter exposing the ``MemTable`` read API.

    Both engines are storage-agnostic: they call ``find_index`` /
    ``window_scan_blocks`` / ``last_join_lookup`` on whatever "table"
    they are given.  This view implements those against the cluster —
    each call is one routed call (:meth:`NameServer._routed`): it hashes
    the key to its partition and issues the (simulated) RPC to the
    partition leader with the active trace context attached, so
    tablet-side spans stitch into the request trace.  A read on a
    non-partition index fans out to every partition of one layout and
    merges newest-first, as a real distributed executor must;
    :meth:`NameServer.get_latest` is this view's ``last_join_lookup``.
    """

    def __init__(self, nameserver: "NameServer",
                 table: "ClusterTable") -> None:
        self._ns = nameserver
        self._table = table

    @property
    def name(self) -> str:
        return self._table.name

    @property
    def schema(self) -> Schema:
        return self._table.schema

    @property
    def indexes(self) -> Tuple[IndexDef, ...]:
        return self._table.indexes

    def find_index(self, keys: Sequence[str],
                   ts: Optional[str] = None) -> IndexDef:
        for index in self._table.indexes:
            if index.matches(keys, ts):
                return index
        raise IndexNotFoundError(
            f"cluster table {self.name!r} has no index on "
            f"keys={tuple(keys)} ts={ts!r}")

    def _hashed(self, keys: Sequence[str], key_value: Any) -> Optional[int]:
        """The routed call's key hash for a read on ``keys``: the key's
        (hashed once, here) on the partition column, else None — every
        partition, for a non-partition index."""
        if keys[0] != self._table.indexes[0].key_columns[0]:
            return None
        return stable_hash(key_value[0] if isinstance(key_value, tuple)
                           else key_value)

    def window_scan_blocks(self, keys: Sequence[str], ts_column: str,
                           key_value: Any, start_ts: Optional[int] = None,
                           end_ts: Optional[int] = None,
                           limit: Optional[int] = None) -> List[ColumnBlock]:
        """Chunked window scan over the cluster, newest-first.

        A key that routes to one partition (every scan on the partition
        column) gets that tablet's :class:`ColumnBlock` s back as they
        are — no copy, sort or re-chunking between the store and the
        fold.  Only the fan-out over a non-partition index merges, and
        lays the merged rows out as a single block.
        """
        ctx = self._ns._obs.tracer.inject()
        hashed = self._hashed(keys, key_value)
        name = self._table.name
        scans = self._ns._routed(
            self._table, hashed,
            lambda tablet, partition_id, timeout_ms, _layout:
                tablet.window_scan_blocks(
                    name, partition_id, keys, ts_column, key_value,
                    start_ts=start_ts, end_ts=end_ts, limit=limit,
                    trace_ctx=ctx, timeout_ms=timeout_ms))
        if hashed is not None:
            return scans
        # Rows with equal timestamps keep partition order.
        merged = ColumnBlock.merged(scans, len(self.schema), limit)
        return [merged] if len(merged) else []

    def last_join_lookup(self, keys: Sequence[str], key_value: Any,
                         ts_column: Optional[str] = None
                         ) -> Optional[Tuple[int, Row]]:
        ctx = self._ns._obs.tracer.inject()
        hashed = self._hashed(keys, key_value)
        hits = self._ns._routed(
            self._table, hashed,
            lambda tablet, partition_id, timeout_ms, _layout:
                tablet.last_join_lookup(
                    self.name, partition_id, keys, key_value,
                    ts_column=ts_column,
                    trace_ctx=ctx, timeout_ms=timeout_ms))
        if hashed is not None:
            return hits
        best: Optional[Tuple[int, Row]] = None
        for hit in hits:
            if hit is not None and (best is None or hit[0] > best[0]):
                best = hit
        return best
