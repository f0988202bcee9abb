"""Snapshot store: point-in-time table images with atomic publication.

The recovery contract (paper Section 5 / 7.3) is *snapshot + binlog
tail*: a snapshot pins a table's rows as of one binlog offset, so a
restarted node loads the newest snapshot and replays only the frames
past its ``applied_offset``.  The store keeps that contract honest:

* a snapshot is written to a ``.tmp`` sibling and published with
  ``os.replace`` — readers never observe a half-written image;
* each image records the binlog ``applied_offset`` it covers plus an
  optional JSON manifest (the LSM flush/compaction bookkeeping a
  :class:`~repro.storage.disk.DiskTable` needs to rebuild its run
  layout);
* retention keeps the newest ``retain`` snapshots per table and deletes
  the rest, so the directory stays bounded across cadenced snapshots;
* a body CRC makes a corrupt image load as "no snapshot" (fall back to
  an older one / full binlog replay) instead of poisoning recovery.

File layout::

    +----------+----------------+--------------+-------+------------+-------+
    | magic 8B | applied_offset | manifest_len | rows  | row frames | crc32 |
    |          | u64 (2-compl.) | u32 + JSON   | u64   | u32+bytes  | u32   |
    +----------+----------------+--------------+-------+------------+-------+

Row payloads are opaque bytes — callers encode them with the table's
:class:`~repro.storage.encoding.RowCodec`, the same compact layout used
everywhere else.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence

from ...errors import StorageError
from ...obs import NULL_OBS, Observability

__all__ = ["Snapshot", "SnapshotStore"]

_MAGIC = b"OMSNAP1\n"
_U64 = struct.Struct("<q")
_U32 = struct.Struct("<I")


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """One loaded table image."""

    name: str
    applied_offset: int
    rows: List[bytes]
    manifest: Dict[str, Any]


def _snapshot_filename(name: str, applied_offset: int) -> str:
    return f"{name}-{applied_offset + 1:012d}.snap"


class SnapshotStore:
    """Atomic, retained, CRC-checked snapshots for a set of tables."""

    def __init__(self, directory: str, retain: int = 2,
                 obs: Optional[Observability] = None) -> None:
        if retain <= 0:
            raise StorageError("snapshot retention must be positive")
        self.directory = directory
        self.retain = retain
        os.makedirs(directory, exist_ok=True)
        obs = obs or NULL_OBS
        self._obs = obs
        self._m_writes = obs.registry.counter("storage.snapshot.writes")
        self._m_loads = obs.registry.counter("storage.snapshot.loads")
        self._m_rows = obs.registry.counter("storage.snapshot.rows")
        self._m_bytes = obs.registry.counter("storage.snapshot.bytes")

    # ------------------------------------------------------------------

    def write(self, name: str, rows: Sequence[bytes], applied_offset: int,
              manifest: Optional[Dict[str, Any]] = None) -> str:
        """Persist one table image; returns the published path.

        The image covers binlog offsets ``0..applied_offset``; recovery
        replays frames strictly past it.  Publication is atomic
        (``os.replace`` of a fully-written temp file) and older images
        beyond the retention count are deleted afterwards.
        """
        manifest_bytes = json.dumps(manifest or {},
                                    sort_keys=True).encode("utf-8")
        with self._obs.tracer.span("snapshot.write", table=name,
                                   rows=len(rows)) as span:
            body = bytearray(_MAGIC)
            body += _U64.pack(applied_offset)
            body += _U32.pack(len(manifest_bytes)) + manifest_bytes
            body += _U64.pack(len(rows))
            for payload in rows:
                body += _U32.pack(len(payload)) + payload
            image = bytes(body) + _U32.pack(zlib.crc32(bytes(body)))
            path = os.path.join(self.directory,
                                _snapshot_filename(name, applied_offset))
            temp = path + ".tmp"
            with open(temp, "wb") as handle:
                handle.write(image)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
            span.set_tag(bytes=len(image))
        self._m_writes.inc()
        self._m_rows.inc(len(rows))
        self._m_bytes.inc(len(image))
        self._prune(name)
        return path

    def _snapshots_for(self, name: str) -> List[str]:
        """Snapshot filenames for one table, oldest first."""
        prefix = f"{name}-"
        return sorted(
            entry for entry in os.listdir(self.directory)
            if entry.startswith(prefix) and entry.endswith(".snap")
            and entry[len(prefix):-len(".snap")].isdigit())

    def _prune(self, name: str) -> None:
        names = self._snapshots_for(name)
        for stale in names[:-self.retain]:
            os.remove(os.path.join(self.directory, stale))

    # ------------------------------------------------------------------

    def load_latest(self, name: str) -> Optional[Snapshot]:
        """Load the newest intact snapshot for ``name`` (or None).

        A corrupt image (CRC or structural failure) is skipped in favour
        of the next-newest — recovery then replays a longer binlog tail
        rather than trusting damaged state.
        """
        for filename in reversed(self._snapshots_for(name)):
            path = os.path.join(self.directory, filename)
            with self._obs.tracer.span("snapshot.load", table=name) as span:
                snapshot = self._parse(name, path)
                if snapshot is None:
                    span.set_tag(corrupt=True)
                    continue
                span.set_tag(rows=len(snapshot.rows),
                             applied_offset=snapshot.applied_offset)
            self._m_loads.inc()
            return snapshot
        return None

    @staticmethod
    def _parse(name: str, path: str) -> Optional[Snapshot]:
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < len(_MAGIC) + _U64.size + _U32.size * 2 + _U64.size:
            return None
        body, stored = data[:-_U32.size], data[-_U32.size:]
        if not body.startswith(_MAGIC) \
                or zlib.crc32(body) != _U32.unpack(stored)[0]:
            return None
        cursor = len(_MAGIC)
        (applied_offset,) = _U64.unpack_from(body, cursor)
        cursor += _U64.size
        (manifest_len,) = _U32.unpack_from(body, cursor)
        cursor += _U32.size
        manifest = json.loads(body[cursor:cursor + manifest_len]
                              .decode("utf-8"))
        cursor += manifest_len
        (row_count,) = _U64.unpack_from(body, cursor)
        cursor += _U64.size
        rows: List[bytes] = []
        for _ in range(row_count):
            (length,) = _U32.unpack_from(body, cursor)
            cursor += _U32.size
            rows.append(body[cursor:cursor + length])
            cursor += length
        return Snapshot(name=name, applied_offset=applied_offset,
                        rows=rows, manifest=manifest)
