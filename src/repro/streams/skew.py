"""Train/serve skew verification at watermark boundaries.

The check the paper's consistency story demands, extended to streaming
arrival: replay **the identical seeded CDC stream** two ways —

* **serve side**: arrival order (out-of-order, duplicated) through the
  online ingest path, probing feature vectors with online requests the
  moment the watermark crosses each boundary;
* **train side**: the deduplicated, event-time-ordered history through
  the offline engine, with the same probe rows materialised at the same
  boundaries —

and assert the feature vectors are **byte-identical**.  The watermark is
what makes the comparison fair: at boundary ``B`` the serve side is
guaranteed to have absorbed every event with ``event_ts <= B`` (later
events are excluded by the request anchor), which is exactly the
history the train side sees.

Requirements on the feature script: its first two output columns must
pass through the partition key and the timestamp (they identify probe
rows in the offline result — probes are inserted after the history, so
among timestamp ties the probe is the *last* matching output row and
its window covers every stored tie, mirroring the online virtual
insert), windows must be ``ROWS_RANGE``, and aggregated columns should be integer-valued when exact byte
equality is asserted (float accumulation order differs between arrival
order and event-time order).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.database import OpenMLDB
from ..errors import ConsistencyError
from ..schema import IndexDef, Row, Schema
from .cdc import CDCStream, StreamIngestor

__all__ = ["SkewMismatch", "SkewReport", "verify_stream_skew"]


@dataclasses.dataclass(frozen=True)
class SkewMismatch:
    """One diverging (or missing) feature vector."""

    boundary: int
    probe: Row
    online: Optional[Row]
    offline: Optional[Row]


@dataclasses.dataclass
class SkewReport:
    """Outcome of one :func:`verify_stream_skew` run."""

    boundaries: List[int]
    compared: int
    duplicates_dropped: int
    out_of_order: int
    mismatches: List[SkewMismatch]

    @property
    def consistent(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            first = self.mismatches[0]
            raise ConsistencyError(
                f"{len(self.mismatches)} train/serve skew(s); first at "
                f"watermark boundary {first.boundary}, probe "
                f"{first.probe!r}: online={first.online!r} "
                f"offline={first.offline!r}")


def _identical(left: Row, right: Row) -> bool:
    """Byte-identical feature vectors: same values, same value *bits*.

    ``==`` alone treats ``-0.0 == 0.0`` and ``1 == 1.0`` as equal;
    ``repr`` distinguishes both, so requiring it catches a path that
    changed a value's representation even where arithmetic agrees.
    """
    return left == right and repr(tuple(left)) == repr(tuple(right))


def verify_stream_skew(
        stream: CDCStream, *,
        tables: Dict[str, Tuple[Schema, Sequence[IndexDef]]],
        sql: str,
        probes: Dict[int, Sequence[Row]],
        primary_table: Optional[str] = None,
        long_windows: Optional[str] = None,
        deployment: str = "skew_check",
        request_factory: Optional[Callable[[], OpenMLDB]] = None,
        ) -> SkewReport:
    """Replay one stream online and offline; compare at boundaries.

    Args:
        stream: the seeded CDC stream (replayed as-is on the serve
            side, and via :meth:`~repro.streams.CDCStream.logical_rows`
            on the train side).
        tables: name → (schema, indexes) for every referenced table.
        sql: the feature script (see module docstring for the shape
            requirements).
        probes: watermark boundary (ms) → request rows anchored at that
            boundary (each probe row's timestamp must equal its
            boundary).
        primary_table: table the probes belong to; defaults to the
            stream's only table.
        long_windows: forwarded to ``deploy`` (the named windows are
            served by the storage fold).
        deployment: deployment name used on both sides.
        request_factory: override how instances are built (e.g. to add
            observability or a memory budget).

    Returns:
        A :class:`SkewReport`; ``report.consistent`` is the verdict.
    """
    if primary_table is None:
        if len(stream.tables) != 1:
            raise ValueError("primary_table required for a multi-table "
                             "stream")
        primary_table = stream.tables[0]
    ts_position = stream.ts_position(primary_table)
    boundaries = sorted(probes)
    for boundary in boundaries:
        for probe in probes[boundary]:
            if int(probe[ts_position]) != boundary:
                raise ValueError(
                    f"probe {probe!r} is anchored at "
                    f"{probe[ts_position]}, not its boundary {boundary}")

    build = request_factory if request_factory is not None else OpenMLDB

    # ---------------------------------------------------------------
    # Serve side: arrival order through the ingest/binlog path.
    online_db = build()
    for name, (schema, indexes) in tables.items():
        online_db.create_table(name, schema, indexes=list(indexes))
    online_db.deploy(deployment, sql, long_windows=long_windows)
    online_vectors: Dict[Tuple[int, int], Row] = {}

    ingestor = StreamIngestor(online_db, sources=stream.config.sources,
                              obs=online_db.obs)

    def probe_online(boundary: int, _watermark: int) -> None:
        for index, probe in enumerate(probes[boundary]):
            online_vectors[(boundary, index)] = tuple(
                online_db.request_row(deployment, probe))

    try:
        ingestor.run(stream.events(), boundaries=boundaries,
                     on_boundary=probe_online)
    finally:
        online_db.close()

    # ---------------------------------------------------------------
    # Train side: the offline engine over the clean history.  One
    # instance per boundary — each sees exactly the rows with
    # event_ts <= boundary plus that boundary's probe rows, which the
    # offline batch run then answers for (the probe row's own feature
    # vector *is* the train-side label row).
    mismatches: List[SkewMismatch] = []
    compared = 0
    for boundary in boundaries:
        offline_db = build()
        try:
            for name, (schema, indexes) in tables.items():
                offline_db.create_table(name, schema,
                                        indexes=list(indexes))
            for name in stream.tables:
                position = stream.ts_position(name)
                for row in stream.logical_rows(name):
                    if int(row[position]) <= boundary:
                        offline_db.insert(name, row)
            for probe in probes[boundary]:
                offline_db.insert(primary_table, probe)
            offline_rows, _stats = offline_db.offline_query(sql)
        finally:
            offline_db.close()

        for index, probe in enumerate(probes[boundary]):
            online = online_vectors.get((boundary, index))
            # Probe rows are identified by the passthrough (key, ts)
            # prefix.  A stored event may tie the probe's (key, ts);
            # ties do NOT share a window (a row's window covers ties
            # ordered before it, plus itself).  The probe was inserted
            # after the whole history, so it owns the last tie-break:
            # its window — like the online virtual insert — covers
            # every stored tie, and its vector is the *last* match.
            wanted = tuple(online[:2]) if online is not None else None
            matches = [row for row in offline_rows
                       if wanted is not None
                       and tuple(row[:2]) == wanted]
            offline = tuple(matches[-1]) if matches else None
            compared += 1
            if online is None or offline is None \
                    or not _identical(online, offline):
                mismatches.append(SkewMismatch(
                    boundary=boundary, probe=tuple(probe),
                    online=online, offline=offline))

    return SkewReport(boundaries=boundaries, compared=compared,
                      duplicates_dropped=ingestor.duplicates,
                      out_of_order=ingestor.out_of_order,
                      mismatches=mismatches)
