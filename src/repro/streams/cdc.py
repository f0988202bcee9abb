"""Replayable CDC stream source and the online ingest consumer.

A change-data-capture pipeline delivers committed rows with three
realities a batch loader never sees:

* **out-of-order arrival** — network and capture lag reorder events
  within a bounded horizon (``max_delay_ms``);
* **duplicate delivery** — at-least-once transports redeliver; the
  consumer owns deduplication;
* **watermarks** — each source periodically promises "no event older
  than T is still in flight", and the *global* watermark (the minimum
  across sources) is when downstream state may be treated as complete
  up to T.

:class:`CDCStream` synthesises all three from a clean, event-time-ordered
change list, **deterministically for a seed**: iterating the stream twice
yields the identical arrival sequence, which is what makes train/serve
skew testable — the same stream can be replayed through online ingest
and through the offline engine and the answers compared byte for byte
(see :mod:`repro.streams.skew`).

The arrival model keeps the watermark promise sound by construction:
every fresh event is delivered within ``max_delay_ms`` of its event
time and the merged stream is sorted by arrival time, so once a source
has delivered an event that arrived at time ``A``, nothing it has not
yet delivered can carry an event time below ``A - max_delay_ms``.
Duplicates may arrive later than the bound — they redeliver data the
consumer already has, so they never move completeness backwards.
"""

from __future__ import annotations

import dataclasses
import random
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from ..errors import TypeMismatchError
from ..obs import NULL_OBS, Observability

__all__ = ["CDCConfig", "StreamEvent", "CDCStream", "StreamIngestor"]


@dataclasses.dataclass(frozen=True)
class CDCConfig:
    """Arrival-model knobs for one synthesised CDC stream."""

    sources: int = 4                # capture shards feeding the stream
    max_delay_ms: int = 5_000       # out-of-order bound for fresh events
    duplicate_fraction: float = 0.05  # chance an event is redelivered
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sources < 1:
            raise ValueError("sources must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ValueError("duplicate_fraction must be in [0, 1)")


@dataclasses.dataclass(frozen=True)
class StreamEvent:
    """One delivered change, as the transport hands it to a consumer."""

    source: int        # capture shard that emitted the event
    seq: int           # per-source sequence number (dedup identity)
    table: str
    row: Tuple[Any, ...]
    event_ts: int      # the row's own timestamp (ms)
    arrival_ts: int    # when the transport delivered it (ms)
    #: The emitting source's promise at delivery: no fresh event from
    #: this source with ``event_ts < watermark`` is still in flight.
    watermark: int
    duplicate: bool = False


class CDCStream:
    """A seeded, replayable arrival-ordered change stream.

    Args:
        changes: the clean change list in commit (event-time) order —
            ``(table, row)`` pairs, as a workload generator yields them.
        ts_positions: per-table position of the row's timestamp column.
        config: arrival-model knobs.

    Every iteration of :meth:`events` replays the identical arrival
    sequence; :meth:`logical_rows` exposes the deduplicated, event-time
    ordered view (what a batch/offline loader would read).
    """

    def __init__(self, changes: Iterable[Tuple[str, Tuple[Any, ...]]],
                 ts_positions: Dict[str, int],
                 config: CDCConfig = CDCConfig()) -> None:
        self.config = config
        self._changes: List[Tuple[str, Tuple[Any, ...]]] = \
            [(table, tuple(row)) for table, row in changes]
        self._ts_positions = dict(ts_positions)
        self._events = self._synthesise()

    @classmethod
    def from_table(cls, table: str, rows: Iterable[Sequence[Any]],
                   ts_position: int,
                   config: CDCConfig = CDCConfig()) -> "CDCStream":
        """Single-table convenience constructor."""
        return cls(((table, tuple(row)) for row in rows),
                   {table: ts_position}, config)

    # ------------------------------------------------------------------

    def _synthesise(self) -> List[StreamEvent]:
        rng = random.Random(self.config.seed)
        bound = self.config.max_delay_ms
        deliveries: List[Tuple[int, int, int, bool, str,
                               Tuple[Any, ...], int]] = []
        next_seq = [0] * self.config.sources
        for table, row in self._changes:
            position = self._ts_positions[table]
            event_ts = int(row[position])
            source = rng.randrange(self.config.sources)
            seq = next_seq[source]
            next_seq[source] += 1
            arrival = event_ts + (rng.randrange(bound + 1) if bound else 0)
            deliveries.append(
                (arrival, source, seq, False, table, row, event_ts))
            if rng.random() < self.config.duplicate_fraction:
                # At-least-once redelivery: same (source, seq), later
                # arrival — possibly beyond the fresh-event bound.
                redelivery = arrival + (rng.randrange(bound + 1)
                                        if bound else 0) + 1
                deliveries.append((redelivery, source, seq, True,
                                   table, row, event_ts))
        deliveries.sort(key=lambda d: (d[0], d[1], d[2], d[3]))
        events: List[StreamEvent] = []
        for arrival, source, seq, duplicate, table, row, event_ts \
                in deliveries:
            events.append(StreamEvent(
                source=source, seq=seq, table=table, row=row,
                event_ts=event_ts, arrival_ts=arrival,
                watermark=arrival - bound, duplicate=duplicate))
        return events

    # ------------------------------------------------------------------

    def events(self) -> Iterator[StreamEvent]:
        """The arrival-ordered delivery sequence (replayable)."""
        return iter(self._events)

    def __iter__(self) -> Iterator[StreamEvent]:
        return self.events()

    def __len__(self) -> int:
        return len(self._events)

    @property
    def delivered(self) -> int:
        """Deliveries including duplicates (``len(self)``)."""
        return len(self._events)

    @property
    def logical_count(self) -> int:
        """Distinct changes (duplicates collapsed)."""
        return len(self._changes)

    @property
    def duplicate_count(self) -> int:
        return len(self._events) - len(self._changes)

    @property
    def tables(self) -> Tuple[str, ...]:
        return tuple(self._ts_positions)

    def ts_position(self, table: str) -> int:
        return self._ts_positions[table]

    def logical_rows(self, table: Optional[str] = None
                     ) -> List[Tuple[Any, ...]]:
        """Deduplicated rows in event-time (commit) order.

        This is the offline/train-side view of the identical stream:
        what a batch ETL job reading the upstream database would load.
        With ``table`` given, only that table's rows.
        """
        if table is None and len(self._ts_positions) == 1:
            (table,) = self._ts_positions
        return [row for name, row in self._changes
                if table is None or name == table]


class StreamIngestor:
    """Feed a CDC stream into a database's insert path, exactly once.

    The sink is anything with ``insert(table, row)`` — an
    :class:`~repro.OpenMLDB` instance (whose insert path runs the row
    through :meth:`~repro.online.binlog.Replicator.append_entry`, so
    storage, its summaries and the binlog all observe the realistic
    arrival order) — or a plain callable
    ``sink(table, row)`` for cluster ``put`` paths.

    Responsibilities of the consumer side of an at-least-once transport:

    * **dedup** — redeliveries of a seen ``(source, seq)`` are dropped;
    * **watermark tracking** — the global watermark is the minimum of
      the per-source promises, and only exists once every source has
      delivered at least one event (an idle source stalls it, exactly
      as in production stream processors);
    * **boundary callbacks** — :meth:`run` fires ``on_boundary`` the
      first time the watermark crosses each requested boundary, which
      is where the skew check probes feature vectors.

    Metrics (when ``obs`` is enabled): ``streams.ingested``,
    ``streams.duplicates``, ``streams.out_of_order`` counters and the
    ``streams.watermark_ms`` gauge.
    """

    def __init__(self, sink: Any, sources: int,
                 obs: Optional[Observability] = None) -> None:
        if sources < 1:
            raise ValueError("sources must be >= 1")
        self._insert: Callable[[str, Tuple[Any, ...]], Any] = \
            sink if callable(sink) else sink.insert
        self._sources = sources
        self._seen: Dict[int, Set[int]] = {}
        self._source_watermarks: Dict[int, int] = {}
        self._sealed: Optional[int] = None
        self._max_event_ts: Optional[int] = None
        self.ingested = 0
        self.duplicates = 0
        self.out_of_order = 0
        obs = obs or NULL_OBS
        registry = obs.registry
        self._m_ingested = registry.counter("streams.ingested")
        self._m_duplicates = registry.counter("streams.duplicates")
        self._m_out_of_order = registry.counter("streams.out_of_order")
        self._g_watermark = registry.gauge("streams.watermark_ms")

    # ------------------------------------------------------------------

    def ingest(self, event: StreamEvent) -> bool:
        """Apply one delivery; returns False for a dropped duplicate.  The
        sink takes the row first, so a rejected delivery (a typed error)
        is not seen and moves no watermark: its redelivery still lands."""
        event_ts = event.event_ts
        if type(event_ts) is not int:
            raise TypeMismatchError(f"event_ts {event_ts!r} is not an int")
        seen = self._seen.setdefault(event.source, set())
        duplicate = event.seq in seen
        if not duplicate:
            self._insert(event.table, event.row)
        watermark = self._source_watermarks.get(event.source)
        if watermark is None or event.watermark > watermark:
            self._source_watermarks[event.source] = event.watermark
        if duplicate:
            self.duplicates += 1
            self._m_duplicates.inc()
            return False
        seen.add(event.seq)
        if self._max_event_ts is not None and event_ts < self._max_event_ts:
            self.out_of_order += 1
            self._m_out_of_order.inc()
        if self._max_event_ts is None or event_ts > self._max_event_ts:
            self._max_event_ts = event_ts
        self.ingested += 1
        self._m_ingested.inc()
        current = self.watermark()
        if current is not None:
            self._g_watermark.set(current)
        return True

    def watermark(self) -> Optional[int]:
        """Global completeness promise: min over per-source watermarks.

        ``None`` until every source has delivered at least one event.
        After :meth:`seal`, the end-of-stream watermark.
        """
        if self._sealed is not None:
            return self._sealed
        if len(self._source_watermarks) < self._sources:
            return None
        return min(self._source_watermarks.values())

    def seal(self) -> Optional[int]:
        """Mark the stream exhausted: nothing is in flight any more, so
        the watermark advances to the largest ingested event time."""
        if self._max_event_ts is not None:
            self._sealed = self._max_event_ts
            self._g_watermark.set(self._sealed)
        return self._sealed

    # ------------------------------------------------------------------

    def run(self, stream: Iterable[StreamEvent],
            boundaries: Sequence[int] = (),
            on_boundary: Optional[Callable[[int, int], None]] = None
            ) -> Optional[int]:
        """Ingest a whole stream, firing watermark-boundary callbacks.

        ``on_boundary(boundary, watermark)`` runs the first time the
        global watermark reaches each boundary (ascending order); the
        stream's end seals the watermark, so trailing boundaries not
        reached mid-stream still fire if the data covers them.  Returns
        the final watermark.

        Raises:
            ValueError: a requested boundary lies beyond the stream's
                final watermark — the probe would describe incomplete
                data, which is exactly the skew the boundary exists to
                rule out.
        """
        pending = sorted(boundaries)
        for event in stream:
            self.ingest(event)
            pending = self._fire(pending, on_boundary)
        self.seal()
        pending = self._fire(pending, on_boundary)
        if pending:
            raise ValueError(
                f"stream ended with watermark {self.watermark()} below "
                f"requested boundaries {pending}")
        return self.watermark()

    def _fire(self, pending: List[int],
              on_boundary: Optional[Callable[[int, int], None]]
              ) -> List[int]:
        watermark = self.watermark()
        if watermark is None:
            return pending
        while pending and watermark >= pending[0]:
            boundary = pending.pop(0)
            if on_boundary is not None:
                on_boundary(boundary, watermark)
        return pending
