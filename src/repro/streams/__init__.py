"""Streaming CDC ingestion: replayable event sources with watermarks.

The paper's online story is about *fresh* data: feature requests are
served while out-of-order events are still arriving.  This package
provides the arrival side of that story as a first-class, testable
object:

* :class:`CDCStream` — a seeded, replayable change stream over one or
  more tables: bounded out-of-order arrival, duplicate delivery, and
  per-source watermark promises, generated deterministically so the
  identical stream can be replayed through the online ingest path *and*
  the offline engine;
* :class:`StreamIngestor` — the consumer that feeds a database's
  insert path (and therefore its storage and binlog),
  deduplicating redeliveries and tracking the conservative global
  watermark;
* :func:`verify_stream_skew` — the train/serve skew check: at every
  watermark boundary, online feature vectors computed over the
  out-of-order stream must be byte-identical to the offline engine's
  answer over the clean, event-time-ordered history.
"""

from .cdc import CDCConfig, CDCStream, StreamEvent, StreamIngestor
from .skew import SkewMismatch, SkewReport, verify_stream_skew

__all__ = [
    "CDCConfig", "CDCStream", "StreamEvent", "StreamIngestor",
    "SkewMismatch", "SkewReport", "verify_stream_skew",
]
