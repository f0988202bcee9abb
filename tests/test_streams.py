"""Tests for the CDC streaming ingestion layer (repro.streams).

The acceptance bar (ISSUE 10): replaying the same seeded CDC stream —
out-of-order arrival plus duplicate delivery — through online ingest and
through the offline engine yields byte-identical feature vectors at
every watermark boundary, for both new workloads.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import OpenMLDB
from repro.errors import ConsistencyError, OpenMLDBError
from repro.obs import Observability
from repro.schema import IndexDef, Schema
from repro.streams import (CDCConfig, CDCStream, SkewMismatch, SkewReport,
                           StreamEvent, StreamIngestor, verify_stream_skew)
from repro.streams.skew import _identical
from repro.workloads import adctr, iot

SCHEMA = Schema.from_pairs([
    ("k", "string"), ("ts", "timestamp"), ("v", "bigint")])
INDEX = IndexDef(("k",), "ts")


def tiny_stream(events=200, **overrides):
    config = dict(seed=3, sources=3, max_delay_ms=500,
                  duplicate_fraction=0.1)
    config.update(overrides)
    rows = [(f"k{i % 5}", 1_000_000 + i * 20, i) for i in range(events)]
    return CDCStream.from_table("t", rows, ts_position=1,
                                config=CDCConfig(**config)), rows


class TestCDCStream:
    def test_replay_is_deterministic(self):
        stream, _rows = tiny_stream()
        first = list(stream.events())
        second = list(stream.events())
        assert first == second
        # A fresh stream from the same inputs is the same sequence too.
        again, _ = tiny_stream()
        assert list(again.events()) == first

    def test_arrival_order_and_bounded_delay(self):
        stream, _rows = tiny_stream()
        arrivals = [event.arrival_ts for event in stream]
        assert arrivals == sorted(arrivals)
        for event in stream:
            assert event.arrival_ts >= event.event_ts
            if not event.duplicate:
                assert event.arrival_ts - event.event_ts <= 500

    def test_stream_is_actually_out_of_order(self):
        stream, _rows = tiny_stream()
        event_ts = [e.event_ts for e in stream if not e.duplicate]
        assert event_ts != sorted(event_ts)

    def test_duplicates_present_and_flagged(self):
        stream, rows = tiny_stream()
        assert stream.duplicate_count > 0
        assert stream.delivered == len(rows) + stream.duplicate_count
        duplicated = [e for e in stream if e.duplicate]
        fresh = {(e.source, e.seq) for e in stream if not e.duplicate}
        assert duplicated
        for event in duplicated:
            assert (event.source, event.seq) in fresh

    def test_logical_rows_are_the_clean_history(self):
        stream, rows = tiny_stream()
        assert stream.logical_rows() == [tuple(row) for row in rows]

    def test_watermark_promise_is_sound(self):
        # At any point in the stream, no *fresh* later event may carry
        # an event_ts below the watermark promised so far.
        stream, _rows = tiny_stream()
        events = list(stream)
        per_source = {}
        for index, event in enumerate(events):
            per_source[event.source] = max(
                per_source.get(event.source, event.watermark),
                event.watermark)
            if len(per_source) < stream.config.sources:
                continue
            watermark = min(per_source.values())
            for later in events[index + 1:]:
                if not later.duplicate:
                    assert later.event_ts >= watermark

    def test_zero_delay_zero_duplicates_is_the_identity(self):
        stream, rows = tiny_stream(max_delay_ms=0,
                                   duplicate_fraction=0.0)
        assert stream.duplicate_count == 0
        assert [e.row for e in stream] == [tuple(r) for r in rows]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CDCConfig(sources=0)
        with pytest.raises(ValueError):
            CDCConfig(max_delay_ms=-1)
        with pytest.raises(ValueError):
            CDCConfig(duplicate_fraction=1.0)


class TestStreamIngestor:
    def _db(self):
        db = OpenMLDB()
        db.create_table("t", SCHEMA, indexes=[INDEX])
        return db

    def test_dedup_exactly_once(self):
        stream, rows = tiny_stream()
        db = self._db()
        ingestor = StreamIngestor(db, sources=stream.config.sources)
        for event in stream:
            ingestor.ingest(event)
        assert ingestor.ingested == len(rows)
        assert ingestor.duplicates == stream.duplicate_count
        assert db.table("t").row_count == len(rows)
        db.close()

    def test_out_of_order_counted_and_metrics_emitted(self):
        obs = Observability(enabled=True)
        stream, _rows = tiny_stream()
        db = OpenMLDB()
        db.create_table("t", SCHEMA, indexes=[INDEX])
        ingestor = StreamIngestor(db, sources=stream.config.sources,
                                  obs=obs)
        ingestor.run(stream)
        assert ingestor.out_of_order > 0
        registry = obs.registry
        assert registry.get("streams.ingested").value \
            == ingestor.ingested
        assert registry.get("streams.duplicates").value \
            == ingestor.duplicates
        assert registry.get("streams.out_of_order").value \
            == ingestor.out_of_order
        assert registry.get("streams.watermark_ms").value \
            == ingestor.watermark()
        db.close()

    def test_watermark_requires_every_source(self):
        stream, _rows = tiny_stream()
        ingestor = StreamIngestor(lambda table, row: None,
                                  sources=stream.config.sources + 1)
        for event in stream:
            ingestor.ingest(event)
        # One declared source never spoke: the watermark must stall.
        assert ingestor.watermark() is None
        # Until the stream is sealed (end-of-stream: nothing in flight).
        ingestor.seal()
        assert ingestor.watermark() == max(
            e.event_ts for e in stream)

    def test_watermark_never_ahead_of_completeness(self):
        # Everything at or below the watermark has been ingested.
        stream, rows = tiny_stream()
        seen = set()
        ingestor = StreamIngestor(
            lambda table, row: seen.add(row), sources=3)
        for event in stream:
            ingestor.ingest(event)
            watermark = ingestor.watermark()
            if watermark is None:
                continue
            missing = [row for row in rows
                       if row[1] <= watermark
                       and tuple(row) not in seen]
            assert not missing

    def test_run_fires_boundaries_in_order(self):
        stream, _rows = tiny_stream()
        fired = []
        ingestor = StreamIngestor(lambda table, row: None, sources=3)
        final = ingestor.run(
            stream,
            boundaries=[1_000_500, 1_002_000, 1_003_500],
            on_boundary=lambda b, w: fired.append((b, w)))
        assert [b for b, _w in fired] == [1_000_500, 1_002_000,
                                          1_003_500]
        for boundary, watermark in fired:
            assert watermark >= boundary
        assert final == max(e.event_ts for e in stream)

    def test_unreachable_boundary_raises(self):
        stream, _rows = tiny_stream()
        ingestor = StreamIngestor(lambda table, row: None, sources=3)
        with pytest.raises(ValueError, match="below requested"):
            ingestor.run(stream, boundaries=[10**15])


def _malformed(event, kind):
    """A bad delivery of ``event``: same source and seq, wrong content,
    and a watermark far ahead that it must not move."""
    wrong = {"table": {"table": "missing"}, "arity": {"row": event.row[:2]},
             "ts": {"event_ts": str(event.event_ts)}}[kind]
    return dataclasses.replace(event, watermark=event.watermark + 10**9,
                               **wrong)


_DELIVERIES = st.lists(st.tuples(
    st.sampled_from(("k0", "k1", "k2")), st.integers(0, 50),
    st.sampled_from((None, "table", "arity", "ts")), st.booleans()),
    min_size=1, max_size=30)


@settings(max_examples=40, deadline=None)
@given(_DELIVERIES)
def test_rejected_deliveries_do_not_count_as_delivered(plan):
    """Well-formed events, some preceded by a malformed delivery under the
    same seq (unknown table, wrong arity, a non-int ts) and some
    redelivered: only typed errors come out, and the table, its binlog and
    the counters equal an ingest that never saw the bad deliveries."""
    events, clean = [], []
    for seq, (key, step, bad, redeliver) in enumerate(plan):
        ts = 1_000 + seq * 10 - step
        event = StreamEvent(source=seq % 2, seq=seq // 2, table="t",
                            row=(key, ts, seq), event_ts=ts,
                            arrival_ts=ts, watermark=ts - 50)
        if bad is not None:
            events.append(_malformed(event, bad))
        events.append(event)
        clean.append(event)
        if redeliver:
            events.append(dataclasses.replace(event, duplicate=True))
            clean.append(events[-1])
    dbs, ingestors = [], []
    for deliveries in (events, clean):
        db = OpenMLDB()
        db.create_table("t", SCHEMA, indexes=[INDEX])
        ingestor = StreamIngestor(db, sources=2)
        for event in deliveries:
            try:
                ingestor.ingest(event)
            except OpenMLDBError:
                assert deliveries is events
        dbs.append(db)
        ingestors.append(ingestor)
    got, want = ingestors
    assert (got.ingested, got.duplicates, got.out_of_order,
            got.watermark()) == (want.ingested, want.duplicates,
                                 want.out_of_order, want.watermark())
    assert want.ingested == len(plan)
    tables = [list(db.table("t").rows()) for db in dbs]
    binlogs = [db.cluster.table_info("t").binlogs[0].rows_from(0)
               for db in dbs]
    assert tables[0] == tables[1] and binlogs[0] == binlogs[1]
    for db in dbs:
        db.close()


class TestSkewCheck:
    def test_identical_is_strict(self):
        assert _identical(("a", 1, 2.5), ("a", 1, 2.5))
        assert not _identical(("a", 1), ("a", 2))
        assert not _identical(("a", 1), ("a", 1.0))     # type drift
        assert not _identical(("a", 0.0), ("a", -0.0))  # sign drift

    def test_probe_must_sit_on_its_boundary(self):
        stream, _rows = tiny_stream()
        with pytest.raises(ValueError, match="anchored at"):
            verify_stream_skew(
                stream, tables={"t": (SCHEMA, [INDEX])},
                sql="SELECT k, ts, sum(v) OVER w AS s FROM t WINDOW w "
                    "AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN "
                    "1m PRECEDING AND CURRENT ROW)",
                probes={1_001_000: [("k0", 999, 0)]})

    def test_small_stream_end_to_end(self):
        stream, _rows = tiny_stream()
        report = verify_stream_skew(
            stream, tables={"t": (SCHEMA, [INDEX])},
            sql="SELECT k, ts, sum(v) OVER w AS s, count(v) OVER w AS c "
                "FROM t WINDOW w AS (PARTITION BY k ORDER BY ts "
                "ROWS_RANGE BETWEEN 10m PRECEDING AND CURRENT ROW)",
            probes={1_002_000: [(f"k{i}", 1_002_000, 0)
                                for i in range(5)]})
        assert report.compared == 5
        assert report.consistent

    def test_undeduplicated_ingest_visibly_corrupts_features(self):
        # Negative control: duplicates NOT deduplicated make online
        # state diverge from the clean history — the corruption the
        # skew check exists to catch.
        raw_stream, rows = tiny_stream()
        db = OpenMLDB()
        db.create_table("t", SCHEMA, indexes=[INDEX])
        db.deploy("d", "SELECT k, ts, count(v) OVER w AS c FROM t "
                       "WINDOW w AS (PARTITION BY k ORDER BY ts "
                       "ROWS_RANGE BETWEEN 10m PRECEDING AND CURRENT "
                       "ROW)")
        for event in raw_stream:  # BUG: no dedup — duplicates land
            db.insert("t", event.row)
        anchor = max(r[1] for r in rows) + 1
        counted = db.request_row("d", ("k0", anchor, 0))[2]
        expected = 1 + sum(1 for r in rows if r[0] == "k0")
        assert counted > expected  # duplicates visibly corrupt features
        db.close()


@pytest.mark.parametrize("workload", ["adctr", "iot"])
def test_smoke_stream_skew_byte_identical(workload):
    """Acceptance: same seeded stream, online vs offline, byte-identical
    feature vectors at every watermark boundary — both workloads."""
    if workload == "adctr":
        config = adctr.AdCTRConfig(campaigns=40, heavy_hitters=3,
                                   events=1_200)
        stream = adctr.cdc_stream(
            config, CDCConfig(seed=5, sources=3, max_delay_ms=2_000,
                              duplicate_fraction=0.05))
        keys = ["cmp000000", "cmp000001", "cmp000010"]
        boundaries = [config.start_ts + 15_000,
                      config.start_ts + 35_000]
        probes = {b: adctr.probe_rows(keys, b) for b in boundaries}
        tables = {adctr.TABLE: (adctr.SCHEMA, [adctr.INDEX])}
        sql, long_windows = adctr.feature_sql(), None
    else:
        config = iot.IoTConfig(devices=100, readings=2_000)
        stream = iot.cdc_stream(
            config, CDCConfig(seed=9, sources=4, max_delay_ms=30_000,
                              duplicate_fraction=0.04))
        keys = ["dev000000", "dev000001", "dev000042"]
        boundaries = [config.start_ts + 6 * 3_600_000,
                      config.start_ts + 30 * 3_600_000]
        probes = {b: iot.probe_rows(keys, b) for b in boundaries}
        tables = {iot.TABLE: (iot.SCHEMA, [iot.INDEX])}
        sql, long_windows = iot.feature_sql(), iot.LONG_WINDOWS

    report = verify_stream_skew(stream, tables=tables, sql=sql,
                                probes=probes,
                                long_windows=long_windows)
    assert report.duplicates_dropped > 0      # the stream did redeliver
    assert report.out_of_order > 0            # and did reorder
    assert report.compared == sum(len(rows) for rows in probes.values())
    report.raise_on_mismatch()
    assert report.consistent


def test_skew_report_raises_the_typed_error():
    report = SkewReport(
        boundaries=[10], compared=1, duplicates_dropped=0, out_of_order=0,
        mismatches=[SkewMismatch(boundary=10, probe=("k0", 10, 0),
                                 online=(1,), offline=(2,))])
    with pytest.raises(ConsistencyError, match="train/serve skew"):
        report.raise_on_mismatch()
