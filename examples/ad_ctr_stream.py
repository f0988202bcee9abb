"""Ad CTR features fed by a CDC stream (streaming-ingestion walkthrough).

The full streaming story on the ad click-through-rate workload:

1. synthesise a seeded CDC stream from the impression log — out-of-order
   arrival within a bound, a few duplicate deliveries;
2. feed it through :class:`~repro.streams.StreamIngestor` into the
   online insert path (dedup, per-source watermarks), probing features
   the moment the watermark crosses a boundary;
3. replay the *identical* stream through the offline engine and verify
   the feature vectors are byte-identical at every boundary — the
   train/serve-skew guarantee, under realistic arrival order.

Run:  python examples/ad_ctr_stream.py
"""

from __future__ import annotations

from repro import OpenMLDB
from repro.streams import CDCConfig, StreamIngestor, verify_stream_skew
from repro.workloads import adctr


def main() -> None:
    config = adctr.AdCTRConfig(campaigns=60, heavy_hitters=4,
                               events=3_000)
    stream = adctr.cdc_stream(
        config, CDCConfig(seed=5, sources=4, max_delay_ms=3_000,
                          duplicate_fraction=0.05))
    print(f"CDC stream: {stream.logical_count} impressions -> "
          f"{stream.delivered} deliveries "
          f"({stream.duplicate_count} duplicates, "
          f"{stream.config.sources} sources, "
          f"<= {stream.config.max_delay_ms} ms disorder)")

    # ------------------------------------------------------------------
    # Online: ingest in arrival order, watch the watermark advance.
    db = OpenMLDB()
    db.create_table(adctr.TABLE, adctr.SCHEMA, indexes=[adctr.INDEX])
    db.deploy("ctr", adctr.feature_sql())
    ingestor = StreamIngestor(db, sources=stream.config.sources)

    boundary = config.start_ts + 60_000  # one minute into the stream
    hot = ["cmp000000", "cmp000001"]

    def probe(crossed: int, watermark: int) -> None:
        print(f"\nwatermark crossed {crossed} (now {watermark}): "
              "features are complete up to the boundary")
        for row in adctr.probe_rows(hot, crossed):
            vector = db.request_row("ctr", row)
            print(f"  {vector[0]}: spend_1m={vector[3]} "
                  f"clicks_1m={vector[4]} ctr_10m={vector[8]:.4f}")

    ingestor.run(stream, boundaries=[boundary], on_boundary=probe)
    print(f"\ningested {ingestor.ingested} rows exactly once "
          f"({ingestor.duplicates} duplicates dropped, "
          f"{ingestor.out_of_order} arrived out of order)")
    db.close()

    # ------------------------------------------------------------------
    # Train/serve skew: same stream, both engines, byte equality.
    report = verify_stream_skew(
        stream,
        tables={adctr.TABLE: (adctr.SCHEMA, [adctr.INDEX])},
        sql=adctr.feature_sql(),
        probes={boundary: adctr.probe_rows(hot, boundary)})
    report.raise_on_mismatch()
    print(f"\ntrain/serve skew check: {report.compared} vectors "
          f"compared at {len(report.boundaries)} boundary(ies) -> "
          f"byte-identical "
          f"(consistent={report.consistent})")


if __name__ == "__main__":
    main()
