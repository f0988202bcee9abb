"""IoT fleet-health features over sparse long windows.

Walkthrough of the IoT telemetry workload: thousands of mostly-idle
devices, day-long feature windows, and the ``long_windows`` deployment
option that leaves them to the storage fold over memoized block
summaries.  Ends with
the streaming skew check: MQTT-grade arrival disorder (a minute of
slack, redeliveries) still yields byte-identical train/serve vectors.

Run:  python examples/iot_telemetry.py
"""

from __future__ import annotations

from repro import OpenMLDB
from repro.streams import CDCConfig, verify_stream_skew
from repro.workloads import iot


def main() -> None:
    config = iot.IoTConfig(devices=500, readings=8_000)
    db = OpenMLDB()
    db.create_table(iot.TABLE, iot.SCHEMA, indexes=[iot.INDEX])
    print(f"fleet: {config.devices} devices, {config.readings} readings "
          f"over {config.span_ms // 3_600_000} hours; telemetry older "
          f"than 7 days is TTL-evicted by the index")

    # Every window is served by the storage fold, with no ingest state.
    db.deploy("fleet_health", iot.feature_sql(),
              long_windows=iot.LONG_WINDOWS)
    last_reading = None
    for row in iot.generate_readings(config):
        db.insert(iot.TABLE, row)
        last_reading = row
    print(f"deployed with long_windows={iot.LONG_WINDOWS!r}: every "
          f"window folds storage summaries and raw edges")

    # Score the device that just reported, anchored on its own reading
    # (the request row is included in its window — real telemetry in,
    # real telemetry counted).
    vector = db.request_row("fleet_health", last_reading)
    print(f"\nhealth check for {vector[0]}:")
    print(f"  last hour : {vector[2]} readings, {vector[3]} pulses, "
          f"max temp {vector[4] / 10:.1f} C")
    print(f"  last day  : {vector[6]} readings, {vector[7]} pulses, "
          f"temp range {vector[9] / 10:.1f}..{vector[8] / 10:.1f} C")
    db.close()

    # ------------------------------------------------------------------
    # Streaming skew check with IoT-grade disorder (a minute of slack).
    stream = iot.cdc_stream(
        config, CDCConfig(seed=9, sources=5, max_delay_ms=60_000,
                          duplicate_fraction=0.04))
    boundary = config.start_ts + 24 * 3_600_000  # one day in
    probes = {boundary: iot.probe_rows(
        ["dev000001", "dev000002"], boundary, sites=config.sites)}
    report = verify_stream_skew(
        stream, tables={iot.TABLE: (iot.SCHEMA, [iot.INDEX])},
        sql=iot.feature_sql(), probes=probes,
        long_windows=iot.LONG_WINDOWS)
    report.raise_on_mismatch()
    print(f"\nstreaming skew check: {report.duplicates_dropped} "
          f"duplicates dropped, {report.out_of_order} out-of-order "
          f"arrivals, {report.compared} vectors byte-identical "
          f"(consistent={report.consistent})")


if __name__ == "__main__":
    main()
