"""IoT telemetry workload: very many device keys, sparse long windows.

The opposite corner of the key-distribution space from ad CTR: tens of
thousands of devices each report a few times per hour, and the features
that matter are *long*, *sparse* windows — "readings in the last day",
"max temperature this week" — over keys that are individually almost
idle.  That shape stresses:

* **pre-aggregation** — a day-long window over sparse data is exactly
  the ``long_windows`` case: per-request raw scans touch hours of
  history, the storage fold answers from a handful of block summaries;
* **TTL** — keeping a week of telemetry per device only works because
  the index TTL evicts the tail; feature windows must agree with the
  eviction horizon;
* **key cardinality** — per-key state (time lists, sealed blocks)
  is multiplied by the device count, which is what the memory governor
  meters.

Readings are integers (deci-degrees, basis points, counts), so long
aggregates fold exactly and the CDC skew check can assert byte-identical
train/serve vectors.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Iterator, List, Optional, Tuple

from ..schema import IndexDef, Schema, TTLKind, TTLSpec
from ..streams import CDCConfig, CDCStream

__all__ = ["IoTConfig", "SCHEMA", "INDEX", "TABLE", "TS_POSITION",
           "feature_sql", "generate_readings", "generate_requests",
           "cdc_stream", "probe_rows", "LONG_WINDOWS"]

TABLE = "iot_readings"
TS_POSITION = 1

SCHEMA = Schema.from_pairs([
    ("device", "string"),
    ("ts", "timestamp"),
    ("site", "string"),
    ("temp_dc", "int"),        # deci-degrees Celsius
    ("battery_bp", "int"),     # basis points of full charge
    ("pulses", "bigint"),      # meter pulses since last report
])

#: Telemetry older than a week is dead weight; the index TTL evicts it.
INDEX = IndexDef(key_columns=("device",), ts_column="ts",
                 ttl=TTLSpec(kind=TTLKind.ABSOLUTE,
                             abs_ttl_ms=7 * 86_400_000))

#: Default ``deploy(..., long_windows=...)`` option: the day window is
#: served by the storage fold over block summaries.
LONG_WINDOWS = "w1d:1h"


@dataclasses.dataclass(frozen=True)
class IoTConfig:
    """Scale knobs: many keys, few events per key."""

    devices: int = 3_000
    readings: int = 24_000          # total, fleet-wide
    sites: int = 12
    seed: int = 31
    start_ts: int = 1_710_000_000_000
    span_ms: int = 2 * 86_400_000   # two days of telemetry

    def __post_init__(self) -> None:
        if self.devices < 1 or self.readings < 1:
            raise ValueError("devices/readings must be >= 1")


def _device_name(index: int) -> str:
    return f"dev{index:06d}"


def generate_readings(config: IoTConfig = IoTConfig()) -> Iterator[Tuple]:
    """Yield telemetry rows in event-time order.

    Devices are uniform (no heavy hitters — the point is the breadth),
    each on its own slow diurnal temperature cycle with a slowly
    draining battery.
    """
    rng = random.Random(config.seed)
    step = max(config.span_ms // config.readings, 1)
    ts = config.start_ts
    for _ in range(config.readings):
        device_id = rng.randrange(config.devices)
        day_phase = ((ts - config.start_ts) % 86_400_000) / 86_400_000
        base_temp = 180 + int(60 * math.sin(2 * math.pi * day_phase))
        yield (
            _device_name(device_id),
            ts,
            f"site{device_id % config.sites:02d}",
            base_temp + rng.randrange(-15, 16),
            rng.randrange(1_500, 10_000),
            rng.randrange(0, 50),
        )
        ts += rng.randrange(0, 2 * step + 1)


def generate_requests(config: IoTConfig = IoTConfig(),
                      requests: int = 2_000,
                      anchor_ts: Optional[int] = None,
                      seed: Optional[int] = None) -> Iterator[Tuple]:
    """Yield uniform health-check request rows across the device fleet."""
    rng = random.Random(config.seed + 1 if seed is None else seed)
    if anchor_ts is None:
        anchor_ts = config.start_ts + config.span_ms
    for _ in range(requests):
        device_id = rng.randrange(config.devices)
        yield (_device_name(device_id), anchor_ts,
               f"site{device_id % config.sites:02d}", 0, 0, 0)


def feature_sql() -> str:
    """Fleet-health features over one sparse hour and one sparse day.

    First two output columns pass through ``(device, ts)`` (the skew
    probe contract); the day window is the ``long_windows`` target.
    """
    return (
        "SELECT device, ts, "
        "  count(pulses) OVER w1h AS n_1h, "
        "  sum(pulses) OVER w1h AS pulses_1h, "
        "  max(temp_dc) OVER w1h AS max_temp_1h, "
        "  min(battery_bp) OVER w1h AS min_batt_1h, "
        "  count(pulses) OVER w1d AS n_1d, "
        "  sum(pulses) OVER w1d AS pulses_1d, "
        "  max(temp_dc) OVER w1d AS max_temp_1d, "
        "  min(temp_dc) OVER w1d AS min_temp_1d, "
        "  sum(battery_bp) OVER w1d AS batt_sum_1d "
        f"FROM {TABLE} WINDOW "
        "  w1h AS (PARTITION BY device ORDER BY ts "
        "    ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW), "
        "  w1d AS (PARTITION BY device ORDER BY ts "
        "    ROWS_RANGE BETWEEN 1d PRECEDING AND CURRENT ROW)")


def cdc_stream(config: IoTConfig = IoTConfig(),
               cdc: CDCConfig = CDCConfig(seed=9, sources=6,
                                          max_delay_ms=60_000,
                                          duplicate_fraction=0.03)
               ) -> CDCStream:
    """The fleet's telemetry as a replayable CDC stream.

    IoT transports (MQTT brokers, gateway store-and-forward) are the
    worst offenders for delay and redelivery, so the default arrival
    model is looser than ad CTR's: a minute of out-of-order slack.
    """
    return CDCStream.from_table(TABLE, generate_readings(config),
                                ts_position=TS_POSITION, config=cdc)


def probe_rows(devices: List[str], boundary_ts: int,
               sites: int = 12) -> List[Tuple]:
    """Request rows anchored at a watermark boundary (skew probes)."""
    return [(device, boundary_ts,
             f"site{int(device[3:]) % sites:02d}", 0, 0, 0)
            for device in devices]
