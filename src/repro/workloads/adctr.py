"""Ad click-through-rate workload with heavy-hitter campaign keys.

Online advertising is the canonical feature-serving workload: a bidder
asks "what has this campaign done in the last minute / ten minutes /
hour" on every request, while impression and click events stream in
out of order from regional collectors.  Two properties make it a
stress test rather than a demo:

* **heavy hitters** — a handful of always-on campaigns dominate both
  the event stream and the request stream (the shape the elastic data
  plane's rebalancer exists for: hot partitions want splitting);
* **freshness** — budget pacing reads ``spend_1m``; a feature computed
  on stale state overspends real money, which is why the CDC watermark
  (not wall clock) gates train/serve comparisons.

Monetary values are integer micros and clicks are 0/1 ints, so every
windowed aggregate folds in exact integer arithmetic — the train/serve
skew check can demand *byte-identical* vectors across arrival orders.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, List, Optional, Tuple

from ..schema import IndexDef, Schema
from ..streams import CDCConfig, CDCStream

__all__ = ["AdCTRConfig", "SCHEMA", "INDEX", "TABLE", "TS_POSITION",
           "feature_sql", "generate_impressions", "generate_requests",
           "cdc_stream", "probe_rows"]

TABLE = "ad_events"
TS_POSITION = 1  # ts column's position in SCHEMA / generated rows

SCHEMA = Schema.from_pairs([
    ("campaign", "string"),
    ("ts", "timestamp"),
    ("advertiser", "int"),
    ("slot", "int"),            # placement id
    ("cost", "bigint"),         # price paid, micros
    ("click", "int"),           # 0/1
])

INDEX = IndexDef(key_columns=("campaign",), ts_column="ts")


@dataclasses.dataclass(frozen=True)
class AdCTRConfig:
    """Scale and skew knobs (defaults are laptop-sized)."""

    campaigns: int = 400
    heavy_hitters: int = 6      # campaigns taking most of the traffic
    hot_fraction: float = 0.7   # share of events on the heavy hitters
    events: int = 20_000
    seed: int = 23
    start_ts: int = 1_720_000_000_000
    mean_gap_ms: int = 40       # fleet-wide inter-event gap

    def __post_init__(self) -> None:
        if not 0 < self.heavy_hitters <= self.campaigns:
            raise ValueError("heavy_hitters must be in [1, campaigns]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")


def _campaign_name(index: int) -> str:
    return f"cmp{index:06d}"


def generate_impressions(config: AdCTRConfig = AdCTRConfig()
                         ) -> Iterator[Tuple]:
    """Yield ad events in event-time (commit) order.

    ``hot_fraction`` of events land on the ``heavy_hitters`` hottest
    campaigns; the long tail shares the rest.  Heavy hitters click
    slightly better (they are heavy for a reason), so CTR features
    differ visibly between head and tail.
    """
    rng = random.Random(config.seed)
    hot = [_campaign_name(index) for index in range(config.heavy_hitters)]
    cold_ids = range(config.heavy_hitters, config.campaigns)
    ts = config.start_ts
    for _ in range(config.events):
        if rng.random() < config.hot_fraction:
            campaign = rng.choice(hot)
            click_rate = 0.08
        else:
            campaign = _campaign_name(rng.choice(cold_ids))
            click_rate = 0.015
        yield (
            campaign,
            ts,
            int(campaign[3:]) % 97,             # advertiser
            rng.randrange(1, 40),               # slot
            rng.randrange(500, 250_000),        # cost micros
            1 if rng.random() < click_rate else 0,
        )
        ts += rng.randrange(0, 2 * config.mean_gap_ms + 1)


def generate_requests(config: AdCTRConfig = AdCTRConfig(),
                      requests: int = 2_000,
                      anchor_ts: Optional[int] = None,
                      seed: Optional[int] = None) -> Iterator[Tuple]:
    """Yield bid-request rows, skewed to the same heavy hitters."""
    rng = random.Random(config.seed + 1 if seed is None else seed)
    if anchor_ts is None:
        anchor_ts = config.start_ts + config.events * config.mean_gap_ms
    hot = [_campaign_name(index) for index in range(config.heavy_hitters)]
    cold_ids = range(config.heavy_hitters, config.campaigns)
    for _ in range(requests):
        campaign = rng.choice(hot) if rng.random() < config.hot_fraction \
            else _campaign_name(rng.choice(cold_ids))
        yield (campaign, anchor_ts, int(campaign[3:]) % 97, 0, 0, 0)


def feature_sql() -> str:
    """Budget-pacing + quality features over three horizons.

    The first two output columns pass through ``(campaign, ts)`` — the
    probe-identification contract of
    :func:`repro.streams.verify_stream_skew`.  All aggregates are
    order-insensitive and integer-fed.
    """
    return (
        "SELECT campaign, ts, "
        "  count(cost) OVER w1m AS imps_1m, "
        "  sum(cost) OVER w1m AS spend_1m, "
        "  sum(click) OVER w1m AS clicks_1m, "
        "  count(cost) OVER w10m AS imps_10m, "
        "  sum(cost) OVER w10m AS spend_10m, "
        "  sum(click) OVER w10m AS clicks_10m, "
        "  avg(click) OVER w10m AS ctr_10m, "
        "  max(cost) OVER w1h AS top_bid_1h, "
        "  min(cost) OVER w1h AS floor_bid_1h, "
        "  sum(click) OVER w1h AS clicks_1h "
        f"FROM {TABLE} WINDOW "
        "  w1m AS (PARTITION BY campaign ORDER BY ts "
        "    ROWS_RANGE BETWEEN 1m PRECEDING AND CURRENT ROW), "
        "  w10m AS (PARTITION BY campaign ORDER BY ts "
        "    ROWS_RANGE BETWEEN 10m PRECEDING AND CURRENT ROW), "
        "  w1h AS (PARTITION BY campaign ORDER BY ts "
        "    ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW)")


def cdc_stream(config: AdCTRConfig = AdCTRConfig(),
               cdc: CDCConfig = CDCConfig(seed=5, sources=4,
                                          max_delay_ms=3_000,
                                          duplicate_fraction=0.04)
               ) -> CDCStream:
    """The workload as a replayable CDC stream (see :mod:`repro.streams`)."""
    return CDCStream.from_table(TABLE, generate_impressions(config),
                                ts_position=TS_POSITION, config=cdc)


def probe_rows(campaigns: List[str], boundary_ts: int) -> List[Tuple]:
    """Request rows anchored at a watermark boundary (skew probes)."""
    return [(campaign, boundary_ts, int(campaign[3:]) % 97, 0, 0, 0)
            for campaign in campaigns]
