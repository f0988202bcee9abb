"""RTP item-ranking workload (paper Section 9.1 / Figure 7).

Akulaku's RTP service ranks items per user in real time: a stream of
``(user, ts, item, score)`` events, queried as "the current top-N items
for this user".  Figure 7 compares OpenMLDB (sub-millisecond Top1, ~5 ms
Top8) against Flink (sub-100 ms) and GreenPlum (full recomputation).

:class:`OpenMLDBTopN` is the OpenMLDB-side service: it reuses the
two-level time-series index with the **score** as the ordering dimension, so the
stream stays pre-ranked per key and a Top-N read is a short prefix scan —
"pre-ranks stream data by keys ... thereby minimizing runtime sorting
overhead".
"""

from __future__ import annotations

import dataclasses
import random
from itertools import chain
from typing import Any, Iterator, List, Tuple

from ..schema import TTLSpec
from ..storage.skiplist import TimeSeriesIndex

__all__ = ["RTPConfig", "generate_events", "OpenMLDBTopN"]


@dataclasses.dataclass(frozen=True)
class RTPConfig:
    users: int = 200
    items: int = 500
    events: int = 20_000
    seed: int = 11
    start_ts: int = 1_650_000_000_000


def generate_events(config: RTPConfig = RTPConfig()
                    ) -> Iterator[Tuple[str, int, str, float]]:
    """Yield (user, ts, item, score) ranking events in time order."""
    rng = random.Random(config.seed)
    ts = config.start_ts
    for _ in range(config.events):
        yield (
            f"u{rng.randrange(config.users):05d}",
            ts,
            f"item{rng.randrange(config.items):05d}",
            round(rng.random(), 6),
        )
        ts += rng.randrange(1, 50)


_SCORE_SCALE = 1_000_000  # scores in [0,1] → integer ordering dimension


class OpenMLDBTopN:
    """Score-pre-ranked TopN serving on the two-level index.

    Ingest keeps each user's items ordered by score descending (the
    index's "timestamp" dimension is the scaled score); a Top-N query
    walks the first few entries, deduplicating items, so Top1 is O(1) and
    TopN is O(N + duplicates) — the near-linear scaling of Figure 7.
    """

    name = "openmldb"

    def __init__(self) -> None:
        self._index = TimeSeriesIndex(ttl=TTLSpec())

    def insert(self, key: Any, ts: int, item: Any, score: float) -> None:
        self._index.put(key, int(score * _SCORE_SCALE), (item, score, ts))

    def top_n(self, key: Any, n: int) -> List[Tuple[Any, float]]:
        best: List[Tuple[Any, float]] = []
        seen = set()
        for _rank, payload in chain.from_iterable(
                self._index.scan_blocks(key)):
            item, score, _ts = payload
            if item in seen:
                continue
            seen.add(item)
            best.append((item, score))
            if len(best) >= n:
                break
        return best
