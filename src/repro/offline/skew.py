"""Time-aware data skew resolving (paper Section 6.2).

Window computations shuffle rows by partition key; a dominant key turns
one partition into a straggler.  Classic "salting" (random key prefixes)
is off the table for windows — rows of one key would scatter across
partitions and lose their time order.  OpenMLDB instead splits each key's
rows **along the ORDER BY timestamp**.

The engine's shuffle hands every key's rows over already sorted by ts
(:meth:`~repro.offline.engine.OfflineEngine._key_groups`), so a task is
a slice of that sorted list and :func:`key_slices` computes only
indices:

1. **Partition boundaries** — exact ts quantiles of the key.  PART_ID
   ``i`` holds the rows with ts in ``(b_i, b_(i+1)]``, so rows with
   equal ts never straddle a cut.  (The paper estimates the quantiles
   with HyperLogLog to avoid a sorted scan *before* its shuffle; after
   the shuffle the exact cut is one bisection per boundary.)
2. **Augment window data** — each partition except the first starts
   earlier, at the oldest row its window frames still reach; those
   context rows only feed the window and emit nothing (the paper's
   ``EXPANDED_ROW=True``).
3. **Redistribute** — each slice is one ``(key, PART_ID)`` task,
   multiplying parallelism for hot keys.

Step 2 is skipped where the window's plan allows carrying
(``CompiledWindow.carry_eligible``): the engine then seeds each
partition with the previous partition's end state
(:mod:`repro.offline.partial`), which needs no context rows at all.

The output is an exact repartitioning: results equal the unpartitioned
computation (tested property), only the task decomposition changes.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from ..errors import PlanError

__all__ = ["SkewConfig", "key_slices"]


@dataclasses.dataclass(frozen=True)
class SkewConfig:
    """Knobs for the resolver.

    ``quantile`` is the paper's skew factor: each key's data is split into
    this many time ranges (skew 2 = doubled partition count).
    ``min_partition_rows`` avoids splitting tiny keys.  How partitions
    get their cross-partition context is not a knob: the engine carries
    end states where the window is ``carry_eligible`` and prefixes
    context rows elsewhere.
    """

    quantile: int = 2
    min_partition_rows: int = 64

    def __post_init__(self) -> None:
        if self.quantile < 1:
            raise PlanError("skew quantile must be >= 1")


def key_slices(stamps: Sequence[int], config: SkewConfig,
               range_ms: Optional[int] = None,
               rows_preceding: Optional[int] = None,
               context: bool = True) -> List[Tuple[int, int, int]]:
    """Split one key's time-sorted ``stamps`` into ``(key, PART_ID)``
    tasks, one ``(start, own, end)`` index triple per task in part
    order.

    ``stamps[own:end]`` are the task's own rows; they tile the key in
    order.  ``stamps[start:own]`` are its context rows: as far back as
    the frame's ``range_ms`` or ``rows_preceding - 1`` reach (the
    wider of the two when both are set, the whole history when
    neither is).  ``context=False`` (a carried window) gives none.
    """
    count = len(stamps)
    quantile = config.quantile
    if count < config.min_partition_rows or quantile <= 1:
        return [(0, 0, count)]
    cuts = [0]
    for part in range(1, quantile):
        cut = bisect_right(stamps, stamps[part * count // quantile])
        if cuts[-1] < cut < count:
            cuts.append(cut)
    cuts.append(count)
    slices = []
    for own, end in zip(cuts, cuts[1:]):
        start = own
        if context and own:
            if range_ms is None and rows_preceding is None:
                start = 0
            if range_ms is not None:
                start = bisect_left(stamps, stamps[own] - range_ms, 0, own)
            if rows_preceding is not None:
                start = min(start, max(own - rows_preceding + 1, 0))
        slices.append((start, own, end))
    return slices
