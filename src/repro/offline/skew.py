"""Time-aware data skew resolving (paper Section 6.2).

Window computations shuffle rows by partition key; a dominant key turns
one partition into a straggler.  Classic "salting" (random key prefixes)
is off the table for windows — rows of one key would scatter across
partitions and lose their time order.  OpenMLDB instead splits each key's
rows **along the ORDER BY timestamp**:

1. **Determine partition boundaries** — quantiles of the ts column,
   approximated per key with sampled percentiles over counts estimated by
   HyperLogLog (no full sorted scan).
2. **Assign repartitioning identifiers** — every row gets a ``PART_ID``
   (its ts quantile bucket) and ``EXPANDED_ROW=False``.
3. **Augment window data** — each partition (except the first) is
   prepended with the tail of the preceding partitions that its window
   frames still reach; those copies carry ``EXPANDED_ROW=True``.
4. **Redistribute** — tasks are keyed by ``(key, PART_ID)``, multiplying
   parallelism for hot keys.
5. **Compute** — window results are emitted only for
   ``EXPANDED_ROW=False`` rows; expanded rows only provide context.

Step 3 is skipped where the window's plan allows carrying
(``CompiledWindow.carry_eligible``): the engine then seeds each
partition with the previous partition's end state
(:mod:`repro.offline.partial`), which needs no copies at all.

The output is an exact repartitioning: results equal the unpartitioned
computation (tested property), only the task decomposition changes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import PlanError
from .hyperloglog import HyperLogLog

__all__ = ["SkewConfig", "TaggedRow", "SkewResolver", "PartitionTask"]


@dataclasses.dataclass(frozen=True)
class SkewConfig:
    """Knobs for the resolver.

    ``quantile`` is the paper's skew factor: each key's data is split into
    this many time ranges (skew 2 = doubled partition count).
    ``min_partition_rows`` avoids splitting tiny keys.  How partitions
    get their cross-partition context is not a knob: the engine carries
    end states where the window is ``carry_eligible`` and prefixes
    expanded rows elsewhere.
    """

    quantile: int = 2
    min_partition_rows: int = 64

    def __post_init__(self) -> None:
        if self.quantile < 1:
            raise PlanError("skew quantile must be >= 1")


@dataclasses.dataclass
class TaggedRow:
    """A row tagged for repartitioning (step 2)."""

    row: Tuple[Any, ...]
    key: Any
    ts: int
    part_id: int
    expanded: bool = False


@dataclasses.dataclass
class PartitionTask:
    """One ``(key, PART_ID)`` unit of window computation (step 4).

    ``rows`` are time-ordered; expanded rows form a prefix providing the
    preceding context windows need.
    """

    key: Any
    part_id: int
    rows: List[TaggedRow]


class SkewResolver:
    """Builds balanced ``(key, PART_ID)`` tasks from skewed input."""

    def __init__(self, config: SkewConfig = SkewConfig()) -> None:
        self.config = config
        # Sampling decisions of the latest partition_boundaries call
        # (pinned by tests: the HLL estimate drives the stride).
        self.last_sample_stride = 1
        self.last_sample_size = 0

    # ------------------------------------------------------------------

    def partition_boundaries(self, ts_values: Sequence[int]) -> List[int]:
        """Step 1: percentile boundaries of the ts distribution.

        Uses an HLL-estimated cardinality to pick a sampling rate, then
        percentiles of the sample — the paper's "HyperLogLog ... to
        approximate the percentile distribution" without a full scan.
        Returns ``quantile - 1`` interior boundaries.
        """
        quantile = self.config.quantile
        if quantile <= 1 or not ts_values:
            return []
        sketch = HyperLogLog()
        sketch.update(ts_values)
        estimated = max(int(sketch.cardinality()), 1)
        # The estimate chooses the sampling stride: duplicate-heavy ts
        # columns (few distinct values) cannot yield more percentile
        # resolution than ~a few points per distinct value, so sampling
        # past that is dead work.  Distinct-heavy columns keep the flat
        # cap — enough points for stable percentiles, bounded well
        # below a full sort of the raw data.
        sample_target = max(quantile,
                            min(len(ts_values),
                                max(quantile * 256, 1024),
                                estimated * 4))
        step = max(len(ts_values) // sample_target, 1)
        sample = sorted(ts_values[::step])
        self.last_sample_stride = step
        self.last_sample_size = len(sample)
        boundaries = []
        for index in range(1, quantile):
            position = (index * len(sample)) // quantile
            boundaries.append(sample[min(position, len(sample) - 1)])
        return boundaries

    @staticmethod
    def _part_for(ts: int, boundaries: Sequence[int]) -> int:
        """PART_ID i ⇔ ts ∈ (PERCENTILE_i, PERCENTILE_{i+1}]."""
        part = 0
        for boundary in boundaries:
            if ts > boundary:
                part += 1
            else:
                break
        return part

    # ------------------------------------------------------------------

    def key_tasks(self, key: Any,
                  keyed: Sequence[Tuple[int, Tuple[Any, ...]]],
                  range_ms: Optional[int] = None,
                  rows_preceding: Optional[int] = None,
                  augment: bool = True) -> List[PartitionTask]:
        """Steps 1–4 for one key: tag, augment, and redistribute its
        time-ordered ``(ts, row)`` rows.

        The engine's spill-sorted stream arrives grouped by key, so it
        feeds each contiguous group straight in.

        Args:
            range_ms: window time lookback (for augmentation width).
            rows_preceding: window row-count lookback (ditto).
            augment: prepend expanded-row context (step 3).  The
                engine passes ``False`` for a carry-eligible window —
                carried end states replace the copies entirely.

        Returns:
            Tasks in part order; each task's rows time-ordered with
            expanded context first.
        """
        if len(keyed) < self.config.min_partition_rows \
                or self.config.quantile <= 1:
            return [PartitionTask(key=key, part_id=0, rows=[
                TaggedRow(row=row, key=key, ts=ts, part_id=0)
                for ts, row in keyed])]
        boundaries = self.partition_boundaries(
            [ts for ts, _row in keyed])
        partitions: Dict[int, List[TaggedRow]] = {}
        for ts, row in keyed:
            part = self._part_for(ts, boundaries)
            partitions.setdefault(part, []).append(
                TaggedRow(row=row, key=key, ts=ts, part_id=part))
        ordered_parts = sorted(partitions)
        tasks: List[PartitionTask] = []
        for position, part in enumerate(ordered_parts):
            own = partitions[part]
            expanded: List[TaggedRow] = []
            if augment:
                expanded = self._augment(
                    [partitions[p] for p in ordered_parts[:position]],
                    first_own_ts=own[0].ts,
                    range_ms=range_ms, rows_preceding=rows_preceding)
            tasks.append(PartitionTask(
                key=key, part_id=part, rows=expanded + own))
        return tasks

    @staticmethod
    def _augment(preceding_partitions: List[List[TaggedRow]],
                 first_own_ts: int, range_ms: Optional[int],
                 rows_preceding: Optional[int]) -> List[TaggedRow]:
        """Step 3: pull the window-reachable tail of earlier partitions."""
        if not preceding_partitions:
            return []
        flat: List[TaggedRow] = [tagged
                                 for partition in preceding_partitions
                                 for tagged in partition]
        needed: List[TaggedRow] = []
        if range_ms is not None:
            horizon = first_own_ts - range_ms
            needed = [tagged for tagged in flat if tagged.ts >= horizon]
        if rows_preceding is not None:
            count = max(rows_preceding - 1, 0)
            tail = flat[-count:] if count else []
            # Union of both criteria (a frame may bound by rows or time).
            seen = {id(tagged) for tagged in needed}
            needed.extend(tagged for tagged in tail
                          if id(tagged) not in seen)
            needed.sort(key=lambda tagged: tagged.ts)
        if range_ms is None and rows_preceding is None:
            needed = list(flat)  # unbounded frame needs full history
        return [dataclasses.replace(tagged, expanded=True)
                for tagged in needed]
