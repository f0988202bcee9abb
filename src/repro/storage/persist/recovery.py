"""Recovery accounting: what a crash-restart cost and what it rebuilt.

Recovery time is a first-class axis of the system (the follow-up
performance study of OpenMLDB treats it alongside throughput and
latency), so every restart produces a :class:`RecoveryReport` the tests
and the bench harness can assert on and record: how much state came
from the snapshot, how much from binlog-tail replay, and how long the
whole round trip took.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

__all__ = ["RecoveryReport"]


@dataclasses.dataclass
class RecoveryReport:
    """Outcome of one crash-restart recovery."""

    #: the recovered node ("tablet-1") or database ("db").
    node: str
    #: rows restored from snapshot images.
    snapshot_rows: int = 0
    #: binlog entries replayed past the snapshots.
    replayed_entries: int = 0
    #: wall-clock duration of the restart, in seconds.
    seconds: float = 0.0
    #: per-shard/table applied offset after recovery.
    applied_offsets: Dict[Tuple[str, int], int] = \
        dataclasses.field(default_factory=dict)

    def describe(self) -> str:
        return (f"{self.node}: recovered {self.snapshot_rows} snapshot "
                f"row(s) + {self.replayed_entries} replayed binlog "
                f"entr(ies) in {self.seconds * 1_000:.1f} ms")
