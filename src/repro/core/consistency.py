"""Online/offline consistency verification.

The paper's central motivation: separately-built online and offline
feature pipelines drift apart (the Varo "account balance" example), and
verifying them can take months.  OpenMLDB's unified plan makes both modes
share one compiled artefact; this module provides the *check* that the
guarantee holds for a given deployment and dataset:

1. Run the deployment **offline** over the stored history.
2. **Replay** the same history against a fresh instance: rows from every
   source table are inserted in (ts, table, sequence) order, and just
   before each primary-table row is inserted, it is issued as an **online
   request** (the row is "virtually inserted" at that instant).
3. Compare the two feature streams row by row.

Caveat (documented, inherent to LAST JOIN): offline LAST JOIN matches the
newest right-table row overall, while a replayed request only sees rows
ingested before it.  Consistency of joined columns therefore requires the
join table's data to precede the request stream — the usual shape for
reference tables like user profiles.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, List, Optional, Tuple

from ..errors import ConsistencyError
from ..schema import Row
from ..storage.memtable import normalize_ts
from ..online.engine import OnlineEngine
from .database import OpenMLDB

__all__ = ["ConsistencyReport", "Mismatch", "verify_consistency"]


@dataclasses.dataclass(frozen=True)
class Mismatch:
    """One diverging feature value."""

    anchor_index: int
    column: str
    offline_value: Any
    online_value: Any


@dataclasses.dataclass
class ConsistencyReport:
    """Outcome of one verification run."""

    rows_compared: int
    mismatches: List[Mismatch]

    @property
    def consistent(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            first = self.mismatches[0]
            raise ConsistencyError(
                f"{len(self.mismatches)} online/offline mismatches; first: "
                f"row {first.anchor_index}, column {first.column!r}: "
                f"offline={first.offline_value!r} "
                f"online={first.online_value!r}")


#: Relative tolerance of a double feature comparison.
REL_TOL = 1e-9


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=1e-9)
    return left == right


def verify_consistency(db: OpenMLDB, deployment_name: str,
                       max_mismatches: int = 100) -> ConsistencyReport:
    """Verify a deployment produces identical online and offline features.

    Args:
        db: the instance holding the data and the deployment.
        deployment_name: which deployment to verify.
        max_mismatches: stop collecting past this many diverging values.

    Returns:
        A report; ``report.consistent`` is the verdict.
    """
    deployment = db._deployment(deployment_name)
    compiled = deployment.compiled
    plan = compiled.plan

    offline_rows, _stats = db.offline_engine.execute(compiled)

    referenced = {plan.table}
    referenced.update(join.plan.right_table for join in compiled.joins)
    for window in compiled.windows.values():
        referenced.update(window.plan.union_tables)

    # Interleave every referenced table's rows in ingest order.
    ts_positions = {
        name: _replay_ts_position(db, compiled, name)
        for name in referenced
    }
    events: List[Tuple[int, Tuple[int, int, int], str, Row]] = []
    union_rank: dict = {plan.table: 0}
    for window in compiled.windows.values():
        for offset, union_table in enumerate(window.plan.union_tables):
            union_rank.setdefault(union_table, 1 + offset)
    for name in referenced:
        position = ts_positions[name]
        for sequence, row in enumerate(db.table(name).rows()):
            ts = normalize_ts(row[position]) if position is not None else 0
            rank = union_rank.get(name, len(union_rank))
            events.append((ts, (rank, sequence, 0), name, row))
    # Primary rows sort before same-ts union rows, matching the offline
    # engine's replay order (_window_events ties: primary first).
    events.sort(key=lambda event: (event[0], event[1]))

    # Requests replay in time order, but results must align with the
    # offline output, which is in the table's insertion order — index
    # online rows by their anchor (log) position.
    online_rows: List[Optional[Row]] = [None] * db.table(
        plan.table).row_count
    # The replay instance: same schemas and indexes, empty tables,
    # closed on every way out.
    replay = OpenMLDB()
    try:
        for name in sorted(referenced):
            source = db.table(name)
            replay.create_table(name, source.schema,
                                indexes=source.indexes)
        engine = OnlineEngine(replay.tables)
        for _ts, tie, name, row in events:
            if name == plan.table:
                anchor_index = tie[1]
                online_rows[anchor_index] = engine.execute_request(
                    compiled, row)  # replay re-derives from raw data
            replay.insert(name, row)
    finally:
        replay.close()

    mismatches: List[Mismatch] = []
    for index, (offline_row, online_row) in enumerate(
            zip(offline_rows, online_rows)):
        for column, left, right in zip(compiled.output_names, offline_row,
                                       online_row):
            if not _values_equal(left, right):
                mismatches.append(Mismatch(
                    anchor_index=index, column=column,
                    offline_value=left, online_value=right))
                if len(mismatches) >= max_mismatches:
                    return ConsistencyReport(
                        rows_compared=index + 1, mismatches=mismatches)
    return ConsistencyReport(rows_compared=len(offline_rows),
                             mismatches=mismatches)


def _replay_ts_position(db: OpenMLDB, compiled, table_name: str
                        ) -> Optional[int]:
    """Pick the timestamp column ordering a table's replay.

    Windows dictate the ts column for the primary/union tables; join
    tables replay on their first index's ts column.
    """
    table = db.table(table_name)
    for window in compiled.windows.values():
        plan = window.plan
        if table_name == compiled.plan.table \
                or table_name in plan.union_tables:
            return table.schema.position(plan.order_column)
    if table.indexes:
        return table.schema.position(table.indexes[0].ts_column)
    return None
