"""Empirical memory estimation model (paper Section 8.1).

Implements the paper's formula::

    mem_total = Σ_tables  n_replica_i × [
        Σ_indexes  n_pk_ij × (|pk_ij| + 156)
        + n_index_i × n_row_i × C
        + K × n_row_i × |row_i| ]

``C`` is 70 for "latest"/"absorlat" tables and 74 for
"absolute"/"absandlat"; ``K`` (data copies) ranges from 1 to the index
count.  The worked example — a "latest" table with 1 M rows, 300-byte
rows, two 16-byte-key indexes, two replicas, C=70, K=1 — comes out at
about 1.568 GB and is pinned by a unit test.

The estimator also recommends a storage engine per table: in-memory when
the estimate fits the budget and ~10 ms latency is required, disk-based
(≈80 % hardware saving, 20–30 ms) otherwise.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..errors import SchemaError
from ..schema import TTLKind

__all__ = ["IndexProfile", "TableProfile", "estimate_table_bytes",
           "recommend_engine", "EngineChoice"]

_PK_OVERHEAD = 156  # per unique key: skiplist node + entry bookkeeping

_C_BY_KIND = {
    TTLKind.LATEST: 70,
    TTLKind.ABS_OR_LAT: 70,
    TTLKind.ABSOLUTE: 74,
    TTLKind.ABS_AND_LAT: 74,
}


@dataclasses.dataclass(frozen=True)
class IndexProfile:
    """Sizing inputs for one index: unique keys and their average length."""

    unique_keys: int
    avg_key_bytes: float


@dataclasses.dataclass(frozen=True)
class TableProfile:
    """Sizing inputs for one table."""

    rows: int
    avg_row_bytes: float
    indexes: Sequence[IndexProfile]
    replicas: int = 1
    ttl_kind: TTLKind = TTLKind.LATEST
    data_copies: int = 1  # K: 1 .. len(indexes)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.avg_row_bytes < 0:
            raise SchemaError("rows/avg_row_bytes must be non-negative")
        if not self.indexes:
            raise SchemaError("a table profile needs at least one index")
        if self.replicas < 1:
            raise SchemaError("replicas must be >= 1")
        if not 1 <= self.data_copies <= len(self.indexes):
            raise SchemaError(
                "data_copies (K) must be between 1 and the index count")


def estimate_table_bytes(profile: TableProfile) -> float:
    """The paper's per-table estimate, in bytes."""
    c = _C_BY_KIND[profile.ttl_kind]
    index_term = sum(
        index.unique_keys * (index.avg_key_bytes + _PK_OVERHEAD)
        for index in profile.indexes)
    node_term = len(profile.indexes) * profile.rows * c
    data_term = profile.data_copies * profile.rows * profile.avg_row_bytes
    return profile.replicas * (index_term + node_term + data_term)


def measure_memtable_bytes(table) -> int:
    """Measured memory model of a live :class:`MemTable` (Table 2 side).

    Compact row payloads (exact, from the codec) plus the Section 8.1
    structural constants: ``C`` bytes of skiplist node per row per index
    and the per-unique-key entry overhead.
    """
    c = _C_BY_KIND[table.indexes[0].ttl.kind]
    node_bytes = len(table.indexes) * table.row_count * c
    key_bytes = 0
    for index in table.indexes:
        count = table.key_cardinality(index.name)
        key_bytes += count * (_PK_OVERHEAD + 16)  # 16 B average key
    return table.memory_bytes + node_bytes + key_bytes


@dataclasses.dataclass(frozen=True)
class EngineChoice:
    """A storage-engine recommendation with its expected latency band."""

    engine: str                 # "memory" | "disk"
    expected_latency_ms: Tuple[int, int]
    reason: str


def recommend_engine(profile: TableProfile, available_memory_bytes: float,
                     latency_budget_ms: Optional[int] = None
                     ) -> EngineChoice:
    """Section 8.1's engine assignment guidance.

    In-memory when the estimate fits and the latency budget demands it;
    disk-based when memory is short or a 20–30 ms budget allows the
    ~80 % hardware saving.
    """
    estimate = estimate_table_bytes(profile)
    fits = estimate <= available_memory_bytes
    needs_fast = latency_budget_ms is not None and latency_budget_ms < 20
    if fits and (needs_fast or latency_budget_ms is None):
        return EngineChoice(
            engine="memory", expected_latency_ms=(1, 10),
            reason=f"estimate {estimate / 1e9:.3f} GB fits available "
                   f"memory; ultra-low latency achievable")
    if not fits and needs_fast:
        return EngineChoice(
            engine="memory", expected_latency_ms=(1, 10),
            reason=f"estimate {estimate / 1e9:.3f} GB EXCEEDS available "
                   "memory but the latency budget requires the in-memory "
                   "engine: scale out or relax the budget")
    return EngineChoice(
        engine="disk", expected_latency_ms=(20, 30),
        reason=f"estimate {estimate / 1e9:.3f} GB; disk engine saves "
               "~80% hardware cost within a 20-30 ms budget")
