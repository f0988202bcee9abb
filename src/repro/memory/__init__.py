"""Memory management mechanisms (paper Section 8)."""

from .estimator import (EngineChoice, IndexProfile, TableProfile,
                        estimate_table_bytes, recommend_engine)
from .governor import MemoryGovernor

__all__ = [
    "IndexProfile", "TableProfile", "estimate_table_bytes",
    "recommend_engine", "EngineChoice",
    "MemoryGovernor",
]
