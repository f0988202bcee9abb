"""Online real-time execution engine (paper Section 5)."""

from .binlog import Replicator
from .engine import EngineStats, OnlineEngine
from .incremental import SlidingWindowAggregator
from .window_union import (DynamicScheduler, StaticScheduler, UnionStats,
                           WindowUnionProcessor)

__all__ = [
    "OnlineEngine", "EngineStats", "Replicator",
    "SlidingWindowAggregator", "WindowUnionProcessor", "StaticScheduler",
    "DynamicScheduler", "UnionStats",
]
