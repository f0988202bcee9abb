"""Offline batch execution engine (paper Section 6)."""

from .engine import OfflineEngine, OfflineStats
from .hyperloglog import HyperLogLog
from .partial import WindowKernel
from .scheduling import lpt_makespan, worker_loads
from .shuffle import ExternalSorter, SpillConfig
from .skew import PartitionTask, SkewConfig, SkewResolver, TaggedRow

__all__ = [
    "OfflineEngine", "OfflineStats", "HyperLogLog", "SkewConfig",
    "SkewResolver", "PartitionTask", "TaggedRow", "lpt_makespan",
    "worker_loads", "WindowKernel", "ExternalSorter", "SpillConfig",
]
