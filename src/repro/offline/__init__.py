"""Offline batch execution engine (paper Section 6)."""

from .engine import OfflineEngine, OfflineStats
from .partial import WindowKernel
from .scheduling import lpt_makespan, worker_loads
from .shuffle import ExternalSorter, SpillConfig
from .skew import SkewConfig, key_slices

__all__ = [
    "OfflineEngine", "OfflineStats", "SkewConfig", "key_slices",
    "lpt_makespan", "worker_loads", "WindowKernel", "ExternalSorter",
    "SpillConfig",
]
