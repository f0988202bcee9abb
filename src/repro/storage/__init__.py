"""Compact time-series data management (paper Section 7)."""

from .disk import DiskTable
from .encoding import RowCodec, encoded_size, redis_row_size
from .memtable import MemTable
from .skiplist import TimeSeriesIndex

__all__ = [
    "RowCodec", "encoded_size", "redis_row_size",
    "TimeSeriesIndex", "MemTable", "DiskTable",
]
