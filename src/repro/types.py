"""Column types shared by the SQL front end and the storage engines.

The type system follows OpenMLDB's: fixed-width scalar types, a string
type, and a millisecond timestamp.  Each type knows its storage width in
the compact row encoding of the paper's Section 7.1 (``None`` width marks
variable-length types) and how to validate / coerce Python values.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
from typing import Any, Optional, Tuple

from .errors import TypeMismatchError

__all__ = [
    "ColumnType",
    "coerce_value",
    "int_range",
    "python_type",
]


class ColumnType(enum.Enum):
    """Supported column types and their fixed storage widths in bytes."""

    BOOL = ("bool", 1)
    SMALLINT = ("smallint", 2)
    INT = ("int", 4)
    BIGINT = ("bigint", 8)
    FLOAT = ("float", 4)
    DOUBLE = ("double", 8)
    TIMESTAMP = ("timestamp", 8)
    DATE = ("date", 4)
    STRING = ("string", None)

    def __init__(self, sql_name: str, width: Optional[int]) -> None:
        self.sql_name = sql_name
        self.width = width

    @property
    def is_fixed_width(self) -> bool:
        """True for types with a fixed storage width (not strings)."""
        return self.width is not None

    @classmethod
    def from_sql_name(cls, name: str) -> "ColumnType":
        """Look up a type by its SQL spelling (case-insensitive).

        Common aliases (``int32``, ``int64``, ``varchar`` ...) are accepted.
        """
        normalized = name.strip().lower()
        aliases = {
            "int16": cls.SMALLINT,
            "int32": cls.INT,
            "integer": cls.INT,
            "int64": cls.BIGINT,
            "long": cls.BIGINT,
            "real": cls.FLOAT,
            "varchar": cls.STRING,
            "text": cls.STRING,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
        }
        if normalized in aliases:
            return aliases[normalized]
        for member in cls:
            if member.sql_name == normalized:
                return member
        raise TypeMismatchError(f"unknown column type: {name!r}")


_INT_RANGES = {
    ColumnType.SMALLINT: (-(2 ** 15), 2 ** 15 - 1),
    ColumnType.INT: (-(2 ** 31), 2 ** 31 - 1),
    ColumnType.BIGINT: (-(2 ** 63), 2 ** 63 - 1),
    ColumnType.TIMESTAMP: (0, 2 ** 63 - 1),
}


def int_range(column_type: ColumnType
              ) -> Tuple[Optional[int], Optional[int]]:
    """``(low, high)`` an integer column accepts; ``(None, None)`` for
    the other types."""
    return _INT_RANGES.get(column_type, (None, None))


def python_type(column_type: ColumnType) -> type:
    """Return the Python type used to represent values of ``column_type``."""
    if column_type in (ColumnType.SMALLINT, ColumnType.INT, ColumnType.BIGINT,
                       ColumnType.TIMESTAMP):
        return int
    if column_type in (ColumnType.FLOAT, ColumnType.DOUBLE):
        return float
    if column_type is ColumnType.BOOL:
        return bool
    if column_type is ColumnType.DATE:
        return _dt.date
    return str


def coerce_value(value: Any, column_type: ColumnType) -> Any:
    """Validate ``value`` against ``column_type``, coercing where lossless.

    ``None`` passes through (nullability is enforced by the schema, not the
    type).  Ints are accepted for float columns; bools are rejected for
    integer columns to avoid silently storing flags as numbers.

    Raises:
        TypeMismatchError: if the value cannot represent the column type.
    """
    if value is None:
        return None
    if column_type is ColumnType.BOOL:
        if isinstance(value, bool):
            return value
        raise TypeMismatchError(f"expected bool, got {type(value).__name__}")
    if column_type in _INT_RANGES:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(
                f"expected {column_type.sql_name}, got {type(value).__name__}")
        low, high = _INT_RANGES[column_type]
        if not low <= value <= high:
            raise TypeMismatchError(
                f"value {value} out of range for {column_type.sql_name}")
        return value
    if column_type in (ColumnType.FLOAT, ColumnType.DOUBLE):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(
                f"expected {column_type.sql_name}, got {type(value).__name__}")
        result = float(value)
        if math.isnan(result):
            # NaN is representable but rejected on ingest: feature pipelines
            # treat missing values as NULL, never NaN.
            raise TypeMismatchError("NaN is not storable; use NULL instead")
        return result
    if column_type is ColumnType.DATE:
        if isinstance(value, _dt.datetime):
            return value.date()
        if isinstance(value, _dt.date):
            return value
        raise TypeMismatchError(f"expected date, got {type(value).__name__}")
    if column_type is ColumnType.STRING:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"expected string, got {type(value).__name__}")
    raise TypeMismatchError(f"unsupported column type: {column_type}")
