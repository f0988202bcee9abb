"""Table schemas: named, typed, nullable columns plus index definitions.

A :class:`Schema` is an ordered collection of :class:`Column` objects.
Rows are plain tuples positionally aligned with the schema; the schema
provides name→position resolution, value validation, and helpers to merge
schemas (used by window unions and joins).

Index definitions (:class:`IndexDef`) describe the stream-focused access
paths of the paper's Section 7.2: a key column set, a timestamp column to
order by, and a TTL specification governing eviction.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import SchemaError, TypeMismatchError
from .types import ColumnType, coerce_value, int_range, python_type

__all__ = ["Column", "Schema", "IndexDef", "TTLKind", "TTLSpec", "Row"]

# Rows are plain tuples aligned with their schema; the alias documents intent.
Row = Tuple[Any, ...]


@dataclasses.dataclass(frozen=True)
class Column:
    """A single named, typed column.

    Attributes:
        name: column name, unique within a schema (case-sensitive).
        type: the declared :class:`~repro.types.ColumnType`.
        nullable: whether NULL values are accepted on ingest.
    """

    name: str
    type: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.type.sql_name}{null}"


class TTLKind(enum.Enum):
    """Eviction policies from the paper's memory model (Section 8.1).

    ``LATEST`` keeps the most recent N rows per key; ``ABSOLUTE`` keeps rows
    newer than an absolute time horizon; ``ABS_OR_LAT`` evicts once *either*
    bound is exceeded; ``ABS_AND_LAT`` only once *both* are.
    """

    LATEST = "latest"
    ABSOLUTE = "absolute"
    ABS_OR_LAT = "absorlat"
    ABS_AND_LAT = "absandlat"


@dataclasses.dataclass(frozen=True)
class TTLSpec:
    """TTL bounds attached to an index.

    Attributes:
        kind: which eviction policy applies.
        abs_ttl_ms: absolute horizon in milliseconds (0 = unbounded).
        lat_ttl: number of latest rows per key to retain (0 = unbounded).
    """

    kind: TTLKind = TTLKind.ABSOLUTE
    abs_ttl_ms: int = 0
    lat_ttl: int = 0

    def __post_init__(self) -> None:
        if self.abs_ttl_ms < 0 or self.lat_ttl < 0:
            raise SchemaError("TTL bounds must be non-negative")

    @property
    def unbounded(self) -> bool:
        """True when neither TTL bound is set (nothing ever expires)."""
        return self.abs_ttl_ms == 0 and self.lat_ttl == 0


@dataclasses.dataclass(frozen=True)
class IndexDef:
    """A stream-focused index: key columns + timestamp column + TTL.

    This is the access path the online engine uses for ``PARTITION BY key
    ORDER BY ts`` windows and ``LAST JOIN``: rows sharing the key are kept
    ordered by ``ts_column`` descending so the newest match is O(1).
    """

    key_columns: Tuple[str, ...]
    ts_column: str
    ttl: TTLSpec = TTLSpec()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise SchemaError("index requires at least one key column")
        if not self.ts_column:
            raise SchemaError("index requires a timestamp column")
        if self.name is None:
            generated = "idx_{}_{}".format("_".join(self.key_columns),
                                           self.ts_column)
            object.__setattr__(self, "name", generated)

    def matches(self, keys: Sequence[str], ts: Optional[str] = None) -> bool:
        """True if this index serves a lookup on ``keys`` ordered by ``ts``."""
        if tuple(keys) != self.key_columns:
            return False
        return ts is None or ts == self.ts_column


class Schema:
    """An ordered, immutable collection of columns.

    Provides positional access, name resolution, row validation, and
    structural merging for unions/joins.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: Tuple[Column, ...] = tuple(columns)
        if not self._columns:
            raise SchemaError("schema must have at least one column")
        self._positions: Dict[str, int] = {}
        for position, column in enumerate(self._columns):
            if column.name in self._positions:
                raise SchemaError(f"duplicate column name: {column.name!r}")
            self._positions[column.name] = position
        # The check plan validate_row runs per row: for each column, the
        # value types it stores as they are (None if nullable) and, for
        # an integer column, its range.
        self._plan = tuple(
            (frozenset({python_type(column.type)}
                       | ({type(None)} if column.nullable else set())),
             *int_range(column.type))
            for column in self._columns)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[str, str]]) -> "Schema":
        """Build a schema from ``(name, sql_type_name)`` pairs.

        Convenience for tests and examples::

            Schema.from_pairs([("userid", "string"), ("ts", "timestamp")])
        """
        return cls(Column(name, ColumnType.from_sql_name(type_name))
                   for name, type_name in pairs)

    @property
    def columns(self) -> Tuple[Column, ...]:
        """The ordered column definitions."""
        return self._columns

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(column.name for column in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(str(column) for column in self._columns)
        return f"Schema({cols})"

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def position(self, name: str) -> int:
        """Return the position of column ``name``.

        Raises:
            SchemaError: if no such column exists.
        """
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; have {list(self._positions)}"
            ) from None

    def column(self, name: str) -> Column:
        """Return the column definition for ``name``."""
        return self._columns[self.position(name)]

    def validate_row(self, row: Sequence[Any]) -> Row:
        """Validate and coerce a row against this schema.

        Returns the coerced row as a tuple — the caller's own tuple when
        it is a plain tuple that needs no coercion, so every layer a row
        passes through after its first check can store that one object.

        Raises:
            SchemaError: on arity mismatch or NULL in a NOT NULL column.
            TypeMismatchError: if a value has the wrong type.
        """
        if type(row) is tuple and len(row) == len(self._plan):
            for value, (accepted, low, high) in zip(row, self._plan):
                kind = type(value)
                if kind not in accepted:
                    break
                if kind is int:
                    if not low <= value <= high:
                        break
                elif kind is float and value != value:  # NaN
                    break
            else:
                return row
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row arity {len(row)} != schema arity {len(self._columns)}")
        coerced: List[Any] = []
        for value, column in zip(row, self._columns):
            if value is None and not column.nullable:
                raise SchemaError(
                    f"NULL in NOT NULL column {column.name!r}")
            try:
                coerced.append(coerce_value(value, column.type))
            except TypeMismatchError as exc:
                raise TypeMismatchError(
                    f"column {column.name!r}: {exc}") from None
        return tuple(coerced)

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema containing only ``names`` (in given order)."""
        return Schema(self.column(name) for name in names)

    def union_compatible(self, other: "Schema") -> bool:
        """True if ``other`` has the same column types in the same order.

        Window unions (Section 5.2) require positional type compatibility;
        names may differ between the union sources.
        """
        if len(self) != len(other):
            return False
        return all(a.type == b.type
                   for a, b in zip(self._columns, other.columns))
