"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math

import pytest

from repro.errors import OpenMLDBError, SchemaError, TypeMismatchError
from repro.schema import Column, IndexDef, Schema
from repro.serving import deadline_scope
from repro.types import ColumnType


def values_close(left, right, rel_tol: float = 1e-9) -> bool:
    """Tuple comparison tolerant of float aggregation order."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=rel_tol, abs_tol=1e-9)
    return left == right


def rows_equal(left_rows, right_rows, rel_tol: float = 1e-9) -> bool:
    if len(left_rows) != len(right_rows):
        return False
    for left, right in zip(left_rows, right_rows):
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if not values_close(a, b, rel_tol):
                return False
    return True


def scanned(blocks):
    """A block scan's ``(ts, row)`` pairs, newest first, in one list."""
    return [pair for block in blocks for pair in block]


class PerRowBatch:
    """Mixin for fake serving backends: ``DeploymentHost.request_batch``'s
    contract over the fake's own ``request``, a row at a time — each row
    under its own deadline, a typed failure as that row's outcome."""

    def request_batch(self, name, rows, deadlines):
        outcomes = []
        for row, deadline in zip(rows, deadlines):
            try:
                with deadline_scope(deadline):
                    outcomes.append(self.request(name, row))
            except OpenMLDBError as exc:
                outcomes.append(exc)
        return outcomes


@pytest.fixture
def events_schema() -> Schema:
    return Schema.from_pairs([
        ("key", "string"), ("ts", "timestamp"), ("value", "double"),
        ("label", "string"),
    ])


@pytest.fixture
def events_index() -> IndexDef:
    return IndexDef(key_columns=("key",), ts_column="ts")


#: A table with a column for every check ``Schema.validate_row`` makes
#: on ingest, a row it accepts as is, and one bad row per check with the
#: typed error a write must raise before anything is stored.
CHECKED_SCHEMA = Schema([
    Column("user", ColumnType.STRING, nullable=False),
    Column("ts", ColumnType.TIMESTAMP), Column("n", ColumnType.BIGINT),
    Column("i", ColumnType.INT), Column("v", ColumnType.DOUBLE)])
CHECKED_INDEX = IndexDef(("user",), "ts")
GOOD_ROW = ("u1", 100, 5, 6, 1.0)
BAD_ROWS = {
    "wrong_arity": (("u1", 100, 5), SchemaError),
    "wrong_type": (("u1", 100, "five", 6, 1.0), TypeMismatchError),
    "bool_in_bigint": (("u1", 100, True, 6, 1.0), TypeMismatchError),
    "int_out_of_range": (("u1", 100, 5, 2 ** 31, 1.0), TypeMismatchError),
    "null_in_not_null": ((None, 100, 5, 6, 1.0), SchemaError),
    "nan_in_double": (("u1", 100, 5, 6, float("nan")), TypeMismatchError),
}


@pytest.fixture
def validations(monkeypatch):
    """Every row handed to ``Schema.validate_row`` while the test runs."""
    seen = []
    original = Schema.validate_row

    def counting(self, row):
        seen.append(row)
        return original(self, row)

    monkeypatch.setattr(Schema, "validate_row", counting)
    return seen
