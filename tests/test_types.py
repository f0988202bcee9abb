"""Tests for the column type system."""

import datetime

import pytest
from hypothesis import given, strategies as st

from repro.errors import TypeMismatchError
from repro.types import ColumnType, coerce_value, python_type


class TestFromSqlName:
    def test_canonical_names(self):
        assert ColumnType.from_sql_name("int") is ColumnType.INT
        assert ColumnType.from_sql_name("bigint") is ColumnType.BIGINT
        assert ColumnType.from_sql_name("double") is ColumnType.DOUBLE
        assert ColumnType.from_sql_name("string") is ColumnType.STRING
        assert ColumnType.from_sql_name("timestamp") is ColumnType.TIMESTAMP

    def test_aliases(self):
        assert ColumnType.from_sql_name("int64") is ColumnType.BIGINT
        assert ColumnType.from_sql_name("varchar") is ColumnType.STRING
        assert ColumnType.from_sql_name("boolean") is ColumnType.BOOL
        assert ColumnType.from_sql_name("integer") is ColumnType.INT

    def test_case_insensitive(self):
        assert ColumnType.from_sql_name("BIGINT") is ColumnType.BIGINT
        assert ColumnType.from_sql_name("  Double ") is ColumnType.DOUBLE

    def test_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.from_sql_name("decimal128")


class TestWidths:
    def test_fixed_widths(self):
        assert ColumnType.INT.width == 4
        assert ColumnType.BIGINT.width == 8
        assert ColumnType.FLOAT.width == 4
        assert ColumnType.DOUBLE.width == 8
        assert ColumnType.TIMESTAMP.width == 8
        assert ColumnType.BOOL.width == 1
        assert ColumnType.SMALLINT.width == 2

    def test_string_is_variable(self):
        assert ColumnType.STRING.width is None
        assert not ColumnType.STRING.is_fixed_width
        assert ColumnType.INT.is_fixed_width


class TestCoerce:
    def test_none_passes_through(self):
        for column_type in ColumnType:
            assert coerce_value(None, column_type) is None

    def test_int_range_enforced(self):
        assert coerce_value(2 ** 31 - 1, ColumnType.INT) == 2 ** 31 - 1
        with pytest.raises(TypeMismatchError):
            coerce_value(2 ** 31, ColumnType.INT)
        with pytest.raises(TypeMismatchError):
            coerce_value(-(2 ** 15) - 1, ColumnType.SMALLINT)

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, ColumnType.INT)

    def test_int_accepted_for_double(self):
        assert coerce_value(3, ColumnType.DOUBLE) == 3.0
        assert isinstance(coerce_value(3, ColumnType.DOUBLE), float)

    def test_nan_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(float("nan"), ColumnType.DOUBLE)

    def test_string_type_checked(self):
        assert coerce_value("abc", ColumnType.STRING) == "abc"
        with pytest.raises(TypeMismatchError):
            coerce_value(5, ColumnType.STRING)

    def test_timestamp_must_be_non_negative(self):
        assert coerce_value(0, ColumnType.TIMESTAMP) == 0
        with pytest.raises(TypeMismatchError):
            coerce_value(-1, ColumnType.TIMESTAMP)

    def test_datetime_coerced_to_date(self):
        moment = datetime.datetime(2024, 5, 17, 12, 30)
        assert coerce_value(moment, ColumnType.DATE) == datetime.date(
            2024, 5, 17)

    def test_bool_strict(self):
        assert coerce_value(True, ColumnType.BOOL) is True
        with pytest.raises(TypeMismatchError):
            coerce_value(1, ColumnType.BOOL)


class TestHelpers:
    def test_python_type(self):
        assert python_type(ColumnType.BIGINT) is int
        assert python_type(ColumnType.DOUBLE) is float
        assert python_type(ColumnType.STRING) is str
        assert python_type(ColumnType.BOOL) is bool


@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_bigint_roundtrip_property(value):
    assert coerce_value(value, ColumnType.BIGINT) == value


@given(st.floats(allow_nan=False, allow_infinity=True))
def test_double_accepts_all_non_nan_floats(value):
    assert coerce_value(value, ColumnType.DOUBLE) == value
