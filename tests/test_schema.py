"""Tests for schemas, columns, indexes, and TTL specs."""

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.schema import Column, IndexDef, Schema, TTLKind, TTLSpec
from repro.types import ColumnType


def concat(schema, other, prefix=""):
    """``schema``'s columns, then ``other``'s with ``prefix`` on each
    name — the joined-row layout a LAST JOIN compiles to."""
    return Schema(list(schema.columns) + [
        Column(f"{prefix}{column.name}", column.type, column.nullable)
        for column in other.columns])


class TestColumn:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT)

    def test_str_rendering(self):
        column = Column("price", ColumnType.DOUBLE, nullable=False)
        assert "price" in str(column)
        assert "NOT NULL" in str(column)


class TestSchema:
    def test_from_pairs(self, events_schema):
        assert events_schema.column_names == ("key", "ts", "value", "label")
        assert events_schema.column("ts").type is ColumnType.TIMESTAMP

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.from_pairs([("a", "int"), ("a", "int")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_position_lookup(self, events_schema):
        assert events_schema.position("value") == 2
        with pytest.raises(SchemaError):
            events_schema.position("missing")

    def test_contains(self, events_schema):
        assert "key" in events_schema
        assert "nope" not in events_schema

    def test_equality_and_hash(self, events_schema):
        clone = Schema.from_pairs([
            ("key", "string"), ("ts", "timestamp"), ("value", "double"),
            ("label", "string"),
        ])
        assert clone == events_schema
        assert hash(clone) == hash(events_schema)

    def test_validate_row_coerces(self, events_schema):
        row = events_schema.validate_row(("k", 100, 5, "x"))
        assert row == ("k", 100, 5.0, "x")
        assert isinstance(row[2], float)

    def test_validate_row_arity(self, events_schema):
        with pytest.raises(SchemaError):
            events_schema.validate_row(("k", 100))

    def test_validate_row_type_error_names_column(self, events_schema):
        with pytest.raises(TypeMismatchError, match="value"):
            events_schema.validate_row(("k", 100, "not-a-number", "x"))

    def test_not_null_enforced(self):
        schema = Schema([Column("a", ColumnType.INT, nullable=False)])
        with pytest.raises(SchemaError):
            schema.validate_row((None,))

    def test_project(self, events_schema):
        projected = events_schema.project(["value", "key"])
        assert projected.column_names == ("value", "key")

    def test_concat_with_prefix(self, events_schema):
        other = Schema.from_pairs([("key", "string")])
        merged = concat(events_schema, other, prefix="r_")
        assert merged.column_names[-1] == "r_key"

    def test_concat_collision_raises(self, events_schema):
        with pytest.raises(SchemaError):
            concat(events_schema, events_schema)

    def test_union_compatibility_by_type_not_name(self, events_schema):
        other = Schema.from_pairs([
            ("k2", "string"), ("time", "timestamp"), ("v2", "double"),
            ("tag", "string"),
        ])
        assert events_schema.union_compatible(other)
        incompatible = Schema.from_pairs([("a", "int")])
        assert not events_schema.union_compatible(incompatible)


class TestIndexDef:
    def test_requires_keys_and_ts(self):
        with pytest.raises(SchemaError):
            IndexDef(key_columns=(), ts_column="ts")
        with pytest.raises(SchemaError):
            IndexDef(key_columns=("k",), ts_column="")

    def test_generated_name(self):
        index = IndexDef(key_columns=("user", "city"), ts_column="ts")
        assert index.name == "idx_user_city_ts"

    def test_matches(self):
        index = IndexDef(key_columns=("user",), ts_column="ts")
        assert index.matches(("user",))
        assert index.matches(("user",), "ts")
        assert not index.matches(("user",), "other_ts")
        assert not index.matches(("city",))


class TestTTLSpec:
    def test_defaults_unbounded(self):
        assert TTLSpec().unbounded

    def test_negative_rejected(self):
        with pytest.raises(SchemaError):
            TTLSpec(abs_ttl_ms=-1)
        with pytest.raises(SchemaError):
            TTLSpec(lat_ttl=-5)

    def test_kinds_cover_paper_table_types(self):
        assert {kind.value for kind in TTLKind} == {
            "latest", "absolute", "absorlat", "absandlat"}
