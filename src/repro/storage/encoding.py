"""Compact in-memory row encoding (paper Section 7.1).

A row is encoded into four regions::

    +--------+--------+---------------------+----------------------+
    | header | bitmap | fixed-width fields  | var-length fields    |
    | 6 B    | ceil/8 | packed, type widths | offsets + raw bytes  |
    +--------+--------+---------------------+----------------------+

* **Header (6 bytes)** — one byte of field version, one byte of schema
  version (the paper notes fewer than 64 versions fit in a byte each) and a
  32-bit total row size.
* **BitMap** — one bit per column marking NULL, allocated in whole bytes.
  NULL variable-length values occupy no data bytes at all.
* **Fixed-width fields** — stored contiguously at their natural widths
  (int 4 B, double 8 B, timestamp 8 B, ...), *not* padded to 8-byte words
  the way Spark's UnsafeRow pads them.
* **Variable-length fields** — only end offsets are stored; a string's
  length is the difference between its offset and the previous one.  The
  offset width adapts to the total row size (1, 2 or 4 bytes), so a small
  row spends a single metadata byte per string.

The paper's worked example is a 65-column row: 255 bytes here against
556 for Spark's UnsafeRow (``tests/test_encoding.py`` models the latter).
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import EncodingError
from ..schema import Row, Schema
from ..types import ColumnType

__all__ = [
    "RowCodec",
    "encoded_size",
    "redis_row_size",
]

HEADER_SIZE = 6
_MAX_VERSION = 63

_FIXED_PACK = {
    ColumnType.BOOL: "<B",
    ColumnType.SMALLINT: "<h",
    ColumnType.INT: "<i",
    ColumnType.BIGINT: "<q",
    ColumnType.FLOAT: "<f",
    ColumnType.DOUBLE: "<d",
    ColumnType.TIMESTAMP: "<Q",
    ColumnType.DATE: "<i",
}

_OFFSET_FORMATS = ((1, "<B"), (2, "<H"), (4, "<I"))


def _bitmap_size(column_count: int) -> int:
    return (column_count + 7) // 8


def _date_to_int(value) -> int:
    return value.year * 10000 + value.month * 100 + value.day


def _bool_to_int(value) -> int:
    return 1 if value else 0


def _int_to_date(value: int):
    import datetime

    return datetime.date(value // 10000, (value % 10000) // 100, value % 100)


class RowCodec:
    """Encoder/decoder for one schema (and one schema version).

    The codec pre-computes the layout once per schema — the Python
    analogue of the paper's "compact offset calculation approach": the
    header, NULL bitmap and fixed-width region are one precompiled
    ``struct.Struct``, so encoding a row is one ``pack`` plus the
    variable-length tail, and a schema without strings has one encoded
    size for every row, known at construction.
    """

    def __init__(self, schema: Schema, schema_version: int = 1,
                 field_version: int = 1) -> None:
        if not 0 <= schema_version <= _MAX_VERSION:
            raise EncodingError(
                f"schema version must be in [0, {_MAX_VERSION}]")
        if not 0 <= field_version <= _MAX_VERSION:
            raise EncodingError(
                f"field version must be in [0, {_MAX_VERSION}]")
        self.schema = schema
        self.schema_version = schema_version
        self.field_version = field_version

        self._fixed_positions: List[int] = []
        self._var_positions: List[int] = []
        offsets: List[int] = []
        running = 0
        for position, column in enumerate(schema.columns):
            if column.type.is_fixed_width:
                self._fixed_positions.append(position)
                offsets.append(running)
                running += column.type.width
            else:
                self._var_positions.append(position)
        self._fixed_region_size = running
        self._fixed_offsets = offsets
        self._bitmap_size = _bitmap_size(len(schema))
        # header + bitmap + fixed region, in one little-endian struct
        # (no alignment padding, so it is byte-for-byte the layout).
        types = [schema.columns[p].type for p in self._fixed_positions]
        self._head = struct.Struct(
            f"<BBI{self._bitmap_size}s"
            + "".join(_FIXED_PACK[t][1] for t in types))
        self._no_nulls = bytes(self._bitmap_size)
        #: (slot, to-int) for the fixed values struct cannot take as is.
        self._converted = [
            (slot, _date_to_int if t is ColumnType.DATE else _bool_to_int)
            for slot, t in enumerate(types)
            if t in (ColumnType.DATE, ColumnType.BOOL)]
        #: every row's encoded size, when the schema has no strings.
        self._fixed_size: Optional[int] = None if self._var_positions \
            else self._head.size

    # ------------------------------------------------------------------
    # encoding

    def _var_payloads(self, row: Sequence[Any]) -> List[bytes]:
        payloads = []
        for position in self._var_positions:
            value = row[position]
            payloads.append(b"" if value is None else value.encode("utf-8"))
        return payloads

    def _pick_offset_format(self, var_bytes: int) -> Tuple[int, str]:
        """Choose the smallest offset width that can address the full row.

        The choice is circular (offsets contribute to the row size), so try
        widths in increasing order until the total fits.
        """
        base = HEADER_SIZE + self._bitmap_size + self._fixed_region_size
        for width, fmt in _OFFSET_FORMATS:
            total = base + width * len(self._var_positions) + var_bytes
            if total <= (1 << (8 * width)) - 1:
                return width, fmt
        raise EncodingError("row too large to encode (exceeds 4 GiB)")

    def encode(self, row: Sequence[Any]) -> bytes:
        """Encode a validated row into its compact byte representation."""
        if len(row) != len(self.schema):
            raise EncodingError(
                f"row arity {len(row)} != schema arity {len(self.schema)}")
        fixed = [row[position] for position in self._fixed_positions]
        for slot, to_int in self._converted:
            if fixed[slot] is not None:
                fixed[slot] = to_int(fixed[slot])
        bitmap = self._no_nulls
        if None in row:
            bits = 0
            for position, value in enumerate(row):
                if value is None:
                    bits |= 1 << position
            bitmap = bits.to_bytes(self._bitmap_size, "little")
            # A NULL's fixed slot stays zeroed; the bitmap is
            # authoritative.
            fixed = [0 if value is None else value for value in fixed]
        tail = b""
        total_size = self._fixed_size
        if total_size is None:
            payloads = self._var_payloads(row)
            var_bytes = sum(map(len, payloads))
            offset_width, offset_fmt = self._pick_offset_format(var_bytes)
            cursor = self._head.size + offset_width * len(payloads)
            total_size = cursor + var_bytes
            ends = []
            for payload in payloads:
                cursor += len(payload)
                ends.append(cursor)
            tail = struct.pack(f"<{len(ends)}{offset_fmt[1]}", *ends) \
                + b"".join(payloads)
        try:
            return self._head.pack(self.field_version, self.schema_version,
                                   total_size, bitmap, *fixed) + tail
        except struct.error:
            raise self._pack_error(fixed) from None

    def _pack_error(self, fixed: List[Any]) -> EncodingError:
        """The error for the first fixed value its format cannot take."""
        for value, position in zip(fixed, self._fixed_positions):
            column_type = self.schema.columns[position].type
            try:
                struct.pack(_FIXED_PACK[column_type], value)
            except struct.error as exc:
                return EncodingError(f"cannot pack {value!r} as "
                                     f"{column_type.sql_name}: {exc}")
        return EncodingError("cannot pack row header")

    # ------------------------------------------------------------------
    # decoding

    def decode(self, data: bytes) -> Row:
        """Decode a compact byte representation back into a row tuple."""
        if len(data) < HEADER_SIZE:
            raise EncodingError("buffer shorter than row header")
        field_version, schema_version, total_size = struct.unpack_from(
            "<BBI", data, 0)
        if schema_version != self.schema_version:
            raise EncodingError(
                f"schema version mismatch: row has {schema_version}, "
                f"codec expects {self.schema_version}")
        if total_size != len(data):
            raise EncodingError(
                f"row size field {total_size} != buffer length {len(data)}")

        bitmap_start = HEADER_SIZE
        fixed_start = bitmap_start + self._bitmap_size

        def is_null(position: int) -> bool:
            return bool(data[bitmap_start + position // 8]
                        & (1 << (position % 8)))

        values: List[Any] = [None] * len(self.schema)
        for slot, position in enumerate(self._fixed_positions):
            if is_null(position):
                continue
            column_type = self.schema.columns[position].type
            (raw,) = struct.unpack_from(
                _FIXED_PACK[column_type], data,
                fixed_start + self._fixed_offsets[slot])
            if column_type is ColumnType.DATE:
                raw = _int_to_date(raw)
            elif column_type is ColumnType.BOOL:
                raw = bool(raw)
            values[position] = raw

        if self._var_positions:
            # Rediscover the offset width from the total size, mirroring
            # the encoder's choice.
            var_payload_guess = None
            offsets_start = fixed_start + self._fixed_region_size
            for width, fmt in _OFFSET_FORMATS:
                if total_size <= (1 << (8 * width)) - 1:
                    var_payload_guess = (width, fmt)
                    break
            if var_payload_guess is None:
                raise EncodingError("corrupt row: unaddressable size")
            offset_width, offset_fmt = var_payload_guess
            data_start = offsets_start + offset_width * len(
                self._var_positions)
            previous = data_start
            for slot, position in enumerate(self._var_positions):
                (end,) = struct.unpack_from(
                    offset_fmt, data, offsets_start + slot * offset_width)
                payload = data[previous:end]
                previous = end
                if not is_null(position):
                    values[position] = payload.decode("utf-8")
        return tuple(values)

    def encoded_size(self, row: Sequence[Any]) -> int:
        """Byte size :meth:`encode` would produce, without materialising it."""
        if self._fixed_size is not None:
            return self._fixed_size
        payloads = self._var_payloads(row)
        var_bytes = sum(len(payload) for payload in payloads)
        offset_width, _ = self._pick_offset_format(var_bytes)
        return (HEADER_SIZE + self._bitmap_size + self._fixed_region_size +
                offset_width * len(payloads) + var_bytes)


def encoded_size(schema: Schema, row: Sequence[Any]) -> int:
    """One-shot compact row size (convenience wrapper over RowCodec)."""
    return RowCodec(schema).encoded_size(row)


# Redis per-entry cost model for the Trino+Redis baseline (Table 2).  A
# stored tuple is a hash entry: a dictEntry (3 pointers), an SDS key with
# header, a robj wrapper and an SDS value per field, plus the global
# hashtable's bucket array amortised per entry.  Constants follow the
# jemalloc size classes commonly cited for Redis 6 on 64-bit builds.
_REDIS_DICT_ENTRY = 24
_REDIS_ROBJ = 16
_REDIS_SDS_HEADER = 9
_REDIS_BUCKET_POINTER = 8


# Table-level Redis model for Table 2.  A stream table maps each
# partition key to a Redis hash whose members are serialised tuples:
#
# * per distinct key: dictEntry + robj + SDS key + bucket slot in the
#   global table + the per-key hash header and jemalloc slack;
# * per tuple: the member's dictEntry + robj + SDS header + allocator
#   rounding, plus the serialised payload (field names travel with the
#   values — a KV store has no schema to strip them against).
#
# The constants reproduce the per-tuple footprint Redis shows on the
# TalkingData-shaped rows of Table 2 (~900 B/tuple at 2 tuples/key,
# ~190 B/tuple once keys amortise).
_REDIS_PER_KEY_BYTES = 700
_REDIS_MEMBER_OVERHEAD = 74


def redis_member_size(schema: Schema, row: Sequence[Any]) -> int:
    """Bytes of one tuple stored as a serialised hash member."""
    payload = 2  # enclosing braces
    for column, value in zip(schema.columns, row):
        payload += len(column.name) + 4  # "name": and separators
        if value is None:
            payload += 4
        elif column.type is ColumnType.STRING:
            payload += len(value.encode("utf-8")) + 2
        elif column.type in (ColumnType.BOOL,):
            payload += 5
        else:
            payload += 12  # numbers as decimal text
    return _REDIS_MEMBER_OVERHEAD + payload


def redis_table_bytes(schema: Schema, rows: Sequence[Sequence[Any]],
                      distinct_keys: int) -> int:
    """Total Redis memory for a table of ``rows`` under ``distinct_keys``."""
    member_bytes = sum(redis_member_size(schema, row) for row in rows)
    return member_bytes + distinct_keys * _REDIS_PER_KEY_BYTES


def redis_row_size(schema: Schema, row: Sequence[Any],
                   key_bytes: int) -> int:
    """Approximate Redis memory for one tuple stored as a hash of fields.

    ``key_bytes`` is the redundant per-tuple copy of the partition key that
    a KV layout cannot avoid (the paper calls out "overhead from repeated
    keys and non-compact data layouts").
    """
    size = (_REDIS_DICT_ENTRY + _REDIS_BUCKET_POINTER + _REDIS_ROBJ +
            _REDIS_SDS_HEADER + key_bytes)
    for column, value in zip(schema.columns, row):
        size += _REDIS_DICT_ENTRY + _REDIS_ROBJ + _REDIS_SDS_HEADER
        size += _REDIS_SDS_HEADER + len(column.name)
        if value is None:
            size += 4  # "nil" sentinel string
        elif column.type is ColumnType.STRING:
            size += len(value.encode("utf-8"))
        else:
            size += 8  # numbers serialised as fixed-width strings
    return size
