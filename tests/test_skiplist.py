"""Tests for the two-level time-series index (paper Section 7.2)."""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.schema import IndexDef, Schema, TTLKind, TTLSpec
from repro.storage import skiplist
from repro.storage.disk import DiskTable
from repro.storage.skiplist import SealedSpan, TimeSeriesIndex
from tests.conftest import scanned
from tests.test_fused_fold import _ttls


class TestTimeSeriesIndex:
    def test_put_and_latest(self):
        index = TimeSeriesIndex()
        index.put("u1", 100, "row-a")
        index.put("u1", 300, "row-c")
        index.put("u1", 200, "row-b")
        assert index.latest("u1") == (300, "row-c")
        assert index.latest("missing") is None

    def test_scan_newest_first(self):
        index = TimeSeriesIndex()
        for ts in (10, 30, 20, 40):
            index.put("k", ts, ts)
        assert [ts for ts, _ in scanned(index.scan_blocks("k"))] \
            == [40, 30, 20, 10]

    def test_scan_bounds_inclusive(self):
        index = TimeSeriesIndex()
        for ts in range(10, 60, 10):
            index.put("k", ts, ts)
        result = [ts for ts, _ in scanned(
            index.scan_blocks("k", start_ts=40, end_ts=20))]
        assert result == [40, 30, 20]

    def test_scan_limit(self):
        index = TimeSeriesIndex()
        for ts in range(100):
            index.put("k", ts, ts)
        assert len(scanned(index.scan_blocks("k", limit=7))) == 7

    def test_duplicate_timestamps_kept(self):
        index = TimeSeriesIndex()
        index.put("k", 5, "first")
        index.put("k", 5, "second")
        rows = [row for _ts, row in scanned(index.scan_blocks("k"))]
        assert sorted(rows) == ["first", "second"]
        assert len(index) == 2

    def test_out_of_order_insert_keeps_order(self):
        index = TimeSeriesIndex()
        for ts in (50, 10, 40, 20, 30):
            index.put("k", ts, ts)
        assert [ts for ts, _ in scanned(index.scan_blocks("k"))] \
            == [50, 40, 30, 20, 10]

    def test_scan_all_covers_every_key(self):
        index = TimeSeriesIndex()
        index.put("a", 1, "x")
        index.put("b", 2, "y")
        assert sorted(key for key, _ts, _row in index.scan_all()) \
            == ["a", "b"]

    def test_key_count(self):
        index = TimeSeriesIndex()
        for key in ("a", "b", "a"):
            index.put(key, 1, None)
        assert index.key_count == 2


class TestTTLEviction:
    def _filled(self, spec):
        index = TimeSeriesIndex(ttl=spec)
        for ts in range(10):
            index.put("k", ts * 100, ts)
        return index

    def test_absolute_eviction(self):
        index = self._filled(TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=300))
        removed = index.evict(now_ts=1000)
        # horizon = 700: tuples at ts < 700 go (ts 0..600 → 7 tuples).
        assert removed == 7
        assert [ts for ts, _ in scanned(index.scan_blocks("k"))] \
            == [900, 800, 700]

    def test_latest_eviction(self):
        index = self._filled(TTLSpec(kind=TTLKind.LATEST, lat_ttl=4))
        removed = index.evict(now_ts=1000)
        assert removed == 6
        assert [ts for ts, _ in scanned(index.scan_blocks("k"))] \
            == [900, 800, 700, 600]

    def test_abs_or_lat_takes_stricter(self):
        spec = TTLSpec(kind=TTLKind.ABS_OR_LAT, abs_ttl_ms=300, lat_ttl=8)
        index = self._filled(spec)
        index.evict(now_ts=1000)
        # absolute keeps 3, latest keeps 8 → OR evicts to the stricter 3.
        assert len(scanned(index.scan_blocks("k"))) == 3

    def test_abs_and_lat_takes_looser(self):
        spec = TTLSpec(kind=TTLKind.ABS_AND_LAT, abs_ttl_ms=300, lat_ttl=8)
        index = self._filled(spec)
        index.evict(now_ts=1000)
        # a tuple must violate BOTH bounds: keep max(3, 8) = 8.
        assert len(scanned(index.scan_blocks("k"))) == 8

    def test_unbounded_never_evicts(self):
        index = self._filled(TTLSpec())
        assert index.evict(now_ts=10 ** 12) == 0
        assert len(index) == 10

    def test_whole_list_expiry(self):
        index = self._filled(TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=1))
        removed = index.evict(now_ts=10 ** 9)
        assert removed == 10
        assert scanned(index.scan_blocks("k")) == []

    def test_eviction_only_touches_expired_keys(self):
        index = TimeSeriesIndex(
            ttl=TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=100))
        index.put("old", 0, "o")
        index.put("new", 990, "n")
        assert index.evict(now_ts=1000) == 1
        assert index.latest("new") == (990, "n")
        assert index.latest("old") is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10 ** 6)),
                min_size=1, max_size=120))
def test_scan_matches_sorted_reference(puts):
    """Property: a scan equals the sorted reference implementation."""
    index = TimeSeriesIndex()
    reference = {}
    for key, ts in puts:
        index.put(key, ts, (key, ts))
        reference.setdefault(key, []).append(ts)
    for key, stamps in reference.items():
        got = [ts for ts, _row in scanned(index.scan_blocks(key))]
        assert got == sorted(stamps, reverse=True)


# ----------------------------------------------------------------------
# model-based property test: the index against a plain sorted list

_MODEL_KEYS = ("a", "b", "c")
_bound = st.one_of(st.none(), st.integers(0, 3200))
_model_ops = st.lists(st.one_of(
    # kind resolves against the key's state when the op runs: "next" is
    # an in-order arrival, "late" lands below the key's newest ts, "dup"
    # repeats a timestamp the key already holds.
    st.tuples(st.just("put"), st.sampled_from(_MODEL_KEYS),
              st.sampled_from(("next", "late", "dup")),
              st.integers(0, 400)),
    # A run of in-order arrivals ten ms apart: enough rows for spans.
    st.tuples(st.just("burst"), st.sampled_from(_MODEL_KEYS),
              st.integers(1, 40)),
    st.tuples(st.just("scan"), st.sampled_from(_MODEL_KEYS + ("cold",)),
              _bound, _bound, st.one_of(st.none(), st.integers(0, 12))),
    st.tuples(st.just("latest"), st.sampled_from(_MODEL_KEYS + ("cold",))),
    st.tuples(st.just("evict"), st.integers(0, 4000))),
    min_size=1, max_size=80)


def _model_evict(newest_first, spec, now_ts):
    """Survivors of one TTL sweep over a newest-first list of pairs."""
    horizon = now_ts - spec.abs_ttl_ms if spec.abs_ttl_ms else None
    survivors = []
    for rank, pair in enumerate(newest_first):
        expired = horizon is not None and pair[0] < horizon
        beyond = bool(spec.lat_ttl) and rank >= spec.lat_ttl
        if spec.kind is TTLKind.ABSOLUTE:
            evicted = expired
        elif spec.kind is TTLKind.LATEST:
            evicted = beyond
        elif spec.kind is TTLKind.ABS_OR_LAT:
            evicted = expired or beyond
        else:
            evicted = expired and beyond
        if not evicted:
            survivors.append(pair)
    return survivors


@settings(max_examples=150, deadline=None)
@given(ops=_model_ops, ttl=_ttls, block_rows=st.integers(1, 7),
       span_blocks=st.integers(1, 4))
def test_index_matches_sorted_list_model(ops, ttl, block_rows,
                                         span_blocks):
    """Random interleavings of in-order, late and duplicate-timestamp
    puts, bounded scans, ``latest`` and TTL sweeps agree with a plain
    list kept newest-first (ties: later arrival first).  Blocks seal at
    ``block_rows`` tuples and spans form every ``span_blocks`` blocks,
    so a few bursts of puts cross many seals and span edges, late rows
    rebuild and split sealed blocks inside and outside spans, and
    sweeps drop and cut both."""
    with mock.patch.object(skiplist, "BLOCK_ROWS", block_rows), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", span_blocks):
        _run_model(ops, ttl, block_rows)


def _model_ts(held, kind, value):
    """Where a put lands against its key's newest-first pairs: "next"
    after the newest, "late" below it, "dup" on a timestamp held."""
    if kind == "next" or not held:
        return (held[0][0] if held else 0) + value
    if kind == "late":
        return value % (held[0][0] + 1)
    return held[value % len(held)][0]


def _model_insert(held, ts, row):
    """Before every pair that is not newer: ties go newest first."""
    at = next((i for i, pair in enumerate(held) if pair[0] <= ts),
              len(held))
    held.insert(at, (ts, row))


def _model_scan(held, start_ts, end_ts, limit):
    return [pair for pair in held
            if (start_ts is None or pair[0] <= start_ts)
            and (end_ts is None or pair[0] >= end_ts)][:limit]


def _run_model(ops, ttl, block_rows):
    spec = ttl or TTLSpec()
    index = TimeSeriesIndex(ttl=spec)
    model = {}  # key → [(ts, row)] newest-first
    serial = 0
    for op in ops:
        if op[0] in ("put", "burst"):
            key = op[1]
            held = model.setdefault(key, [])
            for kind, value in ([op[2:]] if op[0] == "put"
                                else [("next", 10)] * op[2]):
                ts = _model_ts(held, kind, value)
                serial += 1
                row = (key, ts, serial)
                index.put(key, ts, row)
                _model_insert(held, ts, row)
        elif op[0] == "scan":
            _, key, start_ts, end_ts, limit = op
            expected = _model_scan(model.get(key, []), start_ts, end_ts,
                                   limit)
            assert scanned(index.scan_blocks(
                key, start_ts=start_ts, end_ts=end_ts,
                limit=limit)) == expected
            blocks = list(index.scan_blocks(
                key, start_ts=start_ts, end_ts=end_ts, limit=limit))
            # A sealed block grows by late rows until it splits in two;
            # a span goes out only whole, holding such blocks.
            inner = [part for block in blocks
                     for part in reversed(getattr(block, "blocks", (block,)))]
            assert all(1 <= len(part) <= 2 * block_rows for part in inner)
            assert [pair for block in blocks for pair in block] == expected
            assert [pair for part in inner for pair in part] == expected
        elif op[0] == "latest":
            held = model.get(op[1])
            assert index.latest(op[1]) == (held[0] if held else None)
        else:
            before = sum(len(held) for held in model.values())
            for key, held in model.items():
                model[key] = _model_evict(held, spec, op[1])
            after = sum(len(held) for held in model.values())
            assert index.evict(op[1]) == before - after
        assert len(index) == sum(len(held) for held in model.values())
    swept = {}
    for key, ts, row in index.scan_all():
        swept.setdefault(key, []).append((ts, row))
    assert swept == {key: held for key, held in model.items() if held}
    for _key, time_list in index._keys.items():
        # The spans lead the sealed history, and ``_spans`` counts them.
        assert [isinstance(unit, SealedSpan) for unit in time_list._sealed] \
            == [rank < time_list._spans
                for rank in range(len(time_list._sealed))]


# ----------------------------------------------------------------------
# packed sealed columns: every value comes back as it was put, equal in
# value and in type

def test_sealed_blocks_pack_each_column():
    """600 rows of small ints seal two blocks; in each, an int column is
    a 1-byte array, the timestamp column is the block's own stamps and a
    double column is an ``array('d')``."""
    index = TimeSeriesIndex(width=5)
    for ts in range(1_000, 1_600):
        index.put(7, ts, (7, ts, ts % 10, -(ts % 100), ts / 4))
    sealed = [block for block in index.scan_blocks(7) if block.sealed]
    assert len(sealed) == 2
    for block in sealed:
        key, stamps, small, negative, double = block._columns
        assert stamps is block._ts
        assert [column.typecode for column in (key, small, negative)] \
            == ["b"] * 3
        assert double.typecode == "d"
        assert block.rows() == [(7, ts, ts % 10, -(ts % 100), ts / 4)
                                for ts in block._ts]


def test_only_a_column_equal_to_the_stamps_is_the_stamps():
    """A column one value off the block's timestamps keeps its own
    values."""
    index = TimeSeriesIndex(width=2)
    for ts in range(1_000, 1_300):
        index.put("k", ts, (ts, ts + (ts == 1_100)))
    block = index.scan_blocks("k")[-1]
    assert block.sealed and block._columns[0] is block._ts
    assert block.column(1) == [ts + (ts == 1_100) for ts in block._ts]


def test_a_list_row_reads_back_as_a_tuple():
    """A width-set index keeps a list row as a tuple, made once at put:
    every read — in the tail, sealed, and the newest — gives tuples."""
    index = TimeSeriesIndex(width=3)
    for ts in range(1, 301):
        index.put("k", ts, ["k", ts, ts / 2])
    assert index.latest("k") == (300, ("k", 300, 150.0))
    assert type(index.latest("k")[1]) is tuple
    blocks = index.scan_blocks("k")
    assert [block.sealed for block in blocks] == [False, True]
    for block in blocks:
        assert {type(row) for row in block.rows()} == {tuple}
        assert block.column(1) == list(block._ts)
    assert {type(row) for _ts, row in scanned(index.scan_blocks("k"))} \
        == {tuple}
    assert scanned(index.scan_blocks("k", limit=1)) \
        == [(300, ("k", 300, 150.0))]


_INT_EDGES = tuple(value for bits in (7, 15, 31, 63)
                   for value in (-(1 << bits) - 1, -(1 << bits),
                                 (1 << bits) - 1, 1 << bits))
_POOLS = {
    "int": _INT_EDGES,  # every typecode edge, and ±1 past 64 bits
    "int64": tuple(value for value in _INT_EDGES
                   if -(1 << 63) <= value < 1 << 63),
    "small": (0, 1, -1, 9),
    "bool": (True, False),
    "null": (3, -200, None, 3),
    "float": (-0.0, 0.0, 0.1, math.inf, -math.inf, math.nan),
    "finite": (-0.0, 0.0, 0.1, math.inf, -math.inf, 1e300),
    "str": ("", "a", "é"),
    "mixed": (1, 1.0, -0.0, 0),
}
#: A column draws from a pool, or is the row's stamp, or one past it,
#: or the stamp on some rows and one before it on others.
_KINDS = tuple(_POOLS) + ("ts", "shifted", "near")


def _value(kind, ts, seed):
    if kind == "ts":
        return ts
    if kind == "shifted":
        return ts + 1
    if kind == "near":
        return ts - 1 if ts % 3 == 1 else ts
    pool = _POOLS[kind]
    return pool[seed % len(pool)]


_TYPED_KEYS = (0, 1, 2)
_typed_ops = st.lists(st.one_of(
    # As in _model_ops, plus a seed that picks each column's value.
    st.tuples(st.just("put"), st.sampled_from(_TYPED_KEYS),
              st.sampled_from(("next", "late", "dup")),
              st.integers(0, 400), st.integers(0, 10 ** 6)),
    # In-order arrivals, each value repeated by four rows in a row.
    st.tuples(st.just("burst"), st.sampled_from(_TYPED_KEYS),
              st.integers(1, 40), st.integers(0, 10 ** 6)),
    st.tuples(st.just("scan"), st.sampled_from(_TYPED_KEYS + (9,)),
              _bound, _bound, st.one_of(st.none(), st.integers(0, 12))),
    st.tuples(st.just("evict"), st.integers(0, 4000))),
    min_size=1, max_size=60)


def _same(got, expected):
    """Equal in value and type, NaN included."""
    assert repr(got) == repr(expected)


def _run_typed(store, ops, spec):
    """Drive ``store`` (an adapter over an index or a disk table) and a
    newest-first list model through ``ops``; every read must be
    ``repr``-equal to the model's."""
    model = {}
    for op in ops:
        if op[0] in ("put", "burst"):
            key = op[1]
            held = model.setdefault(key, [])
            puts = [op[2:]] if op[0] == "put" else \
                [("next", 10, op[3] + count // 4) for count in range(op[2])]
            for kind, value, seed in puts:
                ts = _model_ts(held, kind, value)
                _model_insert(held, ts, store.put(key, ts, seed))
        elif op[0] == "scan":
            _, key, start_ts, end_ts, limit = op
            expected = _model_scan(model.get(key, []), start_ts, end_ts,
                                   limit)
            _same(list(store.scan(key, start_ts, end_ts, limit)), expected)
            blocks = store.blocks(key, start_ts, end_ts, limit)
            _same([pair for block in blocks for pair in block], expected)
            oldest_first = blocks[::-1]
            rows = [row for _ts, row in reversed(expected)]
            _same([row for block in oldest_first for row in block.rows()],
                  rows)
            for position in range(store.width or 1):
                _same([value for block in oldest_first
                       for value in block.column(position)],
                      [row[position] if store.width else row
                       for row in rows])
            held = model.get(key)
            _same(store.latest(key), held[0] if held else None)
        else:
            for key, held in model.items():
                model[key] = _model_evict(held, spec, op[1])
            store.evict(op[1])
    for key, held in model.items():
        _same(list(store.scan(key, None, None, None)), held)


class _IndexStore:
    """A :class:`TimeSeriesIndex` whose rows are ``kinds`` columns (one
    opaque payload of ``kinds[0]`` when ``opaque``)."""

    def __init__(self, spec, kinds, opaque):
        self.width = None if opaque else len(kinds)
        self.kinds = kinds
        self.index = TimeSeriesIndex(spec, self.width)

    def put(self, key, ts, seed):
        values = tuple(_value(kind, ts, seed >> 3 * position)
                       for position, kind in enumerate(self.kinds))
        row = values if self.width else values[0]
        self.index.put(key, ts, row)
        return row

    def scan(self, key, start_ts, end_ts, limit):
        return scanned(self.index.scan_blocks(key, start_ts, end_ts, limit))

    def blocks(self, key, start_ts, end_ts, limit):
        return self.index.scan_blocks(key, start_ts, end_ts, limit)

    def latest(self, key):
        return self.index.latest(key)

    def evict(self, now_ts):
        self.index.evict(now_ts)


@settings(max_examples=150, deadline=None)
@given(ops=_typed_ops, ttl=_ttls, block_rows=st.integers(1, 7),
       span_blocks=st.integers(1, 4),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4),
       opaque=st.booleans())
def test_index_reads_back_exact_types(ops, ttl, block_rows, span_blocks,
                                      kinds, opaque):
    """Sealing, late rows into sealed blocks and spans, and TTL cuts
    under every kind give every value back as put: ints on each side
    of every typecode edge and past 64 bits, bools, NULLs, -0.0, ±inf
    and NaN, strings, mixed ints and floats, a timestamp column and
    ones that differ from the stamps, and opaque payloads."""
    with mock.patch.object(skiplist, "BLOCK_ROWS", block_rows), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", span_blocks):
        _run_typed(_IndexStore(ttl or TTLSpec(), kinds, opaque), ops,
                   ttl or TTLSpec())


#: The disk table's typed columns after ``k`` and ``ts``: name, SQL type
#: and the pool its values come from.
_DISK_COLUMNS = (("i", "bigint", "int64"), ("n", "int", "null"),
                 ("b", "bool", "bool"), ("f", "double", "finite"),
                 ("s", "string", "str"))


class _DiskStore:
    """A :class:`DiskTable` keyed on ``k``, whose eviction is a flush
    followed by a compaction."""

    width = 2 + len(_DISK_COLUMNS)
    _scanned = (("k",), "ts")

    def __init__(self, spec, threshold):
        schema = Schema.from_pairs(
            [("k", "bigint"), ("ts", "timestamp")]
            + [(name, sql_type) for name, sql_type, _pool in _DISK_COLUMNS])
        self.table = DiskTable("d", schema,
                               [IndexDef(("k",), "ts", ttl=spec)],
                               flush_threshold=threshold)

    def put(self, key, ts, seed):
        row = (key, ts) + tuple(
            _value(pool, ts, seed >> 3 * position)
            for position, (_name, _type, pool) in enumerate(_DISK_COLUMNS))
        self.table.insert(row)
        return row

    def scan(self, key, start_ts, end_ts, limit):
        return scanned(self.table.window_scan_blocks(
            *self._scanned, key, start_ts=start_ts, end_ts=end_ts,
            limit=limit))

    def blocks(self, key, start_ts, end_ts, limit):
        return self.table.window_scan_blocks(
            *self._scanned, key, start_ts=start_ts, end_ts=end_ts,
            limit=limit)

    def latest(self, key):
        return self.table.last_join_lookup(("k",), key)

    def evict(self, now_ts):
        self.table.flush()
        self.table.compact(now_ts)


@settings(max_examples=100, deadline=None)
@given(ops=_typed_ops, ttl=_ttls, block_rows=st.integers(1, 5),
       span_blocks=st.integers(1, 3), threshold=st.integers(1, 12))
def test_disk_table_reads_back_exact_types(ops, ttl, block_rows,
                                           span_blocks, threshold):
    """The same through a disk table: runs of packed blocks, reads that
    merge the memtable with them, and ``flush()`` then ``compact(now)``
    rebuilding them."""
    with mock.patch.object(skiplist, "BLOCK_ROWS", block_rows), \
            mock.patch.object(skiplist, "SPAN_BLOCKS", span_blocks):
        _run_typed(_DiskStore(ttl or TTLSpec(), threshold), ops,
                   ttl or TTLSpec())
