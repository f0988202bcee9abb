"""Tests for the two-level skiplist (paper Section 7.2)."""

import threading
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.schema import TTLKind, TTLSpec
from repro.storage import skiplist
from repro.storage.skiplist import (AtomicReference, SealedSpan, SkipList,
                                    TimeSeriesIndex)
from tests.test_fused_fold import _ttls


class TestAtomicReference:
    def test_cas_success_and_failure(self):
        ref = AtomicReference("a")
        assert ref.compare_and_set("a", "b")
        assert ref.get() == "b"
        assert not ref.compare_and_set("a", "c")
        assert ref.get() == "b"

    def test_cas_is_identity_based(self):
        marker = object()
        ref = AtomicReference(marker)
        assert ref.compare_and_set(marker, None)


class TestSkipList:
    def test_insert_and_get(self):
        skiplist = SkipList(seed=1)
        assert skiplist.insert("b", 2)
        assert skiplist.insert("a", 1)
        assert skiplist.get("a") == 1
        assert skiplist.get("b") == 2
        assert skiplist.get("c") is None
        assert skiplist.get("c", "fallback") == "fallback"

    def test_duplicate_insert_rejected(self):
        skiplist = SkipList(seed=1)
        assert skiplist.insert("a", 1)
        assert not skiplist.insert("a", 2)
        assert skiplist.get("a") == 1

    def test_items_in_key_order(self):
        skiplist = SkipList(seed=3)
        for key in (5, 1, 4, 2, 3):
            skiplist.insert(key, key * 10)
        assert [key for key, _ in skiplist.items()] == [1, 2, 3, 4, 5]

    def test_len_tracks_inserts_and_removes(self):
        skiplist = SkipList(seed=0)
        for index in range(50):
            skiplist.insert(index, index)
        assert len(skiplist) == 50
        assert skiplist.remove(25)
        assert not skiplist.remove(25)
        assert len(skiplist) == 49
        assert 25 not in skiplist

    def test_first_at_or_after(self):
        skiplist = SkipList(seed=0)
        for key in (10, 20, 30):
            skiplist.insert(key, str(key))
        assert skiplist.first_at_or_after(15) == (20, "20")
        assert skiplist.first_at_or_after(20) == (20, "20")
        assert skiplist.first_at_or_after(31) is None

    def test_get_or_insert(self):
        skiplist = SkipList(seed=0)
        first = skiplist.get_or_insert("k", list)
        second = skiplist.get_or_insert("k", list)
        assert first is second

    def test_insert_racing_same_key_never_duplicates(self):
        """A twin insert of the same key landing between the duplicate
        check and the level-0 publish must lose the CAS, not be linked
        in front of its twin (rows put under the hidden node vanish)."""
        skiplist = SkipList(seed=0)
        random_height = skiplist._random_height

        def twin_lands_first():
            skiplist._random_height = random_height
            assert skiplist.insert("k", "twin")
            return random_height()
        skiplist._random_height = twin_lands_first
        assert not skiplist.insert("k", "late")
        assert list(skiplist.items()) == [("k", "twin")]
        assert len(skiplist) == 1

    def test_concurrent_inserts_distinct_keys(self):
        skiplist = SkipList(seed=0)
        errors = []

        def worker(base):
            try:
                for index in range(200):
                    skiplist.insert(base * 1000 + index, index)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(skiplist) == 800
        keys = list(skiplist.keys())
        assert keys == sorted(keys)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), unique=True, max_size=80))
    def test_ordering_property(self, keys):
        skiplist = SkipList(seed=7)
        for key in keys:
            skiplist.insert(key, None)
        assert list(skiplist.keys()) == sorted(keys)


class TestTimeSeriesIndex:
    def test_put_and_latest(self):
        index = TimeSeriesIndex(seed=0)
        index.put("u1", 100, "row-a")
        index.put("u1", 300, "row-c")
        index.put("u1", 200, "row-b")
        assert index.latest("u1") == (300, "row-c")
        assert index.latest("missing") is None

    def test_scan_newest_first(self):
        index = TimeSeriesIndex(seed=0)
        for ts in (10, 30, 20, 40):
            index.put("k", ts, ts)
        assert [ts for ts, _ in index.scan("k")] == [40, 30, 20, 10]

    def test_scan_bounds_inclusive(self):
        index = TimeSeriesIndex(seed=0)
        for ts in range(10, 60, 10):
            index.put("k", ts, ts)
        result = [ts for ts, _ in index.scan("k", start_ts=40, end_ts=20)]
        assert result == [40, 30, 20]

    def test_scan_limit(self):
        index = TimeSeriesIndex(seed=0)
        for ts in range(100):
            index.put("k", ts, ts)
        assert len(list(index.scan("k", limit=7))) == 7

    def test_duplicate_timestamps_kept(self):
        index = TimeSeriesIndex(seed=0)
        index.put("k", 5, "first")
        index.put("k", 5, "second")
        rows = [row for _ts, row in index.scan("k")]
        assert sorted(rows) == ["first", "second"]
        assert len(index) == 2

    def test_out_of_order_insert_keeps_order(self):
        index = TimeSeriesIndex(seed=0)
        for ts in (50, 10, 40, 20, 30):
            index.put("k", ts, ts)
        assert [ts for ts, _ in index.scan("k")] == [50, 40, 30, 20, 10]

    def test_scan_all_covers_every_key(self):
        index = TimeSeriesIndex(seed=0)
        index.put("a", 1, "x")
        index.put("b", 2, "y")
        assert sorted(key for key, _ts, _row in index.scan_all()) \
            == ["a", "b"]

    def test_key_count(self):
        index = TimeSeriesIndex(seed=0)
        for key in ("a", "b", "a"):
            index.put(key, 1, None)
        assert index.key_count == 2


class TestTTLEviction:
    def _filled(self, spec):
        index = TimeSeriesIndex(ttl=spec, seed=0)
        for ts in range(10):
            index.put("k", ts * 100, ts)
        return index

    def test_absolute_eviction(self):
        index = self._filled(TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=300))
        removed = index.evict(now_ts=1000)
        # horizon = 700: tuples at ts < 700 go (ts 0..600 → 7 tuples).
        assert removed == 7
        assert [ts for ts, _ in index.scan("k")] == [900, 800, 700]

    def test_latest_eviction(self):
        index = self._filled(TTLSpec(kind=TTLKind.LATEST, lat_ttl=4))
        removed = index.evict(now_ts=1000)
        assert removed == 6
        assert [ts for ts, _ in index.scan("k")] == [900, 800, 700, 600]

    def test_abs_or_lat_takes_stricter(self):
        spec = TTLSpec(kind=TTLKind.ABS_OR_LAT, abs_ttl_ms=300, lat_ttl=8)
        index = self._filled(spec)
        index.evict(now_ts=1000)
        # absolute keeps 3, latest keeps 8 → OR evicts to the stricter 3.
        assert len(list(index.scan("k"))) == 3

    def test_abs_and_lat_takes_looser(self):
        spec = TTLSpec(kind=TTLKind.ABS_AND_LAT, abs_ttl_ms=300, lat_ttl=8)
        index = self._filled(spec)
        index.evict(now_ts=1000)
        # a tuple must violate BOTH bounds: keep max(3, 8) = 8.
        assert len(list(index.scan("k"))) == 8

    def test_unbounded_never_evicts(self):
        index = self._filled(TTLSpec())
        assert index.evict(now_ts=10 ** 12) == 0
        assert len(index) == 10

    def test_whole_list_expiry(self):
        index = self._filled(TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=1))
        removed = index.evict(now_ts=10 ** 9)
        assert removed == 10
        assert list(index.scan("k")) == []

    def test_eviction_only_touches_expired_keys(self):
        index = TimeSeriesIndex(
            ttl=TTLSpec(kind=TTLKind.ABSOLUTE, abs_ttl_ms=100), seed=0)
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
    index = TimeSeriesIndex(seed=0)
    reference = {}
    for key, ts in puts:
        index.put(key, ts, (key, ts))
        reference.setdefault(key, []).append(ts)
    for key, stamps in reference.items():
        got = [ts for ts, _row in index.scan(key)]
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


def _run_model(ops, ttl, block_rows):
    spec = ttl or TTLSpec()
    index = TimeSeriesIndex(ttl=spec, seed=0)
    model = {}  # key → [(ts, row)] newest-first
    serial = 0
    for op in ops:
        if op[0] in ("put", "burst"):
            key = op[1]
            held = model.setdefault(key, [])
            for kind, value in ([op[2:]] if op[0] == "put"
                                else [("next", 10)] * op[2]):
                if kind == "next" or not held:
                    ts = (held[0][0] if held else 0) + value
                elif kind == "late":
                    ts = value % (held[0][0] + 1)
                else:
                    ts = held[value % len(held)][0]
                serial += 1
                row = (key, ts, serial)
                index.put(key, ts, row)
                # Before every pair that is not newer: ties go newest
                # first.
                at = next((i for i, pair in enumerate(held)
                           if pair[0] <= ts), len(held))
                held.insert(at, (ts, row))
        elif op[0] == "scan":
            _, key, start_ts, end_ts, limit = op
            expected = [pair for pair in model.get(key, [])
                        if (start_ts is None or pair[0] <= start_ts)
                        and (end_ts is None or pair[0] >= end_ts)]
            expected = expected[:limit]
            assert list(index.scan(key, start_ts=start_ts, end_ts=end_ts,
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
    assert [(key, ts, row) for key, ts, row in index.scan_all()] == [
        (key, ts, row) for key in sorted(model) for ts, row in model[key]]
    for _key, time_list in index._keys.items():
        # The spans lead the sealed history, and ``_spans`` counts them.
        assert [isinstance(unit, SealedSpan) for unit in time_list._sealed] \
            == [rank < time_list._spans
                for rank in range(len(time_list._sealed))]
