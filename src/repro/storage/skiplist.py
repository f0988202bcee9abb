"""Two-level time-series index (paper Section 7.2).

The first level maps each **key** (e.g. user id) to a second level
holding all tuples for that key *pre-ranked by timestamp*.  The paper's
first level is a lock-free skiplist; no query here reads keys in key
order, so it is a ``dict``.  The second level is stored as columns
(:class:`_TimeList`): sealed immutable :class:`ColumnBlock` s of
``BLOCK_ROWS`` tuples, grouped ``SPAN_BLOCKS`` at a time into
:class:`SealedSpan` s, then a hot tail of one ``array('q')`` of ascending
timestamps plus the rows' values in one flat row-major list, rather than
the paper's linked nodes — it keeps every property Section 7.2 relies on
and drops the per-tuple node, pointer cells and pointer hops:

* ``LAST JOIN`` — the most recent tuple for a key is the end of the
  tail, O(1) once the key's time list is found.
* ``PARTITION BY key ORDER BY ts ROWS BETWEEN ... PRECEDING`` — a window
  is the run between two integer bisects (O(log n) seek), handed out as
  newest-first :class:`ColumnBlock` s whose *columns* are strided C-level
  slices, which is what the window fold reduces.  Spans and sealed
  blocks the run covers whole go out by reference, with their memoized
  reductions: the two summary levels are Section 5.1's multi-level
  pre-aggregation, kept by storage itself, so a long window folds a few
  dozen summaries and two edges however many rows it holds.
* In-order arrival (the stream case) is an O(1) ``append`` + ``extend``;
  a late tuple is a bisect plus one slice assignment, or a rebuilt copy
  of the sealed block it lands in (and of the span holding that block).
* Out-of-date data removal (TTL): expired tuples are a prefix of the
  key's history, so eviction drops whole blocks and cuts at most one.

Concurrency: the key level is a ``dict``, whose ``get`` and
``setdefault`` are atomic, so a racing first put of a key keeps one time
list and readers never lock.  The per-key lock guards the second level
for one bisect + slice or one mutation, so readers and writers of
different keys never wait on each other.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from ..errors import StorageError
from ..schema import TTLKind, TTLSpec

__all__ = ["BLOCK_ROWS", "ColumnBlock", "SealedBlock", "SealedSpan",
           "SPAN_BLOCKS", "TimeSeriesIndex"]

#: Tuples per sealed block: once a key's hot tail holds more, its oldest
#: ``BLOCK_ROWS`` are sealed.
BLOCK_ROWS = 256

#: Sealed blocks per span: once a key holds this many blocks outside a
#: span, they become one :class:`SealedSpan` (4,096 rows by default).
SPAN_BLOCKS = 16


class ColumnBlock:
    """A run of one key's tuples, held column-sliceable.

    What every ``window_scan_blocks`` hands out: a private copy (sliced
    under the per-key lock, or built from rows by a caller) or a shared
    :class:`SealedBlock`, so nothing a reader does can race a writer;
    every accessor returns a fresh list.  Inside, it keeps the storage
    layout — timestamps ascending in an ``array('q')`` and the rows'
    values in one flat row-major list — so :meth:`column` is a single
    strided C-level slice, oldest → newest, which is the order float sums
    and ``Counter`` insertion must run in.

    Row-walking consumers see the same thing as before: ``len()`` is the
    row count and iteration yields ``(ts, row)`` pairs **newest-first**.
    ``width`` None marks opaque payloads (one cell per tuple, no
    columns).
    """

    __slots__ = ("_ts", "_cells", "_width")
    sealed = False

    def __init__(self, ts: "array[int]", cells: List[Any],
                 width: Optional[int]) -> None:
        self._ts = ts
        self._cells = cells
        self._width = width

    @classmethod
    def of_row(cls, ts: int, row: Sequence[Any]) -> "ColumnBlock":
        """A block holding one row (a request tuple heading its window)."""
        return cls(array("q", (ts,)), list(row), len(row))

    @classmethod
    def from_pairs(cls, pairs_newest_first: Sequence[Tuple[int, Any]],
                   width: int) -> "ColumnBlock":
        """Build a block from newest-first ``(ts, row)`` pairs whose rows
        all have ``width`` values (merged reads)."""
        oldest_first = pairs_newest_first[::-1]
        return cls(array("q", [ts for ts, _row in oldest_first]),
                   list(chain.from_iterable(
                       [row for _ts, row in oldest_first])), width)

    @classmethod
    def merged(cls, scans: Iterable[Iterable["ColumnBlock"]], width: int,
               limit: Optional[int] = None) -> "ColumnBlock":
        """One block out of several sources' newest-first scans, merged
        newest-first and capped to the ``limit`` newest tuples.

        The scans are runs already in order, so a stable sort of their
        concatenation is the k-way merge, done by the C-level timsort:
        equal timestamps keep source order (the first source leads) and,
        within a source, arrival order.
        """
        pairs = [pair for blocks in scans for block in blocks
                 for pair in block]
        pairs.sort(key=itemgetter(0), reverse=True)
        return cls.from_pairs(pairs[:limit], width)

    def __len__(self) -> int:
        return len(self._ts)

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        return zip(reversed(self._ts), reversed(self.rows()))

    def rows(self) -> List[Any]:
        """The rows as tuples, oldest → newest (the zipped row view)."""
        if self._width is None:
            return list(self._cells)
        return list(zip(*[iter(self._cells)] * self._width))

    def column(self, position: int) -> List[Any]:
        """One column's values, oldest → newest: a strided slice."""
        return self._cells[position::self._width]

    def newest(self, count: int) -> "ColumnBlock":
        """The ``count`` newest tuples as a block of their own."""
        start = len(self._ts) - count
        return ColumnBlock(self._ts[start:],
                           self._cells[start * (self._width or 1):],
                           self._width)


class SealedBlock(ColumnBlock):
    """A sealed run of a key's history: never changed once published, so
    every reader shares it, and it remembers what folds compute on it."""

    __slots__ = ("_memo",)
    sealed = True

    def __init__(self, ts: "array[int]", cells: List[Any],
                 width: Optional[int]) -> None:
        super().__init__(ts, cells, width)
        self._memo: Dict[Any, Any] = {}

    def summary(self, position: int,
                reduce: Callable[[List[Any]], Any]) -> Any:
        """``reduce(self.column(position))``, computed once.  A reduction
        that declines (None) is answered with the column."""
        memo, key = self._memo, (position, reduce)
        if key not in memo:
            memo[key] = reduce(self.column(position))
        found = memo[key]
        return self.column(position) if found is None else found


class SealedSpan(SealedBlock):
    """Consecutive sealed blocks of one key (``SPAN_BLOCKS`` of them
    until a TTL cut or a late row rebuilds it), the summary level above
    them: a scan that covers the span whole hands it out as one block
    and the fold reads its memoized summaries.  The rows stay in the
    blocks; the span keeps only their timestamps, end to end."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[SealedBlock]) -> None:
        stamps = array("q")
        for block in blocks:
            stamps.extend(block._ts)
        super().__init__(stamps, None, blocks[0]._width)
        self.blocks = tuple(blocks)

    def rows(self) -> List[Any]:
        return [row for block in self.blocks for row in block.rows()]

    def column(self, position: int) -> List[Any]:
        values: List[Any] = []
        for block in self.blocks:
            values += block.column(position)
        return values

    def newest(self, count: int) -> ColumnBlock:
        cells = [cell for block in self.blocks for cell in block._cells]
        return ColumnBlock(self._ts, cells, self._width).newest(count)


def _first_block_past(blocks: List[ColumnBlock], ts: int, edge: int) -> int:
    """Index of the first of ``blocks`` whose ``_ts[edge]`` exceeds ``ts``."""
    lo, hi = 0, len(blocks)
    while lo < hi:
        mid = (lo + hi) // 2
        if blocks[mid]._ts[edge] > ts:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _place(stamps: "array[int]", cells: List[Any], ts: int,
           row: Sequence[Any]) -> None:
    """Insert one tuple after every tuple not newer than it."""
    at = bisect_right(stamps, ts)
    stamps.insert(at, ts)
    at *= len(row)  # the tuple's first cell
    cells[at:at] = row


def _with_late_row(block: SealedBlock, ts: int,
                   row: Sequence[Any]) -> List[SealedBlock]:
    """A rebuilt copy of ``block`` holding one more tuple, split in two
    past ``2 * BLOCK_ROWS``."""
    stamps, cells, stride = block._ts[:], block._cells[:], len(row)
    _place(stamps, cells, ts, row)
    size = len(stamps)
    half = size // 2 if size > 2 * BLOCK_ROWS else size
    return [SealedBlock(stamps[lo:hi], cells[lo * stride:hi * stride],
                        block._width)
            for lo, hi in ((0, half), (half, size)) if lo < hi]


def _without_oldest(block: SealedBlock, count: int) -> SealedBlock:
    """A rebuilt copy of ``block`` without its ``count`` oldest tuples."""
    return SealedBlock(block._ts[count:],
                       block._cells[count * (block._width or 1):],
                       block._width)


class _TimeList:
    """Per-key second level: the key's tuples pre-ranked by timestamp
    (Section 7.2), stored as columns.

    The history is ``_sealed`` — its first ``_spans`` entries
    :class:`SealedSpan` s, then the :class:`SealedBlock` s no span holds
    yet, all oldest first — then the hot **tail**: ``_ts``, an
    ``array('q')`` of timestamps, ascending, and ``_cells``, the rows'
    values in one flat row-major list, ``width`` values per tuple
    (``width`` None: the payload is opaque and takes one cell).  Past
    ``BLOCK_ROWS`` tuples the tail's oldest ``BLOCK_ROWS`` are sealed,
    and ``SPAN_BLOCKS`` blocks outside a span become one.  Among equal
    timestamps later arrivals sit *after* earlier ones, so a
    newest-first read sees the latest arrival first.  A late tuple or a
    TTL cut replaces a sealed block with a rebuilt one (split in two
    past ``2 * BLOCK_ROWS``), and the span holding it with a rebuilt
    span, whose summaries start afresh.

    Concurrency: a per-key lock is held around each bisect + slice and
    around each mutation (append, seal, late insert, prefix delete);
    nothing wider than this key is ever locked.  A reader takes its run
    under the lock — slices of the edges, the spans and sealed blocks
    between — so it can never see a timestamp beside another tuple's
    values or a window shifted by a concurrent insert or eviction.
    """

    __slots__ = ("_sealed", "_spans", "_ts", "_cells", "_width", "_lock")

    def __init__(self, width: Optional[int] = None) -> None:
        self._sealed: Sequence[SealedBlock] = ()  # a list from the first seal
        self._spans = 0
        self._ts = array("q")
        self._cells: List[Any] = []
        self._width = width
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum(map(len, self._sealed)) + len(self._ts)

    def insert(self, ts: int, row: Any) -> None:
        width = self._width
        if width is None:
            row = (row,)
        elif len(row) != width:
            raise StorageError(
                f"row has {len(row)} values, the index stores {width}")
        with self._lock:
            stamps, cells = self._ts, self._cells
            if not stamps or ts >= stamps[-1]:
                stamps.append(ts)  # in-order arrival: the stream case
                cells.extend(row)
            else:
                # A late tuple goes into the tail, or into a copy of the
                # first sealed block holding a newer one.
                sealed = self._sealed
                index = _first_block_past(sealed, ts, -1)
                if index == len(sealed):
                    _place(stamps, cells, ts, row)
                elif isinstance(sealed[index], SealedSpan):
                    blocks = list(sealed[index].blocks)
                    inner = _first_block_past(blocks, ts, -1)
                    blocks[inner:inner + 1] = _with_late_row(
                        blocks[inner], ts, row)
                    sealed[index] = SealedSpan(blocks)
                    return
                else:
                    sealed[index:index + 1] = _with_late_row(
                        sealed[index], ts, row)
                    return
            if len(stamps) > BLOCK_ROWS:
                cut = BLOCK_ROWS * len(row)
                if not self._sealed:
                    self._sealed = []
                sealed = self._sealed
                sealed.append(SealedBlock(stamps[:BLOCK_ROWS], cells[:cut],
                                          width))
                del stamps[:BLOCK_ROWS]
                del cells[:cut]
                first = self._spans
                while len(sealed) - first >= SPAN_BLOCKS:
                    sealed[first:first + SPAN_BLOCKS] = [
                        SealedSpan(sealed[first:first + SPAN_BLOCKS])]
                    first = self._spans = first + 1

    def newest(self) -> Optional[Tuple[int, Any]]:
        """The most recent ``(ts, row)`` — the LAST JOIN fast path."""
        with self._lock:
            if not self._ts:
                return None
            if self._width is None:
                return self._ts[-1], self._cells[-1]
            return self._ts[-1], tuple(self._cells[-self._width:])

    def scan_blocks(self, start_ts: Optional[int] = None,
                    end_ts: Optional[int] = None,
                    limit: Optional[int] = None) -> List[ColumnBlock]:
        """The run in ``[end_ts, start_ts]`` (both inclusive), capped to
        the ``limit`` newest tuples, as newest-first blocks.

        ``start_ts`` is the *newest* bound, ``end_ts`` the oldest —
        mirroring ``ROWS_RANGE BETWEEN x PRECEDING AND CURRENT ROW``.
        The tail's part comes first, then the spans and sealed blocks
        the run reaches: as they are when covered whole, else sliced —
        a span by walking its blocks.
        """
        width = self._width
        stride = width or 1
        blocks = []
        with self._lock:
            sealed = self._sealed
            # Oldest first; the walk pops the newest.
            pending = list(sealed) if start_ts is None or not sealed \
                else sealed[:_first_block_past(sealed, start_ts, 0)]
            block, stamps, cells = None, self._ts, self._cells
            while True:
                # A bisect only where a bound cuts this run.
                hi = len(stamps)
                if start_ts is not None and hi and stamps[-1] > start_ts:
                    hi = bisect_right(stamps, start_ts)
                lo = 0
                if end_ts is not None and hi and stamps[0] < end_ts:
                    lo = bisect_left(stamps, end_ts, 0, hi)
                if limit is not None:
                    lo = max(lo, hi - limit)
                whole = block is not None and lo == 0 and hi == len(stamps)
                if not whole and isinstance(block, SealedSpan):
                    pending.extend(block.blocks)
                else:
                    if limit is not None:
                        limit -= hi - lo
                    if whole:
                        blocks.append(block)
                    elif lo < hi:
                        blocks.append(ColumnBlock(
                            stamps[lo:hi], cells[lo * stride:hi * stride],
                            width))
                    if lo:
                        return blocks  # everything older is out of the run
                if not pending:
                    return blocks
                block = pending.pop()
                stamps, cells = block._ts, block._cells

    def scan(self, start_ts: Optional[int] = None,
             end_ts: Optional[int] = None,
             limit: Optional[int] = None) -> Iterator[Tuple[int, Any]]:
        """Yield ``(ts, row)`` newest-first within ``[end_ts, start_ts]``.

        The run is taken eagerly, so a caller that stops early should
        pass a ``limit``.
        """
        return chain.from_iterable(self.scan_blocks(start_ts, end_ts, limit))

    def evict(self, kind: TTLKind, horizon: Optional[int],
              keep: int) -> int:
        """Apply one TTL rule; returns the number of tuples removed.

        ``horizon`` expires tuples with ``ts < horizon`` (None: no time
        bound), ``keep`` everything but the ``keep`` newest (0: no count
        bound).  Both sets are prefixes of the history, so ``ABS_OR_LAT``
        cuts the longer one and ``ABS_AND_LAT`` (a tuple must violate
        both bounds) the shorter.
        """
        stride = self._width or 1
        with self._lock:
            sealed, stamps = self._sealed, self._ts
            expired = 0 if horizon is None else bisect_left(
                stamps, horizon) + sum(bisect_left(block._ts, horizon)
                                       for block in sealed)
            excess = max(len(self) - keep, 0) if keep else 0
            if kind is TTLKind.ABSOLUTE:
                cut = expired
            elif kind is TTLKind.LATEST:
                cut = excess
            elif kind is TTLKind.ABS_OR_LAT:
                cut = max(expired, excess)
            else:
                cut = min(expired, excess)
            left = cut
            while sealed and len(sealed[0]) <= left:
                unit = sealed.pop(0)
                left -= len(unit)
                self._spans -= isinstance(unit, SealedSpan)
            if sealed and left:
                unit = sealed[0]
                if isinstance(unit, SealedSpan):
                    blocks = list(unit.blocks)
                    while len(blocks[0]) <= left:
                        left -= len(blocks.pop(0))
                    if left:
                        blocks[0] = _without_oldest(blocks[0], left)
                    sealed[0] = SealedSpan(blocks)
                else:
                    sealed[0] = _without_oldest(unit, left)
            elif left:
                del stamps[:left]
                del self._cells[:left * stride]
        return cut


class TimeSeriesIndex:
    """The full two-level structure behind one table index.

    ``put`` routes a row to its key's time list; ``scan``/``latest`` serve
    window reads and LAST JOIN; ``evict`` applies the index's TTL spec.

    ``width`` is the number of values in every row (a table passes
    ``len(schema)``), which lets the second level store rows as column-
    sliceable cells.  Without it a payload is opaque — any object, kept
    as one cell — and blocks have rows but no columns.

    Any hashable value is a key, ``None`` (a NULL partition key) too.
    Sweeps over every key iterate ``self._keys.copy()``, one C-level
    step no other thread can enter, so a put that creates a key
    meanwhile neither breaks the sweep nor hides a key from it.
    (``list(self._keys.items())`` is not one step: each pair it builds
    can start a garbage collection whose finalizers switch threads.)
    """

    def __init__(self, ttl: TTLSpec = TTLSpec(),
                 width: Optional[int] = None) -> None:
        self._keys: Dict[Any, _TimeList] = {}
        self._new_time_list = partial(_TimeList, width)
        self.ttl = ttl

    def __len__(self) -> int:
        """Tuples held — O(keys): summed over the per-key columns."""
        return sum(map(len, self._keys.copy().values()))

    def __contains__(self, key: Any) -> bool:
        """Whether ``key`` has a time list here (an exact lookup)."""
        return key in self._keys

    @property
    def key_count(self) -> int:
        return len(self._keys)

    def put(self, key: Any, ts: int, row: Any) -> None:
        """Insert one tuple under ``key`` ordered by ``ts``."""
        time_list = self._keys.get(key)
        if time_list is None:
            time_list = self._keys.setdefault(key, self._new_time_list())
        time_list.insert(ts, row)

    def latest(self, key: Any) -> Optional[Tuple[int, Any]]:
        """Return the newest ``(ts, row)`` for ``key`` (LAST JOIN path)."""
        time_list = self._keys.get(key)
        if time_list is None:
            return None
        return time_list.newest()

    def scan(self, key: Any, start_ts: Optional[int] = None,
             end_ts: Optional[int] = None,
             limit: Optional[int] = None) -> Iterator[Tuple[int, Any]]:
        """Yield ``(ts, row)`` newest-first for ``key`` within the bounds."""
        time_list = self._keys.get(key)
        if time_list is None:
            return iter(())
        return time_list.scan(start_ts=start_ts, end_ts=end_ts, limit=limit)

    def scan_blocks(self, key: Any, start_ts: Optional[int] = None,
                    end_ts: Optional[int] = None,
                    limit: Optional[int] = None) -> List[ColumnBlock]:
        """Newest-first :class:`ColumnBlock` s for ``key``.

        The chunked counterpart of :meth:`scan`: the same run, as the
        tail's part and the sealed blocks (see
        :meth:`_TimeList.scan_blocks`).
        """
        time_list = self._keys.get(key)
        if time_list is None:
            return []
        return time_list.scan_blocks(start_ts=start_ts, end_ts=end_ts,
                                     limit=limit)

    def scan_all(self) -> Iterator[Tuple[Any, int, Any]]:
        """Yield every ``(key, ts, row)``, key by key (in no set order),
        ts descending within a key."""
        for key, time_list in self._keys.copy().items():
            for ts, row in time_list.scan():
                yield key, ts, row

    def evict(self, now_ts: int) -> int:
        """Apply this index's TTL policy relative to ``now_ts``.

        Returns the number of tuples removed.  ``ABS_OR_LAT`` applies the
        stricter of the two bounds, ``ABS_AND_LAT`` the looser, matching
        the table types of Section 8.1.
        """
        spec = self.ttl
        if spec.unbounded:
            return 0
        horizon = (now_ts - spec.abs_ttl_ms) if spec.abs_ttl_ms else None
        return sum(time_list.evict(spec.kind, horizon, spec.lat_ttl)
                   for time_list in self._keys.copy().values())
