"""Two-level time-series index (paper Section 7.2).

The first level maps each **key** (e.g. user id) to a second level
holding all tuples for that key *pre-ranked by timestamp*.  The paper's
first level is a lock-free skiplist; no query here reads keys in key
order, so it is a ``dict``.  The second level (:class:`_TimeList`) is
sealed immutable :class:`SealedBlock` s of ``BLOCK_ROWS`` tuples,
grouped ``SPAN_BLOCKS`` at a time into :class:`SealedSpan` s, then a hot
tail of one ``array('q')`` of ascending timestamps plus one reference
per row to the tuple that was put — the tuple the memtable log and the
binlog share, as the paper's second level points at a row stored once.
It keeps every property Section 7.2 relies on and drops the paper's
per-tuple node and pointer hops.  A sealed block holds each column
once, packed (:func:`_packed`): a column equal to the block's timestamps
*is* its ``array('q')`` of stamps, an all-int column the narrowest
``array`` that holds it (1–8 bytes a value), an all-float column an
``array('d')``, anything else a tuple — so a key's sealed history costs
a few bytes a value beside the row tuples, not a pointer a cell:

* ``LAST JOIN`` — the most recent tuple for a key is the end of the
  tail, O(1) once the key's time list is found, and handed out as is.
* ``PARTITION BY key ORDER BY ts ROWS BETWEEN ... PRECEDING`` — a window
  is the run between two integer bisects (O(log n) seek), handed out as
  newest-first :class:`ColumnBlock` s, every one column-major: the
  tail's part is its rows transposed once (``zip``), a sealed block's
  its packed columns or C-level slices of them — what the window fold
  reduces a column at a time.  Spans and sealed blocks the run covers
  whole go out by reference, with their memoized reductions: the two
  summary levels are Section 5.1's multi-level pre-aggregation, kept by
  storage itself, so a long window folds a few dozen summaries and two
  edges however many rows it holds.  Between two writes to a key the
  edges memoize too, from their second read: the tail's newest rows
  are published as a :class:`SharedBlock` that memoizes like a sealed
  one until the tail next changes, and a cut of a shared block asked
  for again (:class:`CutBlock`) keeps its summaries in that block's
  memo, one cut a reduction.
* In-order arrival (the stream case) is an O(1) ``append`` of the stamp
  and of the row; a late tuple is a bisect plus one ``insert``, or a
  repacked copy of the sealed block it lands in (and of the span holding
  that block).
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

__all__ = ["BLOCK_ROWS", "ColumnBlock", "CutBlock", "SealedBlock",
           "SealedSpan", "SharedBlock", "SPAN_BLOCKS", "TimeSeriesIndex"]

#: Tuples per sealed block: once a key's hot tail holds more, its oldest
#: ``BLOCK_ROWS`` are sealed.
BLOCK_ROWS = 256

#: Sealed blocks per span: once a key holds this many blocks outside a
#: span, they become one :class:`SealedSpan` (4,096 rows by default).
SPAN_BLOCKS = 16


def _packed(values: List[Any], stamps: "array[int]") -> Sequence[Any]:
    """One sealed column, stored once and never changed, in the
    narrowest form that gives every value back exactly, type included:
    ``stamps`` itself when the values are those ints, an ``array`` of
    the narrowest signed code that takes an all-``int`` column (``array``
    raises ``OverflowError`` on a value a code cannot hold), an
    ``array('d')`` for an all-``float`` one, else a tuple (NULLs,
    strings, bools, dates, mixed types, ints past 64 bits)."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return array("d", values)
    if kind is int:
        if values[0] == stamps[0] and values == stamps.tolist():
            return stamps
        for code in "bhiq":
            try:
                return array(code, values)
            except OverflowError:
                pass
    return tuple(values)


def _transposed(rows: Sequence[Any],
                width: Optional[int]) -> Sequence[Sequence[Any]]:
    """``rows`` (oldest first) as one tuple per value position — ``width``
    None: the payloads as they are, one column."""
    return (rows,) if width is None else tuple(zip(*rows)) or ((),) * width


class ColumnBlock:
    """A run of one key's tuples, held as columns.

    What every ``window_scan_blocks`` hands out: a private copy (the
    tail's rows transposed under the per-key lock, or built from rows by
    a caller) or a shared block no writer changes, so nothing a reader
    does can race a writer.  ``_ts`` holds the
    timestamps ascending in an ``array('q')`` and ``_columns`` one
    sequence per value position (``width`` None: one column of opaque
    payloads), each oldest → newest — the order float sums and
    ``Counter`` insertion must run in.  The columns are never changed:
    :meth:`values` hands one out as held, :meth:`column` copies one into
    a fresh list and :meth:`rows` zips them back into tuples.

    Row-walking consumers see the same thing as before: ``len()`` is the
    row count and iteration yields ``(ts, row)`` pairs **newest-first**.

    A plain block memoizes nothing; a :class:`SharedBlock` and a
    :class:`CutBlock` of one answer :meth:`summary` from a memo
    (``memoizes``).  ``sealed`` marks sealed history alone.
    """

    __slots__ = ("_ts", "_columns", "_width")
    sealed = False
    memoizes = False

    def __init__(self, ts: "array[int]", columns: Sequence[Sequence[Any]],
                 width: Optional[int]) -> None:
        self._ts = ts
        self._columns = columns
        self._width = width

    @classmethod
    def of_rows(cls, ts: "array[int]", rows: Sequence[Any],
                width: Optional[int]) -> "ColumnBlock":
        """A block of ``rows``, oldest first, stamped ``ts``."""
        return cls(ts, _transposed(rows, width), width)

    @classmethod
    def of_row(cls, ts: int, row: Sequence[Any]) -> "ColumnBlock":
        """A block holding one row (a request tuple heading its window)."""
        return cls.of_rows(array("q", (ts,)), (row,), len(row))

    @classmethod
    def from_pairs(cls, pairs_newest_first: Sequence[Tuple[int, Any]],
                   width: int) -> "ColumnBlock":
        """Build a block from newest-first ``(ts, row)`` pairs whose rows
        all have ``width`` values (merged reads)."""
        oldest_first = pairs_newest_first[::-1]
        return cls.of_rows(array("q", [ts for ts, _row in oldest_first]),
                           [row for _ts, row in oldest_first], width)

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
            return list(self._columns[0])
        return list(zip(*self._columns))

    def values(self, position: int) -> Sequence[Any]:
        """One column as held, oldest → newest (an ``array``, a tuple, a
        span's list): shared, so never to be changed."""
        return self._columns[position]

    def column(self, position: int) -> List[Any]:
        """One column's values, oldest → newest, in a fresh list."""
        values = self.values(position)
        return values.tolist() if type(values) is array else list(values)

    def part(self, lo: int, hi: int) -> "ColumnBlock":
        """Tuples ``lo`` up to ``hi`` as a block of their own (never
        called on a span: a cut opens it into its blocks)."""
        return ColumnBlock(self._ts[lo:hi],
                           tuple(values[lo:hi] for values in self._columns),
                           self._width)


#: A memo key's tag for the last cut asked for and its summaries (see
#: :class:`CutBlock` and :meth:`SealedBlock.part`).
_LAST_CUT = "cut"


class SharedBlock(ColumnBlock):
    """A block every reader shares and no writer ever changes — a key's
    published tail (:meth:`_TimeList.scan_blocks`) or, as a
    :class:`SealedBlock`, a run of its sealed history — that remembers
    what folds compute on it.

    ``_memo`` maps ``(position, reduce)`` to ``reduce`` over the whole
    column, ``(_LAST_CUT, position, reduce)`` to the last
    :class:`CutBlock`'s ``(lo, hi)`` with its answer — one cut a
    reduction, so a window edge sliding on by a row a write replaces its
    entry instead of piling one up — and, in a sealed block,
    ``_LAST_CUT`` to the last cut :meth:`SealedBlock.part` was asked
    for.
    """

    __slots__ = ("_memo",)
    memoizes = True

    def __init__(self, ts: "array[int]", columns: Sequence[Sequence[Any]],
                 width: Optional[int]) -> None:
        super().__init__(ts, columns, width)
        self._memo: Dict[Any, Any] = {}

    def summary(self, position: int,
                reduce: Callable[[Sequence[Any]], Any]) -> Any:
        """``reduce`` over the column as held (a packed ``array``, a
        tuple, a span's list), computed once.  A reduction that declines
        (None) is answered with the column."""
        memo, key = self._memo, (position, reduce)
        found = memo.get(key, memo)  # the memo itself: not held yet
        if found is memo:
            found = memo[key] = reduce(self.values(position))
        return self.values(position) if found is None else found

    def memoized(self, position: int,
                 reduce: Callable[[Sequence[Any]], Any]) -> bool:
        """Whether :meth:`summary` answers without reducing."""
        return (position, reduce) in self._memo

    def part(self, lo: int, hi: int) -> ColumnBlock:
        return CutBlock(self, lo, hi)


class CutBlock(ColumnBlock):
    """Tuples ``lo`` up to ``hi`` of a :class:`SharedBlock` — a window's
    edge, asked for twice in a row — whose summaries live in the memo
    of the block it was cut from, under that block's last cut: a read
    that cuts the same rows again reduces nothing."""

    __slots__ = ("_source", "_cut")
    memoizes = True

    def __init__(self, source: SharedBlock, lo: int, hi: int) -> None:
        super().__init__(source._ts[lo:hi],
                         tuple(values[lo:hi] for values in source._columns),
                         source._width)
        self._source = source
        self._cut = (lo, hi)

    def summary(self, position: int,
                reduce: Callable[[Sequence[Any]], Any]) -> Any:
        """As :meth:`SharedBlock.summary`, memoized for this cut only."""
        memo, key = self._source._memo, (_LAST_CUT, position, reduce)
        held = memo.get(key)
        if held is None or held[0] != self._cut:
            held = memo[key] = (self._cut, reduce(self.values(position)))
        found = held[1]
        return self.values(position) if found is None else found

    def memoized(self, position: int,
                 reduce: Callable[[Sequence[Any]], Any]) -> bool:
        held = self._source._memo.get((_LAST_CUT, position, reduce))
        return held is not None and held[0] == self._cut

    def part(self, lo: int, hi: int) -> ColumnBlock:
        first = self._cut[0]
        return self._source.part(first + lo, first + hi)


class SealedBlock(SharedBlock):
    """A sealed run of a key's history: never changed once published, so
    every reader shares it, and it remembers what folds compute on it."""

    __slots__ = ()
    sealed = True

    @classmethod
    def of_rows(cls, ts: "array[int]", rows: Sequence[Any],
                width: Optional[int]) -> "SealedBlock":
        """Seal ``rows`` (oldest first), packing each column."""
        return cls(ts, tuple(_packed(list(values), ts)
                             for values in _transposed(rows, width)), width)

    def part(self, lo: int, hi: int) -> ColumnBlock:
        """A cut asked for again (the same window edge, no write to the
        key since) memoizes as a :class:`CutBlock`; a new one is a plain
        slice — an edge that moves with every write costs a fold no
        more than it did.  (A published tail needs no such gate: it is
        published on its second read.)"""
        memo, cut = self._memo, (lo, hi)
        if memo.get(_LAST_CUT) == cut:
            return CutBlock(self, lo, hi)
        memo[_LAST_CUT] = cut
        return ColumnBlock.part(self, lo, hi)


class SealedSpan(SealedBlock):
    """Consecutive sealed blocks of one key (``SPAN_BLOCKS`` of them
    until a TTL cut or a late row rebuilds it), the summary level above
    them: a scan that covers the span whole hands it out as one block
    and the fold reads its memoized summaries.  The values stay in the
    blocks; the span keeps only their timestamps, end to end."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[SealedBlock]) -> None:
        stamps = array("q")
        for block in blocks:
            stamps.extend(block._ts)
        super().__init__(stamps, (), blocks[0]._width)
        self.blocks = tuple(blocks)

    def rows(self) -> List[Any]:
        return [row for block in self.blocks for row in block.rows()]

    def values(self, position: int) -> List[Any]:
        values: List[Any] = []
        for block in self.blocks:
            values += block.values(position)
        return values


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


def _place(stamps: "array[int]", rows: List[Any], ts: int, row: Any) -> None:
    """Insert one tuple after every tuple not newer than it."""
    at = bisect_right(stamps, ts)
    stamps.insert(at, ts)
    rows.insert(at, row)


def _with_late_row(block: SealedBlock, ts: int,
                   row: Any) -> List[SealedBlock]:
    """A repacked copy of ``block`` holding one more tuple, split in two
    past ``2 * BLOCK_ROWS``."""
    stamps, rows = block._ts[:], block.rows()
    _place(stamps, rows, ts, row)
    size = len(stamps)
    half = size // 2 if size > 2 * BLOCK_ROWS else size
    return [SealedBlock.of_rows(stamps[lo:hi], rows[lo:hi], block._width)
            for lo, hi in ((0, half), (half, size)) if lo < hi]


def _without_oldest(block: SealedBlock, count: int) -> SealedBlock:
    """A copy of ``block`` without its ``count`` oldest tuples (a
    timestamp column stays the copy's own stamps)."""
    stamps = block._ts[count:]
    return SealedBlock(stamps, tuple(
        stamps if values is block._ts else values[count:]
        for values in block._columns), block._width)


#: ``_TimeList._tail`` after the first read of the tail's newest rows
#: since it last changed: the second such read publishes them.
_READ_ONCE = "read once"


class _TimeList:
    """Per-key second level: the key's tuples pre-ranked by timestamp
    (Section 7.2), stored as columns.

    The history is ``_sealed`` — its first ``_spans`` entries
    :class:`SealedSpan` s, then the :class:`SealedBlock` s no span holds
    yet, all oldest first — then the hot **tail**: ``_ts``, an
    ``array('q')`` of timestamps, ascending, and ``_rows``, the very
    tuples the host validated (``width`` None: the opaque payloads), one
    reference a row — the row tuple the memtable log and the binlog hold
    too, so a tail row costs a list slot and a stamp beside it.  Every
    write is one list operation: an in-order put one ``append``, a late
    row one ``insert``, a TTL cut one ``del``.  Past ``BLOCK_ROWS``
    tuples the tail's oldest ``BLOCK_ROWS`` are sealed, each column
    packed on its own (:meth:`SealedBlock.of_rows`), and
    ``SPAN_BLOCKS`` blocks outside a span become one.  Among equal
    timestamps later arrivals sit *after* earlier ones, so a
    newest-first read sees the latest arrival first.  A late tuple or a
    TTL cut replaces a sealed block with a rebuilt one (a late tuple
    repacks it, split in two past ``2 * BLOCK_ROWS``), and the span
    holding it with a rebuilt span, whose summaries start afresh.

    The second read that reaches the tail's newest row since the tail
    last changed publishes its part of the tail as ``_tail``, a
    :class:`SharedBlock` of the tail's newest rows (as many as the
    widest such read asked for), kept until the tail next changes — an
    append (and the seal it may bring), a late row into the tail, a TTL
    cut into it — so the later reads between two writes fold it from
    its memo; a narrower read cuts it.  The first read transposes a
    private block, as every read once did: a key read once between
    writes pays nothing for the memo.  Sealed blocks and spans need no
    such care: a late row or a TTL cut replaces them with fresh ones.

    Concurrency: a per-key lock is held around each bisect + slice and
    around each mutation (append, seal, late insert, prefix delete);
    nothing wider than this key is ever locked.  A reader takes its run
    under the lock — slices of the edges, the spans and sealed blocks
    between — so it can never see a timestamp beside another tuple's
    values or a window shifted by a concurrent insert or eviction.  The
    tail's part is transposed into columns under the lock too — one
    C-level ``zip``, during which no other thread runs anyway — and
    published there, so a published block is the tail's newest rows
    exactly: every mutation of the tail clears ``_tail`` under the same
    lock.
    """

    __slots__ = ("_sealed", "_spans", "_ts", "_rows", "_width", "_lock",
                 "_tail")

    def __init__(self, width: Optional[int] = None) -> None:
        self._sealed: Sequence[SealedBlock] = ()  # a list from the first seal
        self._spans = 0
        self._ts = array("q")
        self._rows: List[Any] = []
        self._width = width
        self._lock = threading.Lock()
        # None, _READ_ONCE (read once since the tail last changed) or
        # the published block of the tail's newest rows.
        self._tail: Any = None

    def __len__(self) -> int:
        return sum(map(len, self._sealed)) + len(self._ts)

    def insert(self, ts: int, row: Any) -> None:
        width = self._width
        if width is not None:
            if len(row) != width:
                raise StorageError(
                    f"row has {len(row)} values, the index stores {width}")
            row = tuple(row)
        with self._lock:
            stamps, rows = self._ts, self._rows
            if not stamps or ts >= stamps[-1]:
                stamps.append(ts)  # in-order arrival: the stream case
                rows.append(row)
            else:
                # A late tuple goes into the tail, or into a copy of the
                # first sealed block holding a newer one.
                sealed = self._sealed
                index = _first_block_past(sealed, ts, -1)
                if index == len(sealed):
                    _place(stamps, rows, ts, row)
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
            self._tail = None  # the tail changed: its block is stale
            if len(stamps) > BLOCK_ROWS:
                if not self._sealed:
                    self._sealed = []
                sealed = self._sealed
                sealed.append(SealedBlock.of_rows(stamps[:BLOCK_ROWS],
                                                  rows[:BLOCK_ROWS], width))
                del stamps[:BLOCK_ROWS]
                del rows[:BLOCK_ROWS]
                first = self._spans
                while len(sealed) - first >= SPAN_BLOCKS:
                    sealed[first:first + SPAN_BLOCKS] = [
                        SealedSpan(sealed[first:first + SPAN_BLOCKS])]
                    first = self._spans = first + 1

    def newest(self) -> Optional[Tuple[int, Any]]:
        """The most recent ``(ts, row)`` — the LAST JOIN fast path: the
        row is the tuple that was put."""
        with self._lock:
            return (self._ts[-1], self._rows[-1]) if self._ts else None

    def scan_blocks(self, start_ts: Optional[int] = None,
                    end_ts: Optional[int] = None,
                    limit: Optional[int] = None) -> List[ColumnBlock]:
        """The run in ``[end_ts, start_ts]`` (both inclusive), capped to
        the ``limit`` newest tuples, as newest-first blocks.

        ``start_ts`` is the *newest* bound, ``end_ts`` the oldest —
        mirroring ``ROWS_RANGE BETWEEN x PRECEDING AND CURRENT ROW``.
        The tail's part comes first — the published tail block, whole or
        cut, when it holds that part — then the spans and sealed blocks
        the run reaches: as they are when covered whole, else cut — a
        span by walking its blocks.
        """
        blocks: List[ColumnBlock] = []
        with self._lock:
            sealed = self._sealed
            # Oldest first; the walk pops the newest.
            pending = list(sealed) if start_ts is None or not sealed \
                else sealed[:_first_block_past(sealed, start_ts, 0)]
            block, stamps = None, self._ts
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
                        blocks.append(self._tail_part(lo, hi) if block is None
                                      else block.part(lo, hi))
                    if lo:
                        break  # everything older is out of the run
                if not pending:
                    break
                block = pending.pop()
                stamps = block._ts
        return blocks

    def _tail_part(self, lo: int, hi: int) -> ColumnBlock:
        """The tail's tuples ``lo`` up to ``hi`` as a block (under the
        lock): the published block or a cut of it when it holds them,
        else transposed from the rows — and published when they reach
        the newest row and it is not the tail's first such read."""
        stamps, held = self._ts, self._tail
        size = len(stamps)
        if type(held) is SharedBlock and (first := size - len(held)) <= lo:
            return held if (lo, hi) == (first, size) \
                else held.part(lo - first, hi - first)
        if hi == size and held is not None:
            self._tail = SharedBlock.of_rows(
                stamps[lo:hi], self._rows[lo:hi], self._width)
            return self._tail
        if hi == size:
            self._tail = _READ_ONCE
        return ColumnBlock.of_rows(stamps[lo:hi], self._rows[lo:hi],
                                   self._width)

    def evict(self, kind: TTLKind, horizon: Optional[int],
              keep: int) -> int:
        """Apply one TTL rule; returns the number of tuples removed.

        ``horizon`` expires tuples with ``ts < horizon`` (None: no time
        bound), ``keep`` everything but the ``keep`` newest (0: no count
        bound).  Both sets are prefixes of the history, so ``ABS_OR_LAT``
        cuts the longer one and ``ABS_AND_LAT`` (a tuple must violate
        both bounds) the shorter.
        """
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
                del self._rows[:left]
                self._tail = None
        return cut


class TimeSeriesIndex:
    """The full two-level structure behind one table index.

    ``put`` routes a row to its key's time list; ``scan_blocks`` and
    ``latest`` serve window reads and LAST JOIN; ``evict`` applies the
    index's TTL spec.

    ``width`` is the number of values in every row (a table passes
    ``len(schema)``): a row of another length is refused, a list row is
    kept as a tuple, and blocks have one column per value.  Without it a
    payload is opaque — any object, kept as is — and a block has one
    column of payloads.

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

    def scan_blocks(self, key: Any, start_ts: Optional[int] = None,
                    end_ts: Optional[int] = None,
                    limit: Optional[int] = None) -> List[ColumnBlock]:
        """Newest-first :class:`ColumnBlock` s for ``key`` within the
        bounds: the tail's part and the sealed blocks (see
        :meth:`_TimeList.scan_blocks`); iterating them yields
        ``(ts, row)`` pairs.
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
            for ts, row in chain.from_iterable(time_list.scan_blocks()):
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
