"""Two-level time-series index (paper Section 7.2).

The first level is a skiplist ordered by **key** (e.g. user id); each key
node points to a second level holding all tuples for that key *pre-ranked
by timestamp*.  Here the second level is stored as columns
(:class:`_TimeList`): sealed immutable :class:`ColumnBlock` s of
``BLOCK_ROWS`` tuples, grouped ``SPAN_BLOCKS`` at a time into
:class:`SealedSpan` s, then a hot tail of one ``array('q')`` of ascending
timestamps plus the rows' values in one flat row-major list, rather than
the paper's linked nodes — it keeps every property Section 7.2 relies on
and drops the per-tuple node, pointer cells and pointer hops:

* ``LAST JOIN`` — the most recent tuple for a key is the end of the
  tail, O(1) once the key node is found.
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

Concurrency: the first level follows the paper's lock-free discipline —
pointer updates go through :class:`AtomicReference.compare_and_set` retry
loops rather than a structure-wide lock.  (CPython's GIL makes individual
pointer writes atomic anyway; the CAS loops keep the *algorithm* faithful
and are exercised by the concurrency tests.)  The second level takes a
per-key lock for the duration of one bisect + slice or one mutation, so
readers and writers of different keys never wait on each other.
"""

from __future__ import annotations

import random
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

__all__ = ["AtomicReference", "BLOCK_ROWS", "ColumnBlock", "SealedBlock",
           "SealedSpan", "SkipList", "SPAN_BLOCKS", "TimeSeriesIndex"]

_MAX_LEVEL = 16
_BRANCHING = 4  # expected nodes per level step, as in LevelDB/OpenMLDB

#: Tuples per sealed block: once a key's hot tail holds more, its oldest
#: ``BLOCK_ROWS`` are sealed.  Disk-backed scans chunk by it too.
BLOCK_ROWS = 256

#: Sealed blocks per span: once a key holds this many blocks outside a
#: span, they become one :class:`SealedSpan` (4,096 rows by default).
SPAN_BLOCKS = 16


#: Guards the compare step of every :class:`AtomicReference`.  A CAS
#: holds it for one identity test and one store, and only a put that
#: creates a key (or a remove) links a node, so one lock costs no
#: contention a per-cell lock would avoid — and no lock object per cell.
_CAS_LOCK = threading.Lock()


class AtomicReference:
    """A mutable slot updated via compare-and-set.

    Models the atomic pointer cells of the paper's lock-free skiplist.  The
    module's one ``_CAS_LOCK`` only guards the compare step itself (the
    moral equivalent of a hardware CAS); callers are expected to retry on
    failure, and reads never take it.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Any = None) -> None:
        self._value = value

    def get(self) -> Any:
        return self._value

    def compare_and_set(self, expected: Any, new: Any) -> bool:
        """Atomically set to ``new`` iff the current value is ``expected``."""
        with _CAS_LOCK:
            if self._value is expected:
                self._value = new
                return True
            return False

    def set(self, value: Any) -> None:
        """Unconditional store (used only on unpublished nodes)."""
        self._value = value


class _SkipNode:
    __slots__ = ("key", "value", "forwards")

    def __init__(self, key: Any, value: Any, height: int) -> None:
        self.key = key
        self.value = value
        self.forwards: List[AtomicReference] = [
            AtomicReference(None) for _ in range(height)
        ]

    @property
    def height(self) -> int:
        return len(self.forwards)


class SkipList:
    """A probabilistic skiplist mapping ordered keys to values.

    Insertions use per-pointer CAS retry loops; reads are wait-free walks.
    ``seed`` pins the level-generation RNG so structures are reproducible
    in tests and benchmarks.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._head = _SkipNode(None, None, _MAX_LEVEL)
        self._rng = random.Random(seed)
        self._height = 1
        self._size = 0
        self._size_lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def _random_height(self) -> int:
        height = 1
        while (height < _MAX_LEVEL
               and self._rng.randrange(_BRANCHING) == 0):
            height += 1
        return height

    def _find_predecessors(self, key: Any
                           ) -> Tuple[List[_SkipNode],
                                      List[Optional[_SkipNode]]]:
        """Per level, the last node with a key strictly < ``key`` and the
        successor the walk checked against it (the CAS's expected value).

        It walks every level, not only up to ``_height``: a writer CASes
        at each level of its new node, and two writers raising the
        height at once can leave ``_height`` below a linked level.
        """
        predecessors = [self._head] * _MAX_LEVEL
        successors: List[Optional[_SkipNode]] = [None] * _MAX_LEVEL
        node = self._head
        for level in range(_MAX_LEVEL - 1, -1, -1):
            next_node = node.forwards[level].get()
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forwards[level].get()
            predecessors[level] = node
            successors[level] = next_node
        return predecessors, successors

    def _level0_predecessor(self, key: Any) -> _SkipNode:
        """The last node with a key strictly < ``key``: the read walk.

        It keeps only the current node — no per-level list, which only
        a writer needs — and reads each pointer cell's value directly
        (what :meth:`AtomicReference.get` returns): every put on an
        existing key and every window seek starts here.
        """
        node = self._head
        for level in range(self._height - 1, -1, -1):
            next_node = node.forwards[level]._value
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forwards[level]._value
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under ``key`` or ``default``."""
        node = self._level0_predecessor(key).forwards[0]._value
        if node is not None and node.key == key:
            return node.value
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def insert(self, key: Any, value: Any) -> bool:
        """Insert ``key`` → ``value``.  Returns False if the key exists.

        The new node is linked bottom-up: once the level-0 CAS succeeds the
        node is visible to readers, matching the published-when-linked
        semantics of lock-free skiplists.
        """
        while True:
            predecessors, successors = self._find_predecessors(key)
            candidate = successors[0]
            if candidate is not None and candidate.key == key:
                return False
            height = self._random_height()
            if height > self._height:
                self._height = height
            node = _SkipNode(key, value, height)
            # Publish at level 0 first, then each level up, every CAS
            # against the successor the walk *checked* (never a re-read
            # of the pointer): a node that slipped in since (this key,
            # or one that sorts before it) fails the CAS and restarts
            # the search instead of being linked behind a duplicate or
            # ahead of a smaller key.
            node.forwards[0].set(candidate)
            if not predecessors[0].forwards[0].compare_and_set(
                    candidate, node):
                continue
            for level in range(1, height):
                while True:
                    node.forwards[level].set(successors[level])
                    if predecessors[level].forwards[level].compare_and_set(
                            successors[level], node):
                        break
                    predecessors, successors = self._find_predecessors(key)
            with self._size_lock:
                self._size += 1
            return True

    def get_or_insert(self, key: Any,
                      factory: Callable[[], Any]) -> Any:
        """Return the value for ``key``, creating it with ``factory``.

        The common path for the first-level structure: most inserts hit an
        existing key node and only append to its second-level list.
        """
        existing = self.get(key, None)
        if existing is not None:
            return existing
        value = factory()
        if self.insert(key, value):
            return value
        return self.get(key)

    def remove(self, key: Any) -> bool:
        """Unlink ``key`` from every level.  Returns False if absent."""
        removed = False
        while True:
            predecessors, successors = self._find_predecessors(key)
            node = successors[0]
            if node is None or node.key != key:
                return removed
            success = True
            for level in range(node.height - 1, -1, -1):
                predecessor = predecessors[level]
                if predecessor.forwards[level].get() is node:
                    if not predecessor.forwards[level].compare_and_set(
                            node, node.forwards[level].get()):
                        success = False
                        break
            if success:
                with self._size_lock:
                    self._size -= 1
                return True
            removed = False  # retry from a fresh search

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs in ascending key order."""
        node = self._head.forwards[0].get()
        while node is not None:
            yield node.key, node.value
            node = node.forwards[0].get()

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def first_at_or_after(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the smallest ``(key, value)`` with key >= ``key``."""
        node = self._level0_predecessor(key).forwards[0]._value
        if node is None:
            return None
        return node.key, node.value


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
        all have ``width`` values (disk-backed and merged reads)."""
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
    """

    def __init__(self, ttl: TTLSpec = TTLSpec(),
                 seed: Optional[int] = None,
                 width: Optional[int] = None) -> None:
        self._keys = SkipList(seed=seed)
        self._new_time_list = partial(_TimeList, width)
        self.ttl = ttl

    def __len__(self) -> int:
        """Tuples held — O(keys): summed over the per-key columns."""
        return sum(len(time_list) for _key, time_list in self._keys.items())

    @property
    def key_count(self) -> int:
        return len(self._keys)

    def put(self, key: Any, ts: int, row: Any) -> None:
        """Insert one tuple under ``key`` ordered by ``ts``."""
        self._keys.get_or_insert(key, self._new_time_list).insert(ts, row)

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
        """Yield every ``(key, ts, row)``, keys ascending, ts descending."""
        for key, time_list in self._keys.items():
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
                   for _key, time_list in self._keys.items())
