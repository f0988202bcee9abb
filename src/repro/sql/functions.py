"""Built-in scalar and aggregate functions (paper Section 4.1, Table 1).

Aggregates are small state machines so the execution engines can use them
three ways:

* **one-shot** — fold a window's rows (offline batch path);
* **incremental** — ``add``/``remove`` for subtract-and-evict sliding
  windows (Section 5.2), available when ``invertible``;
* **merge** — combine partial states, e.g. offline task partials
  (Section 6), available when ``mergeable``.  For order-sensitive but
  associative aggregates (``drawdown``, ``lag``) the state is
  segment-shaped and ``merge(older, newer)`` concatenates time segments.

The flags on the classes (``invertible``, ``mergeable``, ``merge_exact``,
``order_sensitive``, ``fold_family``) are the only statement of an
aggregate's algebra: ``sql/compiler.py`` derives every tier decision
from them (``CompiledWindow.carry_eligible``), the offline
:class:`~repro.online.incremental.SlidingWindowAggregator` reads
``invertible`` / ``order_sensitive``, and lint rule AGG001 checks each
class decides.

``sum`` and ``avg`` keep an :class:`ExactSum`: the paper's engine adds
doubles left to right, so its answer depends on the order and grouping
of the adds; here every tier returns the correctly rounded sum, which
depends on the values alone.

The Table 1 extensions implemented here: ``topn_frequency``,
``avg_cate_where`` (and the ``*_cate``/``*_where`` family), ``drawdown``,
``ew_avg``, ``split_by_key``, plus ``distinct_count`` from the paper's
Figure 1 feature script.  NULL inputs are skipped, per SQL semantics.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CompileError, ExecutionError

__all__ = [
    "AggregateFunction", "AGGREGATES", "SCALARS", "ExactSum",
    "get_aggregate", "get_scalar", "is_aggregate",
]


# ----------------------------------------------------------------------
# exact sums

#: Past this many floats an :class:`ExactSum` re-derives its partials.
_COMPACT_AT = 32


def _partials(floats: List[float]) -> List[float]:
    """A few floats whose exact sum is that of ``floats``: the correctly
    rounded sum, then the rounded remainder, until none is left — the
    partials ``math.fsum`` keeps, peeled off by ``math.fsum`` itself.
    Infinities and NaNs stay as they are; so does a list whose finite
    sum leaves the double range."""
    rough = sum(floats)
    special = [value for value in floats if value - value] \
        if rough - rough else []  # only a non-finite value can be one
    finite = [value for value in floats if not value - value] \
        if special else list(floats)
    parts: List[float] = []
    try:
        while True:
            head = math.fsum(finite)
            if not head:
                return parts + special
            parts.append(head)
            finite.append(-head)
    except OverflowError:
        return list(floats)


def _rounded_sum(floats: Sequence[float], ints: int = 0) -> float:
    """The IEEE double of the exact sum of ``floats`` and ``ints``:
    correctly rounded, ±inf past the double range, NaN when a NaN or
    both infinities are present; a zero sum is +0.0."""
    values = floats
    try:
        if ints:
            values, rest = list(floats), ints
            while rest:  # the int in exact float pieces
                piece = float(rest)
                values.append(piece)
                rest -= int(piece)
        return math.fsum(values) + 0.0
    except ValueError:  # +inf and -inf
        return math.nan
    except OverflowError:  # a partial sum left the double range
        special = [value for value in floats if value - value]
        if special:
            return _rounded_sum(special)
        exact = sum(map(Fraction, floats), Fraction(ints))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


class ExactSum:
    """The exact sum of a multiset of numbers, as a mergeable state.

    Ints add up in one Python int.  Floats are kept as a list whose exact
    sum is theirs (re-derived into a few partials by :func:`_partials`
    once it grows), so adding, merging, and removing a row by adding its
    negation never round: the state depends only on the multiset, never
    on order or grouping.  :meth:`total` rounds once — an int when no
    float is present, else :func:`_rounded_sum` — so every tier that
    folds, merges, or evicts a window returns the same bits.
    """

    __slots__ = ("ints", "floats", "count", "float_count")

    def __init__(self, ints: int = 0, floats: Optional[List[float]] = None,
                 count: int = 0, float_count: int = 0) -> None:
        self.ints = ints
        self.floats = [] if floats is None else floats
        self.count = count
        self.float_count = float_count

    @classmethod
    def of(cls, values: List[Any]) -> "ExactSum":
        """The sum of a column's non-NULL values, compacted (what a
        block memoizes)."""
        try:
            total = sum(values)
        except TypeError:  # a NULL does not add: skip them
            values = [value for value in values if value is not None]
            total = sum(values)
        if type(total) is int:  # no float among them
            return cls(total, None, len(values))
        state = cls()
        state.extend(values)
        state.floats = _partials(state.floats)
        return state

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        if type(value) is float:
            self.float_count += 1
            floats = self.floats
            floats.append(value)
            if len(floats) > _COMPACT_AT:
                self.floats = _partials(floats)
        else:
            self.ints += value

    def remove(self, value: Any) -> None:
        """Take one earlier-added value back out, exactly."""
        if value is None:
            return
        self.count -= 1
        if type(value) is not float:
            self.ints -= value
            return
        self.float_count -= 1
        floats = self.floats
        if not value - value:
            floats.append(-value)
            if len(floats) > _COMPACT_AT:
                self.floats = _partials(floats)
        else:  # an infinity or NaN leaves as it came
            floats.pop(next(index for index, held in enumerate(floats)
                            if held == value
                            or (held != held and value != value)))

    def extend(self, values: List[Any], floats: bool = False) -> None:
        """Add non-NULL numbers (``sum`` raises ``TypeError`` on a NULL
        before anything changes); ``floats``: they are known to be
        floats, e.g. a FLOAT or DOUBLE column's."""
        total = sum(values)
        if floats:
            self.floats += values
            self.float_count += len(values)
        elif type(total) is int:  # no float among them
            self.ints += total
        else:
            floats = [value for value in values if type(value) is float]
            if len(floats) < len(values):
                self.ints += sum(value for value in values
                                 if type(value) is not float)
            self.floats.extend(floats)
            self.float_count += len(floats)
        self.count += len(values)

    def absorb(self, other: "ExactSum") -> None:
        """Add every value ``other`` holds (left unchanged)."""
        self.ints += other.ints
        if other.float_count:
            self.floats.extend(other.floats)
            self.float_count += other.float_count
        self.count += other.count

    def merged(self, other: "ExactSum") -> "ExactSum":
        state = ExactSum(self.ints, list(self.floats), self.count,
                         self.float_count)
        state.absorb(other)
        if len(state.floats) > _COMPACT_AT:
            state.floats = _partials(state.floats)
        return state

    def total(self) -> Any:
        """The sum, rounded once; None when no value was added."""
        if not self.count:
            return None
        if not self.float_count:
            return self.ints
        return _rounded_sum(self.floats, self.ints)


class AggregateFunction:
    """Base class for aggregate implementations.

    Subclasses define ``create``, ``add``, ``result`` and — when supported —
    ``remove`` (invertible) and ``merge`` (mergeable).  ``extra_args`` is
    the number of constant arguments after the value expression(s), e.g.
    ``topn_frequency(col, 3)`` has one.
    """

    name: str = ""
    value_args: int = 1   # leading per-row expression arguments
    extra_args: int = 0   # trailing constant arguments
    invertible: bool = False
    mergeable: bool = False
    order_sensitive: bool = False
    #: ``merge`` replays the exact operation sequence of continuing a
    #: serial fold (not just an algebraic equivalent).  Aggregates whose
    #: merge is an approximation under some inputs must clear this so
    #: the offline carry path excludes them.
    merge_exact: bool = True
    #: How the window fold reduces this aggregate over a single argument
    #: (``sql/compiler.py``): ``"sumcount"`` members share one (total,
    #: count) pair per argument, ``"multiset"`` members one set / Counter
    #: / pair of extremes, and ``"rows"`` walks the rows oldest → newest
    #: through :meth:`add`.  Order-sensitive and multi-argument
    #: aggregates always walk rows; every other registered aggregate
    #: must state its choice (lint rule AGG001).
    fold_family: str = "rows"

    def __init__(self, *constants: Any) -> None:
        if len(constants) != self.extra_args:
            raise CompileError(
                f"{self.name} expects {self.extra_args} constant "
                f"argument(s), got {len(constants)}")
        self.constants = constants

    def create(self) -> Any:
        """Return a fresh accumulator state."""
        raise NotImplementedError

    def add(self, state: Any, *values: Any) -> None:
        """Fold one row's argument values into ``state``."""
        raise NotImplementedError

    def remove(self, state: Any, *values: Any) -> None:
        """Subtract one row (subtract-and-evict); invertible only."""
        raise ExecutionError(f"{self.name} is not invertible")

    def merge(self, older: Any, newer: Any) -> Any:
        """Combine two partial states (offline carry); mergeable only."""
        raise ExecutionError(f"{self.name} is not mergeable")

    def result(self, state: Any) -> Any:
        """Extract the aggregate's value from ``state``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# standard aggregates


class CountAgg(AggregateFunction):
    """``count(x)`` — non-NULL count; invertible and mergeable."""

    name = "count"
    invertible = True
    mergeable = True
    fold_family = "sumcount"

    def create(self):
        return [0]

    def add(self, state, value):
        if value is not None:
            state[0] += 1

    def remove(self, state, value):
        if value is not None:
            state[0] -= 1

    def merge(self, older, newer):
        return [older[0] + newer[0]]

    def result(self, state):
        return state[0]


class SumAgg(AggregateFunction):
    """``sum(x)`` — NULL when the window holds no non-NULL value; the
    exact sum, rounded once (:class:`ExactSum`)."""

    name = "sum"
    invertible = True
    mergeable = True
    fold_family = "sumcount"

    def create(self):
        return ExactSum()

    def add(self, state, value):
        state.add(value)

    def remove(self, state, value):
        state.remove(value)

    def merge(self, older, newer):
        return older.merged(newer)

    def result(self, state):
        return state.total()


class AvgAgg(SumAgg):
    """``avg(x)`` — the exact sum, rounded once, over the non-NULL
    count."""

    name = "avg"

    def result(self, state):
        total = state.total()
        return None if total is None else total / state.count


class MinAgg(AggregateFunction):
    """MIN keeps a multiset so eviction under sliding windows stays exact.

    ``merge`` collapses to the extreme value: merged states never see
    eviction, so carrying the full multiset would only burn memory and
    time.
    """

    name = "min"
    invertible = True
    mergeable = True
    fold_family = "multiset"

    def create(self):
        return Counter()

    def add(self, state, value):
        if value is not None:
            state[value] += 1

    def remove(self, state, value):
        if value is not None:
            state[value] -= 1
            if state[value] <= 0:
                del state[value]

    def merge(self, older, newer):
        merged = Counter()
        candidates = [value for value in older] + [value for value in newer]
        if candidates:
            merged[self._extreme(candidates)] = 1
        return merged

    @staticmethod
    def _extreme(values):
        return min(values)

    def result(self, state):
        return min(state) if state else None


class MaxAgg(MinAgg):
    name = "max"

    @staticmethod
    def _extreme(values):
        return max(values)

    def result(self, state):
        return max(state) if state else None


class VarianceAgg(AggregateFunction):
    """Population variance via (count, sum, sum-of-squares) — fully
    invertible and mergeable, so it rides every optimisation path."""

    name = "variance"
    invertible = True
    mergeable = True
    fold_family = "rows"  # three float accumulators, no shared state

    def create(self):
        return [0, 0.0, 0.0]  # count, sum, sum of squares

    def add(self, state, value):
        if value is not None:
            state[0] += 1
            state[1] += value
            state[2] += value * value

    def remove(self, state, value):
        if value is not None:
            state[0] -= 1
            state[1] -= value
            state[2] -= value * value

    def merge(self, older, newer):
        return [older[0] + newer[0], older[1] + newer[1],
                older[2] + newer[2]]

    def result(self, state):
        count, total, squares = state
        if count == 0:
            return None
        mean = total / count
        return max(squares / count - mean * mean, 0.0)


class StddevAgg(VarianceAgg):
    """``stddev(x)`` — population standard deviation."""

    name = "stddev"

    def result(self, state):
        variance = super().result(state)
        return math.sqrt(variance) if variance is not None else None


class DistinctCountAgg(AggregateFunction):
    """``distinct_count(x)`` — number of distinct non-NULL values."""

    name = "distinct_count"
    invertible = True
    mergeable = True
    fold_family = "multiset"

    def create(self):
        return Counter()

    def add(self, state, value):
        if value is not None:
            state[value] += 1

    def remove(self, state, value):
        if value is not None:
            state[value] -= 1
            if state[value] <= 0:
                del state[value]

    def merge(self, older, newer):
        return older + newer

    def result(self, state):
        return len(state)


# ----------------------------------------------------------------------
# Table 1 extensions


class TopNFrequencyAgg(AggregateFunction):
    """``topn_frequency(col, n)`` — top-N keys by occurrence count.

    Returns a comma-joined string of keys, most frequent first, ties broken
    by key order for determinism (matching OpenMLDB's stable output).
    """

    name = "topn_frequency"
    extra_args = 1
    invertible = True
    mergeable = True
    fold_family = "multiset"

    def create(self):
        return Counter()

    def add(self, state, value):
        if value is not None:
            state[str(value)] += 1

    def remove(self, state, value):
        if value is not None:
            key = str(value)
            state[key] -= 1
            if state[key] <= 0:
                del state[key]

    def merge(self, older, newer):
        return older + newer

    def result(self, state):
        top_n = int(self.constants[0])
        ranked = sorted(state.items(), key=lambda item: (-item[1], item[0]))
        return ",".join(key for key, _count in ranked[:top_n])


class AvgCateWhereAgg(AggregateFunction):
    """``avg_cate_where(value, condition, category)`` (Table 1).

    Averages ``value`` over rows passing ``condition``, grouped by the
    ``category`` key; emits ``"cate1:avg,cate2:avg"`` sorted by category.
    """

    name = "avg_cate_where"
    value_args = 3
    invertible = True
    mergeable = True

    def create(self):
        return {}

    def add(self, state, value, condition, category):
        if value is None or category is None or not condition:
            return
        total, count = state.get(category, (0.0, 0))
        state[category] = (total + value, count + 1)

    def remove(self, state, value, condition, category):
        if value is None or category is None or not condition:
            return
        total, count = state.get(category, (0.0, 0))
        count -= 1
        if count <= 0:
            state.pop(category, None)
        else:
            state[category] = (total - value, count)

    def merge(self, older, newer):
        merged = dict(older)
        for category, (total, count) in newer.items():
            base_total, base_count = merged.get(category, (0.0, 0))
            merged[category] = (base_total + total, base_count + count)
        return merged

    def result(self, state):
        parts = [
            f"{category}:{total / count:g}"
            for category, (total, count) in sorted(state.items())
        ]
        return ",".join(parts)


class _CateAggBase(AggregateFunction):
    """Shared shell for ``<agg>_cate(value, category)`` aggregates.

    Groups values by category key and emits ``"cate1:value,cate2:value"``
    sorted by category — the unconditional siblings of ``avg_cate_where``.
    """

    value_args = 2
    invertible = True
    mergeable = True

    def create(self):
        return {}

    def add(self, state, value, category):
        if value is None or category is None:
            return
        total, count = state.get(category, (0.0, 0))
        state[category] = (total + value, count + 1)

    def remove(self, state, value, category):
        if value is None or category is None:
            return
        total, count = state.get(category, (0.0, 0))
        count -= 1
        if count <= 0:
            state.pop(category, None)
        else:
            state[category] = (total - value, count)

    def merge(self, older, newer):
        merged = dict(older)
        for category, (total, count) in newer.items():
            base_total, base_count = merged.get(category, (0.0, 0))
            merged[category] = (base_total + total, base_count + count)
        return merged

    def _value_of(self, total: float, count: int):
        raise NotImplementedError

    def result(self, state):
        return ",".join(
            f"{category}:{self._value_of(total, count):g}"
            for category, (total, count) in sorted(state.items()))


class SumCateAgg(_CateAggBase):
    """``sum_cate(v, cate)`` — per-category sums, ``"a:1,b:2"``."""

    name = "sum_cate"

    def _value_of(self, total, count):
        return total


class CountCateAgg(_CateAggBase):
    """``count_cate(v, cate)`` — per-category counts."""

    name = "count_cate"

    def _value_of(self, total, count):
        return count


class AvgCateAgg(_CateAggBase):
    """``avg_cate(v, cate)`` — per-category averages."""

    name = "avg_cate"

    def _value_of(self, total, count):
        return total / count


class _WhereAggBase(AggregateFunction):
    """Shared shell for ``<agg>_where(value, condition)`` aggregates."""

    value_args = 2
    inner_factory: Callable[[], AggregateFunction]

    def __init__(self, *constants):
        super().__init__(*constants)
        self._inner = self.inner_factory()

    def create(self):
        return self._inner.create()

    def add(self, state, value, condition):
        if condition:
            self._inner.add(state, value)

    def remove(self, state, value, condition):
        if condition:
            self._inner.remove(state, value)

    def merge(self, older, newer):
        return self._inner.merge(older, newer)

    def result(self, state):
        return self._inner.result(state)


class SumWhereAgg(_WhereAggBase):
    """``sum_where(v, cond)`` — sum over rows passing the condition."""

    name = "sum_where"
    invertible = True
    mergeable = True
    inner_factory = SumAgg


class CountWhereAgg(_WhereAggBase):
    """``count_where(v, cond)`` — count of rows passing the condition."""

    name = "count_where"
    invertible = True
    mergeable = True
    inner_factory = CountAgg


class AvgWhereAgg(_WhereAggBase):
    """``avg_where(v, cond)`` — average over rows passing the condition."""

    name = "avg_where"
    invertible = True
    mergeable = True
    inner_factory = AvgAgg


class MinWhereAgg(_WhereAggBase):
    """``min_where(v, cond)`` — minimum over rows passing the condition."""

    name = "min_where"
    invertible = True
    mergeable = True
    inner_factory = MinAgg


class MaxWhereAgg(_WhereAggBase):
    """``max_where(v, cond)`` — maximum over rows passing the condition."""

    name = "max_where"
    invertible = True
    mergeable = True
    inner_factory = MaxAgg


class DrawdownAgg(AggregateFunction):
    """``drawdown(col)`` — max decline fraction from a peak to a later trough.

    Order-sensitive but *associative over time segments*: the state
    ``(peak, trough, max_drawdown)`` of two consecutive segments merges as
    ``max(dd_a, dd_b, (peak_older − trough_newer) / peak_older)``.
    """

    name = "drawdown"
    order_sensitive = True
    mergeable = True
    # The segment merge is exact only for positive series: a segment's
    # standalone drawdown uses its *internal* peak, which a larger
    # carried-in peak would supersede — with negative troughs the ratio
    # overestimates (e.g. [5, -10] alone gives 3.0, continued from peak
    # 20 gives 1.5), so the carry path must not use it.
    merge_exact = False

    def create(self):
        # running peak, global max, global min, max drawdown
        return [None, None, None, 0.0]

    def add(self, state, value):
        if value is None:
            return
        peak, high, low, max_dd = state
        if peak is None or value > peak:
            peak = value
        elif peak > 0:
            max_dd = max(max_dd, (peak - value) / peak)
        high = value if high is None else max(high, value)
        low = value if low is None else min(low, value)
        state[0], state[1], state[2], state[3] = peak, high, low, max_dd

    def merge(self, older, newer):
        if older[1] is None:
            return list(newer)
        if newer[1] is None:
            return list(older)
        cross = 0.0
        if older[1] > 0 and newer[2] is not None:
            cross = max(0.0, (older[1] - newer[2]) / older[1])
        return [
            max(older[0], newer[0]),
            max(older[1], newer[1]),
            min(older[2], newer[2]),
            max(older[3], newer[3], cross),
        ]

    def result(self, state):
        return state[3] if state[1] is not None else None


class EwAvgAgg(AggregateFunction):
    """``ew_avg(col, alpha)`` — exponentially weighted average.

    The newest value gets weight 1, the next ``(1 − alpha)``, then
    ``(1 − alpha)²`` and so on.  Inherently order-sensitive: it relies on
    the storage layer's timestamp ordering (Section 7.2) and folds rows,
    never summaries.
    """

    name = "ew_avg"
    extra_args = 1
    order_sensitive = True
    # Decaying an older segment under a newer one needs ``decay ** n``,
    # which re-associates float rounding: no bit-exact merge exists.
    mergeable = False

    def __init__(self, *constants):
        super().__init__(*constants)
        alpha = float(constants[0])
        if not 0.0 < alpha <= 1.0:
            raise CompileError("ew_avg smoothing factor must be in (0, 1]")
        self._decay = 1.0 - alpha

    def create(self):
        # weighted sum, weight sum — rebuilt oldest→newest, so each add
        # decays the running totals then gives the new value weight 1.
        return [0.0, 0.0]

    def add(self, state, value):
        if value is None:
            return
        state[0] = state[0] * self._decay + value
        state[1] = state[1] * self._decay + 1.0

    def result(self, state):
        return state[0] / state[1] if state[1] else None


class LagAgg(AggregateFunction):
    """``lag(col, n)`` — value n rows before the newest (0 = newest).

    Only the newest ``n + 1`` values can ever be the answer, so a state
    is its own reachable tail and ``merge`` is concatenation re-capped —
    exact by construction.
    """

    name = "lag"
    extra_args = 1
    order_sensitive = True
    mergeable = True

    def __init__(self, *constants):
        super().__init__(*constants)
        self._offset = int(constants[0])
        self._cap = max(self._offset + 1, 1)

    def create(self):
        return []

    def add(self, state, value):
        state.append(value)
        if len(state) > self._cap * 2:
            del state[:-self._cap]

    def merge(self, older, newer):
        return (older + newer)[-self._cap:]

    def result(self, state):
        offset = self._offset
        if offset < 0 or offset >= len(state):
            return None
        return state[len(state) - 1 - offset]


_AGGREGATE_CLASSES = {
    cls.name: cls for cls in (
        CountAgg, SumAgg, AvgAgg, MinAgg, MaxAgg, DistinctCountAgg,
        TopNFrequencyAgg, AvgCateWhereAgg, SumWhereAgg, CountWhereAgg,
        AvgWhereAgg, MinWhereAgg, MaxWhereAgg, DrawdownAgg, EwAvgAgg,
        LagAgg, VarianceAgg, StddevAgg, SumCateAgg, CountCateAgg,
        AvgCateAgg,
    )
}

AGGREGATES = frozenset(_AGGREGATE_CLASSES)


def is_aggregate(name: str) -> bool:
    """True if ``name`` is a registered aggregate function."""
    return name.lower() in _AGGREGATE_CLASSES


def aggregate_class(name: str) -> type:
    """The registered class of aggregate ``name`` (its declarations)."""
    try:
        return _AGGREGATE_CLASSES[name.lower()]
    except KeyError:
        raise CompileError(f"unknown aggregate function: {name!r}") from None


def aggregate_arity(name: str) -> Tuple[int, int]:
    """Return ``(value_args, extra_args)`` for aggregate ``name``."""
    cls = aggregate_class(name)
    return cls.value_args, cls.extra_args


def get_aggregate(name: str, *constants: Any) -> AggregateFunction:
    """Instantiate an aggregate by name with its constant arguments."""
    return aggregate_class(name)(*constants)


# ----------------------------------------------------------------------
# scalar functions


def _split_by_key(text: Optional[str], delimiter: str,
                  kv_delimiter: str) -> Optional[str]:
    """Table 1's ``split_by_key``: extract keys from a serialised kv list.

    ``split_by_key("a:1,b:2", ",", ":")`` → ``"a,b"``.
    """
    if text is None:
        return None
    keys = []
    for segment in text.split(delimiter):
        if kv_delimiter in segment:
            keys.append(segment.split(kv_delimiter, 1)[0])
    return ",".join(keys)


def _split_by_value(text: Optional[str], delimiter: str,
                    kv_delimiter: str) -> Optional[str]:
    if text is None:
        return None
    values = []
    for segment in text.split(delimiter):
        if kv_delimiter in segment:
            values.append(segment.split(kv_delimiter, 1)[1])
    return ",".join(values)


def _null_guard(fn: Callable) -> Callable:
    """Wrap a scalar so any NULL argument yields NULL (SQL semantics)."""

    def wrapper(*args):
        if any(arg is None for arg in args):
            return None
        return fn(*args)

    return wrapper


def _substr(text: str, start: int, length: Optional[int] = None) -> str:
    # SQL substr is 1-based.
    begin = max(start - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin:begin + max(length, 0)]


SCALARS: Dict[str, Callable] = {
    "abs": _null_guard(abs),
    "ceil": _null_guard(math.ceil),
    "floor": _null_guard(math.floor),
    "round": _null_guard(round),
    "sqrt": _null_guard(math.sqrt),
    "pow": _null_guard(math.pow),
    "log": _null_guard(math.log),
    "exp": _null_guard(math.exp),
    "upper": _null_guard(str.upper),
    "lower": _null_guard(str.lower),
    "length": _null_guard(len),
    "concat": _null_guard(lambda *parts: "".join(str(p) for p in parts)),
    "substr": _null_guard(_substr),
    "split_by_key": _null_guard(_split_by_key),
    "split_by_value": _null_guard(_split_by_value),
    "ifnull": lambda value, default: default if value is None else value,
    "coalesce": lambda *args: next(
        (arg for arg in args if arg is not None), None),
    "int": _null_guard(int),
    "double": _null_guard(float),
    "string": _null_guard(str),
    "log2": _null_guard(math.log2),
    "log10": _null_guard(math.log10),
    "truncate": _null_guard(math.trunc),
    "reverse": _null_guard(lambda text: text[::-1]),
    "char_length": _null_guard(len),
    "strcmp": _null_guard(
        lambda a, b: 0 if a == b else (-1 if a < b else 1)),
    "hour": _null_guard(lambda ts_ms: (ts_ms // 3_600_000) % 24),
    "minute": _null_guard(lambda ts_ms: (ts_ms // 60_000) % 60),
    "second": _null_guard(lambda ts_ms: (ts_ms // 1_000) % 60),
    "dayofweek": _null_guard(
        lambda ts_ms: int((ts_ms // 86_400_000 + 4) % 7) + 1),
}


def get_scalar(name: str) -> Callable:
    """Look up a scalar function by (case-insensitive) name."""
    try:
        return SCALARS[name.lower()]
    except KeyError:
        raise CompileError(f"unknown scalar function: {name!r}") from None
