"""External-sort shuffle with spill-to-disk runs (paper Section 6).

The offline engine's shuffle step orders every window-source event by
``(partition key, ts)`` so tasks can be cut from contiguous groups.  At
GLQ/TalkingData scale that ordering no longer fits in memory, so this
module implements the classic external sort the paper's batch engine
inherits from Spark:

1. events accumulate in an in-memory buffer until a configured byte
   budget is hit;
2. the buffer is sorted and written out as one **run** (a temp file of
   pickled ``(sort_key, payload)`` records — the engine's sort key
   already says where a row came from and when, so the payload is just
   the row in its table's compact ``RowCodec`` bytes, the encoding the
   binlog and snapshots persist);
3. iteration k-way-merges the sorted runs with ``heapq.merge``, so the
   engine streams groups in order while holding only one buffer plus
   one record per run.

Spill activity is observable: :class:`ExternalSorter` counts runs,
spilled rows and bytes, which the engine surfaces as the
``offline.shuffle.*`` metrics and in ``OfflineStats.shuffle``.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import pickle
import tempfile
from operator import itemgetter
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import ExecutionError

__all__ = ["SpillConfig", "ExternalSorter"]


@dataclasses.dataclass(frozen=True)
class SpillConfig:
    """Shuffle memory budget.

    ``memory_budget_bytes`` bounds the in-memory sort buffer (counting
    encoded record payloads plus a small per-record overhead); when the
    working set exceeds it, sorted runs spill to ``tmp_dir`` (the
    system temp directory by default).
    """

    memory_budget_bytes: int = 16 * 1024 * 1024
    tmp_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.memory_budget_bytes <= 0:
            raise ExecutionError("shuffle memory budget must be positive")


# Accounting overhead per buffered record: the sort-key tuple and list
# slot cost something even though only payload bytes are precise.
_RECORD_OVERHEAD = 64

_Record = Tuple[Tuple[Any, ...], bytes]


class ExternalSorter:
    """Budget-bounded sorter over ``(sort_key, payload)`` records.

    Records are added in any order; :meth:`sorted_records` streams them
    back ordered by ``sort_key``.  Keys must be comparable tuples and
    picklable (the engine uses ``(str(key), pickled key, ts, tie...)``,
    which both totally orders groups and keeps equal keys contiguous).
    """

    def __init__(self, config: SpillConfig = SpillConfig()) -> None:
        self.config = config
        self._buffer: List[_Record] = []
        self._buffer_bytes = 0
        self._run_paths: List[str] = []
        self._drained = False
        # Observability counters, read by the engine after the merge.
        self.rows = 0
        self.runs = 0
        self.spilled_rows = 0
        self.spilled_bytes = 0

    # ------------------------------------------------------------------

    def add(self, sort_key: Tuple[Any, ...], payload: bytes) -> None:
        if self._drained:
            raise ExecutionError("sorter already drained")
        self._buffer.append((sort_key, payload))
        self._buffer_bytes += len(payload) + _RECORD_OVERHEAD
        self.rows += 1
        if self._buffer_bytes >= self.config.memory_budget_bytes:
            self._spill_run()

    def _spill_run(self) -> None:
        if not self._buffer:
            return
        self._buffer.sort(key=itemgetter(0))
        handle = tempfile.NamedTemporaryFile(
            mode="wb", delete=False, prefix="repro-shuffle-",
            suffix=".run", dir=self.config.tmp_dir)
        try:
            with handle:
                for record in self._buffer:
                    pickle.dump(record, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
            self._run_paths.append(handle.name)
        except BaseException:
            os.unlink(handle.name)
            raise
        self.runs += 1
        self.spilled_rows += len(self._buffer)
        self.spilled_bytes += sum(len(payload)
                                  for _key, payload in self._buffer)
        self._buffer = []
        self._buffer_bytes = 0

    @staticmethod
    def _read_run(path: str) -> Iterator[_Record]:
        with open(path, "rb") as handle:
            while True:
                try:
                    yield pickle.load(handle)
                except EOFError:
                    return

    def sorted_records(self) -> Iterator[_Record]:
        """Stream all records in ``sort_key`` order; single use."""
        if self._drained:
            raise ExecutionError("sorter already drained")
        self._drained = True
        self._buffer.sort(key=itemgetter(0))
        buffer, self._buffer = self._buffer, []
        self._buffer_bytes = 0
        try:
            if not self._run_paths:
                yield from buffer
                return
            streams = [self._read_run(path) for path in self._run_paths]
            yield from heapq.merge(*streams, iter(buffer),
                                   key=itemgetter(0))
        finally:
            self.close()

    def close(self) -> None:
        """Delete any remaining run files."""
        for path in self._run_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._run_paths = []
