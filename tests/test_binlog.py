"""Tests for the binlog replicator (paper Section 5.1)."""

import threading

import pytest

from repro.errors import StorageError
from repro.online.binlog import Replicator


class TestOffsets:
    def test_monotone_offsets(self):
        replicator = Replicator()
        offsets = [replicator.append_entry("t", (i,)) for i in range(10)]
        assert offsets == list(range(10))
        assert replicator.last_offset == 9
        replicator.close()

    def test_concurrent_appends_unique_offsets(self):
        replicator = Replicator()
        seen = []
        lock = threading.Lock()

        def worker():
            for i in range(100):
                offset = replicator.append_entry("t", (i,))
                with lock:
                    seen.append(offset)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(seen) == list(range(400))
        replicator.close()


class TestReplay:
    def test_replay_from_offset(self):
        replicator = Replicator()
        for i in range(10):
            replicator.append_entry("t", (i,))
        replayed = replicator.rows_from(6)
        assert replayed == [(6,), (7,), (8,), (9,)]
        replicator.close()

    def test_replay_recovers_aggregator_state(self):
        """The failure-recovery scenario: rebuild a consumer from the log."""
        replicator = Replicator()
        totals = [0]

        def consume(row):
            totals[0] += row[0]

        for value in (1, 2, 3):
            offset = replicator.append_entry("t", (value,))
            consume(replicator.rows_from(offset)[0])
        assert totals[0] == 6
        # "Crash": new consumer replays everything.
        recovered = [0]
        for row in replicator.rows_from(0):
            recovered[0] += row[0]
        assert recovered[0] == 6
        replicator.close()

    def test_entries_from_stops_before_stop(self):
        replicator = Replicator()
        rows = [(i,) for i in range(8)]
        for row in rows:
            replicator.append_entry("t", row)
        assert replicator.rows_from(2) == rows[2:]
        assert replicator.rows_from(8) == []
        assert replicator.rows_from(9) == []
        replicator.close()

    def test_a_binlog_holds_one_table(self):
        replicator = Replicator()
        replicator.append_entry("a", (1,))
        with pytest.raises(StorageError, match="binlog of 'a'"):
            replicator.append_entry("b", (2,))
        assert replicator.table == "a"
        assert replicator.rows_from(0) == [(1,)]
        replicator.close()
        replicator.close()

    def test_entries_from_snapshot(self):
        replicator = Replicator()
        replicator.append_entry("t", (1,))
        rows = replicator.rows_from(0)
        replicator.append_entry("t", (2,))
        assert len(rows) == 1  # snapshot, not a live view
        replicator.close()
