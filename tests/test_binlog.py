"""Tests for the binlog replicator (paper Section 5.1)."""

import threading

import pytest

from repro.errors import StorageError
from repro.online.binlog import BinlogEntry, Replicator


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
        replayed = replicator.entries_from(6)
        assert len(replayed) == 4
        assert [entry.row for entry in replayed] == [(6,), (7,), (8,), (9,)]
        replicator.close()

    def test_replay_recovers_aggregator_state(self):
        """The failure-recovery scenario: rebuild a consumer from the log."""
        replicator = Replicator()
        totals = [0]

        def consume(entry):
            totals[0] += entry.row[0]

        for value in (1, 2, 3):
            offset = replicator.append_entry("t", (value,))
            consume(replicator.entries_from(offset)[0])
        assert totals[0] == 6
        # "Crash": new consumer replays everything.
        recovered = [0]
        for entry in replicator.entries_from(0):
            recovered[0] += entry.row[0]
        assert recovered[0] == 6
        replicator.close()

    def test_entries_from_stops_before_stop(self):
        replicator = Replicator()
        rows = [(i,) for i in range(8)]
        for row in rows:
            replicator.append_entry("t", row)
        assert replicator.entries_from(2, 5) == [
            BinlogEntry(offset, "t", rows[offset])
            for offset in (2, 3, 4)]
        assert replicator.entries_from(3, 3) == []
        assert replicator.entries_from(6, 99) \
            == replicator.entries_from(6)
        assert replicator.entries_from(9) == []
        replicator.close()

    def test_a_binlog_holds_one_table(self):
        replicator = Replicator()
        replicator.append_entry("a", (1,))
        with pytest.raises(StorageError, match="binlog of 'a'"):
            replicator.append_entry("b", (2,))
        assert replicator.entries_from(0) == [BinlogEntry(0, "a", (1,))]
        replicator.close()
        replicator.close()

    def test_entries_from_snapshot(self):
        replicator = Replicator()
        replicator.append_entry("t", (1,))
        entries = replicator.entries_from(0)
        replicator.append_entry("t", (2,))
        assert len(entries) == 1  # snapshot, not a live view
        replicator.close()
