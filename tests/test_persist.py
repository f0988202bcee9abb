"""Tests for the durability substrate (paper Section 5 / 7.3).

Covers the three pieces of ``repro.storage.persist`` in isolation —
the segmented CRC-framed WAL, the atomic retained snapshot store —
plus the :class:`~repro.online.binlog.Replicator`'s write-through and
restore wiring on top of them.
"""

import os

import pytest

from repro import OpenMLDB
from repro.errors import StorageError
from repro.obs import Observability
from repro.online.binlog import Replicator
from repro.schema import IndexDef, Schema
from repro.storage.encoding import RowCodec
from repro.storage.persist import (FRAME_CONTROL, FileBinlog, SnapshotStore)


@pytest.fixture
def schema():
    return Schema.from_pairs([
        ("key", "string"), ("ts", "timestamp"), ("v", "double")])


@pytest.fixture
def codec(schema):
    return RowCodec(schema)


def payloads(codec, count, start=0):
    return [codec.encode(codec.schema.validate_row((f"k{i % 3}", i, float(i))))
            for i in range(start, start + count)]


class TestFileBinlog:
    def test_append_replay_round_trip(self, tmp_path, codec):
        wal = FileBinlog(str(tmp_path))
        rows = payloads(codec, 10)
        for offset, payload in enumerate(rows):
            wal.append(offset, "t", payload)
        frames = list(wal.replay(0))
        assert [f.offset for f in frames] == list(range(10))
        assert all(f.is_row and f.table == "t" for f in frames)
        assert [f.payload for f in frames] == rows
        wal.close()

    def test_replay_from_offset(self, tmp_path, codec):
        wal = FileBinlog(str(tmp_path))
        for offset, payload in enumerate(payloads(codec, 10)):
            wal.append(offset, "t", payload)
        assert [f.offset for f in wal.replay(7)] == [7, 8, 9]
        wal.close()

    def test_segment_rotation(self, tmp_path, codec):
        # Tiny segments: every frame exceeds the budget, so the log
        # rotates per append and replay must stitch segments together.
        wal = FileBinlog(str(tmp_path), segment_bytes=64)
        for offset, payload in enumerate(payloads(codec, 8)):
            wal.append(offset, "t", payload)
        assert len(wal.segments()) > 1
        assert [f.offset for f in wal.replay(0)] == list(range(8))
        # Offset-addressed replay skips whole early segments but still
        # yields every frame at/past the target.
        assert [f.offset for f in wal.replay(5)] == [5, 6, 7]
        wal.close()

    def test_reopen_restores_last_offset(self, tmp_path, codec):
        wal = FileBinlog(str(tmp_path), segment_bytes=128)
        for offset, payload in enumerate(payloads(codec, 12)):
            wal.append(offset, "t", payload)
        wal.close()
        reopened = FileBinlog(str(tmp_path), segment_bytes=128)
        assert reopened.last_offset == 11
        assert reopened.synced_offset == 11
        # Appends continue into the existing log without losing history.
        reopened.append(12, "t", payloads(codec, 1, start=12)[0])
        assert [f.offset for f in reopened.replay(10)] == [10, 11, 12]
        reopened.close()

    def test_torn_tail_stops_replay(self, tmp_path, codec):
        wal = FileBinlog(str(tmp_path))
        for offset, payload in enumerate(payloads(codec, 5)):
            wal.append(offset, "t", payload)
        wal.close()
        segment = wal.segments()[-1]
        with open(segment, "ab") as handle:  # torn partial frame
            handle.write(b"\x07garbage")
        reopened = FileBinlog(str(tmp_path))
        assert [f.offset for f in reopened.replay(0)] == list(range(5))
        reopened.close()

    def test_corrupt_frame_truncates_replay(self, tmp_path, codec):
        wal = FileBinlog(str(tmp_path))
        for offset, payload in enumerate(payloads(codec, 5)):
            wal.append(offset, "t", payload)
        wal.close()
        segment = wal.segments()[-1]
        data = bytearray(open(segment, "rb").read())
        data[len(data) // 2] ^= 0xFF  # flip a bit mid-log
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        reopened = FileBinlog(str(tmp_path))
        frames = list(reopened.replay(0))
        # Replay keeps the intact prefix and stops at the bad frame.
        assert len(frames) < 5
        assert [f.offset for f in frames] == list(range(len(frames)))
        reopened.close()

    def test_fsync_batching(self, tmp_path, codec):
        obs = Observability()
        wal = FileBinlog(str(tmp_path), fsync_every=4, obs=obs)
        for offset, payload in enumerate(payloads(codec, 10)):
            wal.append(offset, "t", payload)
        # 10 appends at fsync_every=4 -> 2 batch syncs; the tail is
        # unsynced until an explicit barrier.
        assert obs.registry.get("storage.binlog.syncs").value == 2
        assert wal.synced_offset == 7
        wal.sync()
        assert wal.synced_offset == 9
        assert obs.registry.get("storage.binlog.appends").value == 10
        wal.close()

    def test_control_frames(self, tmp_path):
        wal = FileBinlog(str(tmp_path))
        wal.append(0, "t", b"row-bytes")
        wal.append(0, "t", b"flush", kind=FRAME_CONTROL)
        frames = list(wal.replay(0))
        assert [f.kind for f in frames] == [0, FRAME_CONTROL]
        assert frames[1].control_text() == "flush"
        assert not frames[1].is_row
        wal.close()

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(StorageError):
            FileBinlog(str(tmp_path), segment_bytes=0)
        with pytest.raises(StorageError):
            FileBinlog(str(tmp_path), fsync_every=0)


class TestSnapshotStore:
    def test_write_load_round_trip(self, tmp_path, codec):
        store = SnapshotStore(str(tmp_path))
        rows = payloads(codec, 6)
        store.write("t", rows, applied_offset=5,
                    manifest={"flushes": 2})
        snapshot = store.load_latest("t")
        assert snapshot is not None
        assert snapshot.applied_offset == 5
        assert snapshot.rows == rows
        assert snapshot.manifest == {"flushes": 2}
        assert [codec.decode(p) for p in snapshot.rows] \
            == [codec.decode(p) for p in rows]

    def test_load_missing_returns_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.load_latest("nope") is None

    def test_newest_snapshot_wins(self, tmp_path, codec):
        store = SnapshotStore(str(tmp_path))
        store.write("t", payloads(codec, 2), applied_offset=1)
        store.write("t", payloads(codec, 5), applied_offset=4)
        snapshot = store.load_latest("t")
        assert snapshot.applied_offset == 4
        assert len(snapshot.rows) == 5

    def test_retention_prunes_old_images(self, tmp_path, codec):
        store = SnapshotStore(str(tmp_path))
        for offset in (1, 3, 5, 7):
            store.write("t", payloads(codec, offset + 1),
                        applied_offset=offset)
        images = [name for name in os.listdir(str(tmp_path))
                  if name.endswith(".snap")]
        assert len(images) == 2
        assert store.load_latest("t").applied_offset == 7

    def test_corrupt_image_falls_back_to_older(self, tmp_path, codec):
        store = SnapshotStore(str(tmp_path))
        store.write("t", payloads(codec, 3), applied_offset=2)
        newest = store.write("t", payloads(codec, 6), applied_offset=5)
        data = bytearray(open(newest, "rb").read())
        data[-1] ^= 0xFF  # break the CRC
        with open(newest, "wb") as handle:
            handle.write(bytes(data))
        snapshot = store.load_latest("t")
        assert snapshot is not None
        assert snapshot.applied_offset == 2  # older intact image

    def test_no_temp_files_left_behind(self, tmp_path, codec):
        store = SnapshotStore(str(tmp_path))
        store.write("t", payloads(codec, 3), applied_offset=2)
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp")]

    def test_snapshots_namespaced_by_table(self, tmp_path, codec):
        store = SnapshotStore(str(tmp_path))
        store.write("alpha", payloads(codec, 1), applied_offset=0)
        store.write("beta", payloads(codec, 2), applied_offset=1)
        assert len(store.load_latest("alpha").rows) == 1
        assert len(store.load_latest("beta").rows) == 2


class TestReplicatorDurability:
    def test_wal_write_through_and_restore(self, tmp_path, schema, codec):
        wal = FileBinlog(str(tmp_path))
        replicator = Replicator("t", codec, wal)
        rows = [("k0", 1, 1.0), ("k1", 2, 2.0), ("k0", 3, 3.0)]
        for row in rows:
            replicator.append_entry("t", row)
        replicator.close()

        rebuilt = Replicator("t", codec, FileBinlog(str(tmp_path)))
        assert rebuilt.restore() == 3
        assert rebuilt.rows_from(0) == rows
        # New appends continue the offset sequence past the restore.
        assert rebuilt.append_entry("t", ("k2", 4, 4.0)) == 3
        rebuilt.close()

    def test_restore_requires_empty_binlog(self, tmp_path, codec):
        wal = FileBinlog(str(tmp_path))
        replicator = Replicator("t", codec, wal)
        replicator.append_entry("t", ("k0", 1, 1.0))
        with pytest.raises(StorageError, match="empty"):
            replicator.restore()
        replicator.close()

    def test_close_without_wal_is_clean(self):
        replicator = Replicator()
        replicator.append_entry("t", ("k0", 1, 1.0))
        seen = replicator.rows_from(0)
        replicator.close()
        assert seen == [("k0", 1, 1.0)]


class TestSingleNodeBinlog:
    """What one node's binlogs hand out, over two tables written
    interleaved — one binlog per table: the same entries before and
    after snapshot / recover, and a table rebuild from its own
    binlog."""

    SCHEMA = Schema.from_pairs([
        ("key", "string"), ("ts", "timestamp"), ("v", "double")])
    INDEX = IndexDef(("key",), "ts")

    def node(self, data_dir):
        db = OpenMLDB(data_dir=str(data_dir))
        db.create_table("a", self.SCHEMA, [self.INDEX])
        db.create_table("b", self.SCHEMA, [self.INDEX], storage="disk")
        return db

    @staticmethod
    def binlog(db, table):
        return db.cluster.table_info(table).binlogs[0]

    @staticmethod
    def write(db, start, count):
        for index in range(start, start + count):
            db.insert("ab"[index % 3 == 0], (f"k{index % 4}", index,
                                              float(index) / 4))

    def recorded(self, db, starts):
        return {(table, k): self.binlog(db, table).rows_from(k)
                for table in "ab" for k in starts}

    def test_entries_survive_snapshot_and_recover(self, tmp_path):
        db = self.node(tmp_path)
        self.write(db, 0, 20)
        db.snapshot()
        self.write(db, 20, 10)
        starts = (0, 1, 7, 9, 10, 19, 20, 29, 30)
        recorded = self.recorded(db, starts)
        assert len(recorded[("a", 0)]) == 20
        assert len(recorded[("b", 0)]) == 10
        assert (self.binlog(db, "a").table,
                self.binlog(db, "b").table) == ("a", "b")
        db.snapshot()
        assert self.recorded(db, starts) == recorded
        db.close()
        fresh = self.node(tmp_path)
        fresh.recover()
        assert self.recorded(fresh, starts) == recorded
        fresh.close()

    def test_recover_replays_each_table_its_own_rows_in_offset_order(
            self, tmp_path):
        db = self.node(tmp_path)
        self.write(db, 0, 24)
        want = self.binlog(db, "a").rows_from(0)
        b_rows = list(db.table("b").rows())
        assert len(want) == 16
        assert db.recover().replayed_entries == 24
        assert list(db.table("a").rows()) == want
        assert list(db.table("b").rows()) == b_rows
        db.close()

    def test_restore_skips_control_frames(self, tmp_path):
        db = self.node(tmp_path)
        self.write(db, 0, 9)
        db.table("b").flush()
        self.write(db, 9, 9)
        db.table("b").flush()
        db.table("b").compact(0)
        self.write(db, 18, 3)
        recorded = self.recorded(db, (0,))
        db.close()
        fresh = self.node(tmp_path)
        controls = {table: sum(not frame.is_row for frame in
                               self.binlog(fresh, table).wal.replay(0))
                    for table in "ab"}
        assert controls == {"a": 0, "b": 3}
        assert len(recorded[("a", 0)]) + len(recorded[("b", 0)]) == 21
        assert self.recorded(fresh, (0,)) == recorded
        fresh.close()
