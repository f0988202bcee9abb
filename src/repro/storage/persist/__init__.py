"""repro.storage.persist — durability: WAL, snapshots, crash recovery.

The persistence subsystem behind the paper's binlog + snapshot scheme
(Sections 5 and 7.3):

* :class:`FileBinlog` — segmented, CRC-framed, fsync-batched
  write-ahead binlog with offset-addressed replay;
* :class:`SnapshotStore` — atomic (write-temp + rename), retained,
  checksummed per-table snapshot images pinned to a binlog offset;
* :class:`RecoveryReport` — what a restart rebuilt and what it cost.

A crashed tablet recovers by loading its newest snapshots and replaying
the binlog frames past each snapshot's ``applied_offset`` — see
:meth:`repro.cluster.NameServer.restart_tablet`, which a single node's
``OpenMLDB.recover`` also is.
"""

from .recovery import RecoveryReport
from .snapshot import Snapshot, SnapshotStore
from .wal import FRAME_CONTROL, FRAME_ROW, FileBinlog, WalFrame

__all__ = [
    "FileBinlog", "WalFrame", "FRAME_ROW", "FRAME_CONTROL",
    "Snapshot", "SnapshotStore", "RecoveryReport",
]
