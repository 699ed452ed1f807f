"""Durable chain storage: WAL, snapshots, and crash recovery.

The durability contract, end to end:

* every committed block is appended to an append-only, CRC-framed
  write-ahead log, its header sealed with the post-state Merkle root —
  the one commitment the store carries
  (:mod:`repro.storage.wal`, :mod:`repro.storage.codec`);
* every ``snapshot_interval_blocks`` the full world state is written
  atomically as a recovery anchor (:mod:`repro.storage.snapshot`);
* :func:`recover` rebuilds a live node by replaying the WAL suffix from
  the newest usable anchor through the real execution pipeline,
  asserting bit-identical sealed state roots block by block;
* torn tails are truncated and counted, mid-log corruption and payloads
  in any format but the current one are typed refusals, and
  ``repro verify-store`` audits a directory offline.
"""

from .config import (
    FSYNC_ALWAYS,
    FSYNC_INTERVAL,
    FSYNC_NEVER,
    FSYNC_POLICIES,
    StorageConfig,
)
from .errors import (
    AppendFailedError,
    CorruptSnapshotError,
    CorruptWalError,
    RecoveryError,
    StorageError,
    StoreLockedError,
    UnsupportedFormatError,
)
from .recovery import (
    RecoveryResult,
    StoreReport,
    attach,
    has_store,
    recover,
    verify_store,
)
from .store import ChainStore
from .tail import WalTailReader

__all__ = [
    "FSYNC_ALWAYS",
    "FSYNC_INTERVAL",
    "FSYNC_NEVER",
    "FSYNC_POLICIES",
    "AppendFailedError",
    "ChainStore",
    "CorruptSnapshotError",
    "CorruptWalError",
    "RecoveryError",
    "RecoveryResult",
    "StorageConfig",
    "StorageError",
    "StoreLockedError",
    "StoreReport",
    "UnsupportedFormatError",
    "WalTailReader",
    "attach",
    "has_store",
    "recover",
    "verify_store",
]
