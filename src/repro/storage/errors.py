"""Typed storage-layer errors.

Every durability failure the layer can *detect* gets its own type so
callers (recovery, ``repro verify-store``, the serve loop) can react
distinctly: tail corruption is truncated and survived, mid-log
corruption is fatal for the suffix, and a replay divergence means the
store and the execution engine disagree — never something to paper over.
"""

from __future__ import annotations


class StorageError(Exception):
    """Base class for all durable-store failures."""


class CorruptSnapshotError(StorageError):
    """A snapshot file failed its CRC or structural decode."""


class CorruptWalError(StorageError):
    """The WAL is damaged beyond tail truncation (mid-log corruption)."""


class RecoveryError(StorageError):
    """Replaying the WAL could not reproduce a sealed header's root."""


class UnsupportedFormatError(StorageError):
    """An intact (CRC-valid) payload is not in the one supported format.

    Raised for a WAL record, snapshot, mempool spill or replication
    HELLO whose envelope is not led by the expected format version —
    including the unversioned records older builds wrote. It is never
    tail damage: nothing is truncated, the files stay byte-identical.
    """


class AppendFailedError(StorageError):
    """The operating system refused part of a block append (the log
    write, its fsync or the snapshot that follows it). The log ends
    where it ended before the call: the block is not committed. This is
    an error *return*, not process death — a crash mid-append is the
    torn tail recovery truncates."""


class StoreLockedError(StorageError):
    """Another live ChainStore already owns this data directory."""
