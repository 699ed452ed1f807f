"""The durable chain store: WAL + snapshots + mempool spill in one dir.

A data directory owned by one live :class:`ChainStore` (an advisory pid
lockfile guards against two writers interleaving appends)::

    data_dir/
        LOCK                     advisory lock (pid of the owner)
        wal.log                  append-only block log (wal.py framing)
        snapshot-000000000000.rlp   genesis anchor (never pruned)
        snapshot-000000000064.rlp   periodic anchors (pruned to N)
        mempool.rlp              transactions spilled on drain

The store is deliberately passive: it persists what the node commits and
answers scans; *recovery* (rebuilding a live node from these files) lives
in :mod:`repro.storage.recovery` so the write path stays small enough to
reason about crash windows.
"""

from __future__ import annotations

import os
import time

from ..chain.block import Block
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..obs import get_registry
from . import codec, snapshot
from .config import FSYNC_ALWAYS, FSYNC_INTERVAL, StorageConfig
from .errors import AppendFailedError, StoreLockedError
from .wal import WalWriter, frame_record, unframe_record

WAL_NAME = "wal.log"
MEMPOOL_NAME = "mempool.rlp"
LOCK_NAME = "LOCK"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True


class ChainStore:
    """Durable writer for one chain's data directory."""

    def __init__(
        self,
        data_dir: str,
        config: StorageConfig | None = None,
        fault_injector=None,
    ) -> None:
        self.data_dir = str(data_dir)
        self.config = config or StorageConfig()
        #: Optional :class:`repro.faults.FaultInjector`; its
        #: ``crash_point`` hook fires between the WAL append and the
        #: snapshot write (the crash-fault drills' kill window).
        self.fault_injector = fault_injector
        os.makedirs(self.data_dir, exist_ok=True)
        self._lock_path = os.path.join(self.data_dir, LOCK_NAME)
        self._acquire_lock()
        self._writer = WalWriter(os.path.join(self.data_dir, WAL_NAME))
        self._appends_since_fsync = 0
        self._closed = False
        # -- cumulative counters (mirrored into repro.obs when enabled) --
        self.wal_records = 0
        self.wal_bytes = 0
        self.snapshots_written = 0
        self.mempool_spilled = 0

    # -- locking -----------------------------------------------------------
    def _acquire_lock(self) -> None:
        while True:
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    with open(self._lock_path) as fh:
                        owner = int(fh.read().strip() or "0")
                except (OSError, ValueError):
                    owner = 0
                if owner and owner != os.getpid() and _pid_alive(owner):
                    raise StoreLockedError(
                        f"{self.data_dir!r} is owned by live pid {owner}"
                    ) from None
                # Stale lock (SIGKILLed owner): take it over.
                os.unlink(self._lock_path)
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return

    # -- paths -------------------------------------------------------------
    @property
    def wal_path(self) -> str:
        return os.path.join(self.data_dir, WAL_NAME)

    @property
    def mempool_path(self) -> str:
        return os.path.join(self.data_dir, MEMPOOL_NAME)

    # -- genesis -----------------------------------------------------------
    def init_genesis(self, state: WorldState, state_root: bytes) -> bool:
        """Write the height-0 snapshot anchor if this is a fresh store."""
        path = os.path.join(self.data_dir, snapshot.snapshot_name(0))
        if os.path.exists(path):
            return False
        snapshot.write_snapshot(self.data_dir, 0, state, state_root)
        snapshot.sync_dir(self.data_dir)
        return True

    # -- the commit path ---------------------------------------------------
    def append_block(
        self, block: Block, state: WorldState, witness: bytes | None = None
    ) -> None:
        """Durably record a committed (sealed) block.

        Runs on the execution thread *before* client futures resolve:
        under ``fsync=always`` the record is on stable storage by the
        time anyone is told the transaction committed. Every
        ``snapshot_interval_blocks`` a snapshot of *state* follows the
        append, so recovery replays a bounded suffix.

        The header's sealed ``state_root`` is the record's post-state
        commitment — what recovery and replicas must reproduce; the
        block *witness* rides along when the node emits one.

        All-or-nothing for error returns: an ``OSError`` out of the
        write, the fsync or the snapshot leaves the log ending where it
        ended before the call (a partial record followed by the next
        block's valid one is mid-log corruption at the next restart) and
        surfaces as :class:`AppendFailedError`; a snapshot that did land
        stays, recovery skips one the log does not reach. The injector's
        crash point models process death, not an error return, and
        passes through untouched.
        """
        registry = get_registry()
        started = time.perf_counter()
        payload = codec.encode_wal_payload(block, witness or b"")
        height = block.header.height
        snapshot_due = height % self.config.snapshot_interval_blocks == 0
        unsynced = self._appends_since_fsync + 1
        policy = self.config.fsync
        offset = self._writer.offset
        try:
            written = self._writer.append(payload)
            if policy == FSYNC_ALWAYS or (
                policy == FSYNC_INTERVAL
                and unsynced >= self.config.fsync_interval_blocks
            ):
                fsync_started = time.perf_counter()
                self._writer.sync()
                unsynced = 0
                if registry.enabled:
                    registry.histogram("storage.fsync_latency_ms").observe(
                        (time.perf_counter() - fsync_started) * 1000.0
                    )
            if snapshot_due:
                if self.fault_injector is not None:
                    # The drill window: the block is durable in the WAL
                    # but its snapshot is not — recovery must come from
                    # the previous anchor plus a longer replay.
                    self.fault_injector.crash_point(
                        "between_wal_and_snapshot"
                    )
                snap_started = time.perf_counter()
                snapshot.write_snapshot(
                    self.data_dir, height, state, block.header.state_root
                )
                snapshot.prune_snapshots(
                    self.data_dir, self.config.retain_snapshots
                )
                snapshot.sync_dir(self.data_dir)
                snapshot_ms = (time.perf_counter() - snap_started) * 1000.0
        except OSError as exc:
            reason = f"block {height} not appended: {exc!r}"
            try:
                self._writer.truncate(offset)
            except OSError as cut:  # still typed: not an engine failure
                reason += f"; log not cut back to byte {offset}: {cut!r}"
            raise AppendFailedError(reason) from exc

        self._appends_since_fsync = unsynced
        self.wal_records += 1
        self.wal_bytes += written
        if snapshot_due:
            self.snapshots_written += 1
        if registry.enabled:
            if snapshot_due:
                registry.counter("storage.snapshots_written").inc()
                registry.histogram(
                    "storage.snapshot_duration_ms"
                ).observe(snapshot_ms)
            registry.counter("storage.wal_records").inc()
            registry.counter("storage.wal_bytes").inc(written)
            registry.histogram("storage.commit_latency_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    def sync(self) -> None:
        """Force the WAL to stable storage regardless of policy."""
        self._writer.sync()
        self._appends_since_fsync = 0

    # -- mempool spill -----------------------------------------------------
    def spill_mempool(self, entries) -> int:
        """Persist still-pending transactions on drain (atomic write).

        *entries*: ``(transaction, bloom_bytes)`` pairs
        (:meth:`Mempool.spill_entries` — carries the admission-time
        access blooms across the restart).
        """
        if not entries:
            return 0
        blob = codec.mempool_to_rlp(entries)
        snapshot.atomic_write(self.mempool_path, frame_record(blob))
        snapshot.sync_dir(self.data_dir)
        self.mempool_spilled += len(entries)
        registry = get_registry()
        if registry.enabled:
            registry.counter("storage.mempool_spilled").inc(len(entries))
        return len(entries)

    def load_mempool(
        self, delete: bool = True
    ) -> list[tuple[Transaction, bytes]]:
        """Read (and by default consume) the spilled mempool.

        Returns ``(transaction, bloom_bytes)`` pairs. The file is
        deleted after a successful read: once the transactions are back
        in a live pool they either commit (and must never be re-admitted
        by a later restart — they would execute twice) or get spilled
        again on the next drain.
        """
        if not os.path.exists(self.mempool_path):
            return []
        with open(self.mempool_path, "rb") as fh:
            blob = fh.read()
        entries = codec.mempool_from_rlp(unframe_record(blob))
        if delete:
            os.unlink(self.mempool_path)
            snapshot.sync_dir(self.data_dir)
        return entries

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.sync()
        except (OSError, ValueError):  # pragma: no cover - closed fd
            pass
        self._writer.close()
        try:
            with open(self._lock_path) as fh:
                if fh.read().strip() == str(os.getpid()):
                    os.unlink(self._lock_path)
        except OSError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "ChainStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
