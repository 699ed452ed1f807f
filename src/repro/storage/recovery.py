"""Crash recovery: rebuild a live node from a data directory.

Recovery is *re-execution*, not deserialization of trust: the WAL's
blocks replay through a Merkleizing node's own execution pipeline
against the newest usable snapshot, and every replayed block must
reproduce, bit for bit, the ``state_root`` sealed into its header at
commit time — the same compare-or-stamp check
(:meth:`~repro.chain.node.Node.seal_state_root`) a live commit runs. A
store that cannot reproduce its own chain is corrupt, and recovery says
so with a typed error instead of serving a silently divergent state.

Anchor choice honours the receipt-retention contract: receipts are
rebuilt by replay, so the replayed suffix must cover the newest
``receipt_history_blocks`` blocks — the anchor snapshot is the newest
one at or below ``wal_height - receipt_history_blocks`` (archival
``None`` replays from genesis).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from ..chain import rlp
from ..chain.block import GENESIS_PARENT, Block
from ..chain.bloom import AccessBloom
from ..chain.node import Node
from ..core.hotspot.tracker import HotspotTracker
from ..obs import get_registry
from ..trie import StateRootMismatchError
from . import codec, snapshot as snapshots
from .errors import (
    CorruptSnapshotError,
    CorruptWalError,
    RecoveryError,
    UnsupportedFormatError,
)
from .store import MEMPOOL_NAME, WAL_NAME
from .wal import scan_wal, truncate_wal, unframe_record


@dataclass
class RecoveryResult:
    """Everything :func:`recover` learned and rebuilt."""

    node: Node
    #: Height of the last durably committed block.
    height: int
    #: Height of the snapshot the replay started from.
    snapshot_height: int
    #: Blocks re-executed (``height - snapshot_height``).
    replayed_blocks: int
    #: Damaged/partial WAL records dropped by tail truncation.
    truncated_records: int
    #: Bytes cut from the WAL tail.
    truncated_bytes: int
    #: Description of the tail damage, if any.
    corruption: str | None
    #: Snapshot files skipped because they were damaged or inconsistent.
    skipped_snapshots: list[str] = field(default_factory=list)
    #: Transactions waiting in ``mempool.rlp`` (spilled on drain).
    spilled_pending: int = 0
    #: Post-recovery flat state digest (the report's cross-check; the
    #: replay itself is verified against the sealed roots).
    state_digest: bytes = b""
    #: Hotspot profile rebuilt from the whole chain's traffic.
    tracker: HotspotTracker | None = None
    #: Human-readable recovery notes (tail truncation, skipped files).
    warnings: list[str] = field(default_factory=list)

    @property
    def hotspots(self) -> list[int]:
        return self.tracker.current_hotspots() if self.tracker else []


def _decode_chain(
    records: list[bytes],
) -> tuple[list[Block], str | None, int]:
    """Decode WAL payloads into the chain's blocks.

    Stops at the first record that fails structural decode, height
    contiguity, or parent-hash linkage; returns (blocks, reason, index)
    where *index* is the offending record (len(records) when clean). An
    intact record in another format is not damage: its
    :class:`UnsupportedFormatError` propagates.
    """
    blocks: list[Block] = []
    prev_hash = GENESIS_PARENT
    for index, payload in enumerate(records):
        try:
            block = codec.decode_wal_record(payload).block
        except rlp.RLPDecodingError as exc:
            return blocks, f"record {index}: {exc}", index
        if block.header.height != index + 1:
            return blocks, (
                f"record {index}: height {block.header.height}, "
                f"expected {index + 1}"
            ), index
        if block.header.parent_hash != prev_hash:
            return blocks, (
                f"record {index}: parent hash does not link to "
                f"block {index}"
            ), index
        prev_hash = block.hash()
        blocks.append(block)
    return blocks, None, len(records)


def _sealed_roots(blocks: list[Block]):
    """height -> the root the chain sealed there (None: not in the WAL)."""
    return {b.header.height: b.header.state_root for b in blocks}.get


def _count_spilled(data_dir: str) -> int:
    """Entries waiting in the spill file (0 when absent or unreadable).

    An intact spill in another format is the one thing not counted as
    zero: boot (``ChainStore.load_mempool``) refuses it, so the audit
    and recovery must too — :class:`UnsupportedFormatError` propagates.
    """
    path = os.path.join(data_dir, MEMPOOL_NAME)
    if not os.path.exists(path):
        return 0
    try:
        with open(path, "rb") as fh:
            return len(codec.mempool_from_rlp(unframe_record(fh.read())))
    except UnsupportedFormatError:
        raise
    except Exception:
        return 0


def recover(
    data_dir: str,
    receipt_history_blocks: int | None = 1024,
) -> RecoveryResult:
    """Rebuild a node from *data_dir*: snapshot + WAL-suffix replay.

    Tail damage (torn/partial final records, CRC mismatches at the end
    of the log) is truncated — the file itself is trimmed — warned
    about, and counted. Damage *followed by further
    valid records* is mid-log corruption and raises
    :class:`CorruptWalError`: truncating there would silently drop
    durably committed blocks. An intact WAL record, anchor snapshot or
    mempool spill in another format raises
    :class:`UnsupportedFormatError` before anything is touched — the
    repair truncation runs only after all three have been read. A
    replayed block whose sealed state root cannot be reproduced raises
    :class:`RecoveryError`.
    """
    data_dir = str(data_dir)
    wal_path = os.path.join(data_dir, WAL_NAME)
    registry = get_registry()
    warnings: list[str] = []

    scan = scan_wal(wal_path)
    if scan.mid_log_corruption:
        raise CorruptWalError(
            f"{wal_path}: {scan.corruption} with {scan.suffix_records} "
            f"valid records beyond it — mid-log corruption, refusing to "
            f"truncate durably committed blocks (run `repro verify-store`)"
        )

    blocks, decode_reason, bad_index = _decode_chain(scan.records)
    if decode_reason is not None and bad_index < len(scan.records) - 1:
        raise CorruptWalError(
            f"{wal_path}: {decode_reason} followed by further records — "
            f"mid-log corruption"
        )

    truncated_records = len(scan.records) - len(blocks)
    corruption = scan.corruption or decode_reason
    valid_prefix_bytes = sum(
        len(record) + 8 for record in scan.records[:len(blocks)]
    )
    truncated_bytes = (
        scan.file_bytes - valid_prefix_bytes if corruption else 0
    )
    if corruption is not None:
        truncated_records += 1 if scan.corruption else 0
        warnings.append(
            f"WAL tail truncated at block {len(blocks) + 1}: {corruption} "
            f"({truncated_bytes} trailing bytes dropped)"
        )
        if registry.enabled:
            registry.counter("storage.wal_truncated_records").inc(
                max(1, truncated_records)
            )

    # Anchor: the newest snapshot that keeps the retention window
    # replayable and agrees with the root sealed at its own height.
    if receipt_history_blocks is None:
        anchor_ceiling = 0
    else:
        anchor_ceiling = max(0, len(blocks) - receipt_history_blocks)
    anchor_height, state, trie, skipped = snapshots.load_latest_snapshot(
        data_dir, anchor_ceiling, _sealed_roots(blocks)
    )
    for path in skipped:
        warnings.append(f"skipped damaged/inconsistent snapshot {path}")
    spilled_pending = _count_spilled(data_dir)

    # Every payload this recovery uses has now been read in the supported
    # format (anything else raised above, files byte-identical): repair.
    if corruption is not None and os.path.exists(wal_path):
        truncate_wal(wal_path, valid_prefix_bytes)

    # The snapshot's trie was built once, to verify it; the replay node
    # adopts it, and its per-block seal check is the divergence detector.
    node = Node()
    node.adopt(state, trie)
    node.chain = blocks[:anchor_height]

    replayed = 0
    for block in blocks[anchor_height:]:
        try:
            node.execute_block(block)
        except StateRootMismatchError as exc:
            raise RecoveryError(
                f"replay diverged at block {block.header.height}: {exc}"
            ) from None
        replayed += 1

    # Receipt retention: replay may have gone further back than the
    # window (anchor granularity); trim to the newest N blocks.
    if receipt_history_blocks is not None:
        for block in blocks[:max(0, len(blocks) - receipt_history_blocks)]:
            node.receipts.pop(block.hash(), None)

    tracker = HotspotTracker()
    for block in blocks:
        tracker.observe_block(block.transactions)

    if registry.enabled:
        registry.counter("storage.recovered_blocks").inc(replayed)

    return RecoveryResult(
        node=node,
        height=len(blocks),
        snapshot_height=anchor_height,
        replayed_blocks=replayed,
        truncated_records=truncated_records if corruption else 0,
        truncated_bytes=truncated_bytes,
        corruption=corruption,
        skipped_snapshots=skipped,
        spilled_pending=spilled_pending,
        state_digest=codec.state_digest_bytes(node.state),
        tracker=tracker,
        warnings=warnings,
    )


def attach(
    node: Node,
    data_dir: str,
    config=None,
    receipt_history_blocks: int | None = 1024,
    fault_injector=None,
) -> RecoveryResult | None:
    """Make *node* durable in *data_dir*, recovering first if needed.

    Fresh directory: writes the genesis snapshot for the node's current
    state and starts logging. Existing store: runs :func:`recover`,
    transplants the recovered state (with the trie the replay kept
    current), chain and receipts into *node*, then re-admits any
    spilled mempool transactions (consuming the spill file) and counts
    them via ``storage.mempool_respilled``. Returns the
    :class:`RecoveryResult` when a recovery ran, else ``None``.

    The store's one commitment is the sealed ``state_root``, so a
    trie-less node (``Node(merkleize=False)``) is refused.
    """
    from ..chain.mempool import AdmissionError
    from .config import StorageConfig
    from .store import ChainStore

    if node.trie is None:
        raise ValueError(
            "a durable node must Merkleize: the sealed state_root is "
            "the store's only commitment"
        )
    # Keep enough snapshots that a bounded recovery can anchor at or
    # below ``wal_height - receipt_history_blocks`` — pruning to a bare
    # count would silently push the anchor back to genesis and turn
    # bounded recovery into a full replay.
    config = config or StorageConfig()
    if receipt_history_blocks is not None:
        needed = (
            receipt_history_blocks // config.snapshot_interval_blocks + 2
        )
        config = dataclasses.replace(
            config,
            retain_snapshots=max(config.retain_snapshots, needed),
        )

    result = None
    if has_store(data_dir):
        result = recover(
            data_dir, receipt_history_blocks=receipt_history_blocks
        )
        node.adopt(result.node.state, result.node.trie)
        node.chain = result.node.chain
        node.receipts = result.node.receipts

    store = ChainStore(data_dir, config, fault_injector=fault_injector)
    store.init_genesis(node.state, state_root=node.state_root)

    respilled = 0
    for tx, bloom_bytes in store.load_mempool(delete=True):
        try:
            if node.mempool.add(
                tx, bloom=AccessBloom.from_bytes(bloom_bytes)
            ):
                respilled += 1
        except AdmissionError:
            # Stale against the recovered state (nonce consumed,
            # balance spent) or a gossip duplicate: drop it, exactly
            # as live admission would.
            continue
    if respilled:
        registry = get_registry()
        if registry.enabled:
            registry.counter("storage.mempool_respilled").inc(respilled)
    if result is not None:
        result.spilled_pending = respilled

    node.store = store
    return result


def has_store(data_dir: str) -> bool:
    """True when *data_dir* already holds a chain store."""
    if not os.path.isdir(data_dir):
        return False
    if os.path.exists(os.path.join(data_dir, WAL_NAME)):
        return True
    return bool(snapshots.list_snapshots(data_dir))


@dataclass
class StoreReport:
    """What ``repro verify-store`` found (``ok`` drives the exit code)."""

    wal_records: int = 0
    wal_bytes: int = 0
    chain_height: int = 0
    corruption: str | None = None
    mid_log: bool = False
    #: An intact payload is in a format this build does not read.
    unsupported: bool = False
    truncated_bytes: int = 0
    snapshots: list[tuple[int, str]] = field(default_factory=list)
    damaged_snapshots: list[str] = field(default_factory=list)
    spilled_pending: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """False on unrecoverable damage (tail tears stay recoverable)."""
        return not (
            self.mid_log or self.unsupported or self.damaged_snapshots
        )

    def to_dict(self) -> dict:
        return {
            "walRecords": self.wal_records,
            "walBytes": self.wal_bytes,
            "chainHeight": self.chain_height,
            "corruption": self.corruption,
            "midLogCorruption": self.mid_log,
            "unsupportedFormat": self.unsupported,
            "truncatedBytes": self.truncated_bytes,
            "snapshots": [
                {"height": height, "path": path}
                for height, path in self.snapshots
            ],
            "damagedSnapshots": list(self.damaged_snapshots),
            "spilledPending": self.spilled_pending,
            "ok": self.ok,
            "notes": list(self.notes),
        }


def verify_store(data_dir: str) -> StoreReport:
    """Read-only integrity check of a data directory.

    Never mutates anything: scans the WAL (framing + CRC + structural
    decode + height/parent linkage), validates every snapshot against
    its own stamped root and the root sealed into the WAL's header at
    its height, and decodes the spilled mempool. Mid-log corruption, an
    intact payload in an unsupported format, or damaged snapshots make
    the report not-``ok``; a torn tail alone is recoverable and only
    noted.
    """
    data_dir = str(data_dir)
    report = StoreReport()
    scan = scan_wal(os.path.join(data_dir, WAL_NAME))
    report.wal_records = len(scan.records)
    report.wal_bytes = scan.file_bytes
    report.corruption = scan.corruption
    report.truncated_bytes = scan.truncated_bytes
    report.mid_log = scan.mid_log_corruption

    try:
        blocks, decode_reason, bad_index = _decode_chain(scan.records)
    except UnsupportedFormatError as exc:
        blocks, decode_reason, bad_index = [], None, 0
        report.unsupported = True
        report.notes.append(str(exc))
    report.chain_height = len(blocks)
    if decode_reason is not None:
        if bad_index < len(scan.records) - 1:
            report.mid_log = True
        report.corruption = report.corruption or decode_reason
        report.notes.append(decode_reason)
    if scan.corruption is not None:
        report.notes.append(
            f"tail damage: {scan.corruption} "
            f"({scan.truncated_bytes} bytes beyond the valid prefix)"
        )
    if report.mid_log:
        report.notes.append(
            "mid-log corruption: valid records exist beyond the damage"
        )

    sealed_root = _sealed_roots(blocks)
    if os.path.isdir(data_dir):
        for height, path in snapshots.list_snapshots(data_dir):
            try:
                loaded_height, root, _, _ = snapshots.read_snapshot(path)
            except UnsupportedFormatError as exc:
                report.unsupported = True
                report.notes.append(str(exc))
                continue
            except CorruptSnapshotError as exc:
                report.damaged_snapshots.append(path)
                report.notes.append(str(exc))
                continue
            if loaded_height != height:
                report.damaged_snapshots.append(path)
                report.notes.append(f"{path}: height field mismatch")
                continue
            if sealed_root(height) not in (None, root):
                report.damaged_snapshots.append(path)
                report.notes.append(
                    f"{path}: root disagrees with the sealed header"
                )
                continue
            report.snapshots.append((height, path))

    try:
        report.spilled_pending = _count_spilled(data_dir)
    except UnsupportedFormatError as exc:
        report.unsupported = True
        report.notes.append(str(exc))
    return report
