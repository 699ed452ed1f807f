"""Store + recovery semantics: replay identity, truncation, crash drills."""

import os

import pytest

from repro.chain.node import Node
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SimulatedCrashError,
    StorageCorruption,
)
from repro.obs import use_registry
from repro.storage import (
    AppendFailedError,
    ChainStore,
    CorruptWalError,
    RecoveryError,
    StorageConfig,
    StoreLockedError,
    UnsupportedFormatError,
    attach,
    codec,
    has_store,
    recover,
    verify_store,
)
from repro.storage.wal import RECORD_HEADER, frame_record, scan_wal
from repro.trie import StateTrie
from tests.conftest import refuse_next_append

ACCOUNTS = [0x1000 + i for i in range(8)]


def fresh_node() -> Node:
    state = WorldState()
    for account in ACCOUNTS:
        state.set_balance(account, 10**18)
    state.clear_journal()
    return Node(state=state)


_NONCES: dict = {}


def transfer_txs(count: int, key: object) -> list[Transaction]:
    nonces = _NONCES.setdefault(key, {})
    txs = []
    for i in range(count):
        sender = ACCOUNTS[i % len(ACCOUNTS)]
        nonces[sender] = nonces.get(sender, 0) + 1
        txs.append(Transaction(
            sender=sender,
            to=ACCOUNTS[(i + 3) % len(ACCOUNTS)],
            value=1 + i,
            nonce=nonces[sender],
            gas_limit=50_000,
        ))
    return txs


def commit_blocks(node: Node, blocks: int, txs_per_block: int = 3) -> None:
    for _ in range(blocks):
        for tx in transfer_txs(txs_per_block, id(node)):
            node.hear(tx)
        node.execute_block(
            node.propose_block(max_transactions=txs_per_block)
        )


def build_store(tmp_path, blocks=7, snapshot_interval=3, close=True):
    node = fresh_node()
    attach(node, str(tmp_path), StorageConfig(
        fsync="never", snapshot_interval_blocks=snapshot_interval,
    ))
    commit_blocks(node, blocks)
    digest = codec.state_digest_bytes(node.state)
    if close:
        node.store.close()
    return node, digest


def test_recover_rebuilds_bit_identical_state(tmp_path):
    node, digest = build_store(tmp_path)
    result = recover(str(tmp_path))
    assert result.height == 7
    assert result.state_digest == digest
    assert result.corruption is None
    assert [b.hash() for b in result.node.chain] == [
        b.hash() for b in node.chain
    ]
    assert len(result.node.receipts) == 7
    # The hotspot tracker re-observed every block (plain transfers
    # never cross the hotness threshold, so scores stay empty).
    assert result.tracker.blocks_observed == 7


def test_recover_bounded_by_retention_window(tmp_path):
    _, digest = build_store(tmp_path)
    result = recover(str(tmp_path), receipt_history_blocks=2)
    # Newest snapshot at or below 7-2=5 is height 3.
    assert result.snapshot_height == 3
    assert result.replayed_blocks == 4
    assert result.state_digest == digest
    # Receipts cover exactly the retention window.
    assert len(result.node.receipts) == 2


def test_recover_archival_replays_everything(tmp_path):
    """``receipt_history_blocks=None`` anchors at genesis, keeps it all."""
    node, digest = build_store(tmp_path, blocks=9, snapshot_interval=3)
    result = recover(str(tmp_path), receipt_history_blocks=None)
    assert result.height == 9
    assert result.snapshot_height == 0  # genesis anchor, full replay
    assert result.replayed_blocks == 9
    assert result.state_digest == digest
    # Every block's receipts survive — no retention eviction at all.
    assert len(result.node.receipts) == 9
    assert {b.hash() for b in result.node.chain} == {
        b.hash() for b in node.chain
    }


def test_recover_survives_sigkill_no_close(tmp_path):
    node, digest = build_store(tmp_path, close=False)
    # Lock file still claims our live pid — same-process takeover works,
    # exactly like a restart after SIGKILL (dead pid) does.
    result = recover(str(tmp_path))
    assert result.state_digest == digest
    node.store.close()


def test_recover_truncates_torn_tail_and_counts(tmp_path):
    build_store(tmp_path)
    wal = os.path.join(str(tmp_path), "wal.log")
    size = os.path.getsize(wal)
    with open(wal, "r+b") as fh:
        fh.truncate(size - 4)
    with use_registry() as registry:
        result = recover(str(tmp_path))
    assert result.height == 6
    assert result.truncated_records == 1
    assert result.truncated_bytes > 0
    assert result.warnings
    assert registry.value("storage.wal_truncated_records") == 1
    # The file itself was repaired: a second scan is clean.
    assert scan_wal(wal).clean


def test_recover_refuses_mid_log_corruption(tmp_path):
    build_store(tmp_path)
    wal = os.path.join(str(tmp_path), "wal.log")
    scan = scan_wal(wal)
    offset = sum(
        len(r) + RECORD_HEADER.size for r in scan.records[:2]
    ) + RECORD_HEADER.size + 5
    with open(wal, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptWalError, match="mid-log"):
        recover(str(tmp_path))
    report = verify_store(str(tmp_path))
    assert not report.ok
    assert report.mid_log


def rewrite_last_record(wal: str, payload: bytes) -> None:
    """Replace the WAL's final record with a freshly framed *payload*."""
    scan = scan_wal(wal)
    prefix = sum(
        len(r) + RECORD_HEADER.size for r in scan.records[:-1]
    )
    with open(wal, "r+b") as fh:
        fh.truncate(prefix)
        fh.seek(prefix)
        fh.write(frame_record(payload))


def test_recover_raises_on_replay_divergence(tmp_path):
    # Re-frame the final record with a lying sealed root: CRC and
    # structure are valid, so only the replay's seal check can catch it.
    import dataclasses

    build_store(tmp_path)
    wal = os.path.join(str(tmp_path), "wal.log")
    block = codec.decode_wal_record(scan_wal(wal).records[-1]).block
    block.header = dataclasses.replace(block.header, state_root=bytes(32))
    rewrite_last_record(wal, codec.encode_wal_payload(block))
    with pytest.raises(RecoveryError, match="diverged at block 7"):
        recover(str(tmp_path))


def parent_format_record(payload: bytes) -> bytes:
    """The record as the parent commit wrote it: unversioned
    ``[block, digest, root]``."""
    from repro.chain import rlp

    block = codec.decode_wal_record(payload).block
    return rlp.encode([
        block.to_rlp(), bytes(32), block.header.state_root
    ])


@pytest.mark.parametrize("blocks", [1, 7])
def test_parent_format_record_is_refused_not_truncated(tmp_path, blocks):
    """A CRC-valid record in another format is neither tail damage nor
    corruption: typed refusal, nothing on disk changes — also for a
    one-record WAL, which a tail-damage reading would truncate to
    nothing."""
    build_store(tmp_path, blocks=blocks)
    wal = os.path.join(str(tmp_path), "wal.log")
    rewrite_last_record(
        wal, parent_format_record(scan_wal(wal).records[-1])
    )
    assert scan_wal(wal).clean  # framing and CRCs are all valid
    before = open(wal, "rb").read()

    with pytest.raises(UnsupportedFormatError, match="wal record"):
        recover(str(tmp_path))
    with pytest.raises(UnsupportedFormatError):
        attach(fresh_node(), str(tmp_path), StorageConfig(fsync="never"))
    report = verify_store(str(tmp_path))
    assert not report.ok and report.unsupported
    assert any("wal record" in note for note in report.notes)
    assert not report.mid_log
    assert open(wal, "rb").read() == before


@pytest.mark.parametrize("which", ["anchor snapshot", "mempool spill"])
def test_other_format_is_refused_before_the_tail_repair(tmp_path, which):
    """The refusal covers all three durable payloads and comes before
    any repair: a torn WAL tail beside an intact anchor snapshot or
    mempool spill in the parent's format stays exactly as torn, and the
    audit agrees with the boot path that the store is not usable."""
    from repro.chain import rlp

    node, _ = build_store(tmp_path)
    wal = os.path.join(str(tmp_path), "wal.log")
    with open(wal, "r+b") as fh:
        fh.truncate(os.path.getsize(wal) - 4)
    if which == "anchor snapshot":
        # ``[height, digest, state, root]``, on the genesis anchor.
        path = str(tmp_path / "snapshot-000000000000.rlp")
        genesis = fresh_node()
        payload = rlp.encode([
            rlp.encode_int(0),
            codec.state_digest_bytes(genesis.state),
            codec.state_to_rlp(genesis.state),
            genesis.state_root,
        ])
        note = "snapshot"
    else:
        # Unversioned ``[[tx, bloom], …]``.
        path = str(tmp_path / "mempool.rlp")
        payload = rlp.encode([
            [tx.to_rlp(), bytes(16)] for tx in transfer_txs(2, id(node))
        ])
        note = "spilled mempool"
    with open(path, "wb") as fh:
        fh.write(frame_record(payload))
    before = {
        name: open(os.path.join(str(tmp_path), name), "rb").read()
        for name in sorted(os.listdir(str(tmp_path)))
    }
    assert not scan_wal(wal).clean

    with pytest.raises(UnsupportedFormatError, match=note):
        recover(str(tmp_path))
    with pytest.raises(UnsupportedFormatError, match=note):
        attach(fresh_node(), str(tmp_path), StorageConfig(fsync="never"))
    report = verify_store(str(tmp_path))
    assert not report.ok and report.unsupported
    assert any(note in line for line in report.notes)
    assert {
        name: open(os.path.join(str(tmp_path), name), "rb").read()
        for name in sorted(os.listdir(str(tmp_path)))
    } == before


def flip_one_slot_in_snapshot(path: str) -> None:
    """Rewrite a snapshot with one storage slot changed and the CRC
    re-stamped: framing, structure and the stamped root all stay."""
    from repro.chain import rlp
    from repro.storage.wal import unframe_record

    version, height, root, state_rlp = rlp.decode(
        unframe_record(open(path, "rb").read())
    )
    state = codec.state_from_rlp(state_rlp)
    state.set_storage(ACCOUNTS[0], 0, state.get_storage(ACCOUNTS[0], 0) ^ 1)
    payload = rlp.encode(
        [version, height, root, codec.state_to_rlp(state)]
    )
    with open(path, "wb") as fh:
        fh.write(frame_record(payload))


def test_snapshot_with_flipped_slot_is_rejected_by_root(tmp_path):
    from repro.storage.errors import CorruptSnapshotError
    from repro.storage.snapshot import read_snapshot

    _, digest = build_store(tmp_path)
    latest = str(tmp_path / "snapshot-000000000006.rlp")
    flip_one_slot_in_snapshot(latest)
    with pytest.raises(CorruptSnapshotError, match="state root"):
        read_snapshot(latest)
    result = recover(str(tmp_path), receipt_history_blocks=1)
    assert result.snapshot_height == 3  # fell back past the forged 6
    assert latest in result.skipped_snapshots
    assert result.state_digest == digest
    report = verify_store(str(tmp_path))
    assert not report.ok and report.damaged_snapshots == [latest]


def test_restart_builds_the_trie_once(tmp_path, monkeypatch):
    """Recovery verifies the anchor by building its trie, replays on
    it, and hands it to the live node: one build, no rebuild at the
    tip, no re-attach after the transplant."""
    node, _ = build_store(tmp_path)
    restarted = fresh_node()
    builds: list[int] = []
    real_attach = StateTrie.attach

    def counting_attach(self, state):
        if state._accounts:
            builds.append(len(state._accounts))
        return real_attach(self, state)

    def no_rebuild(state):
        raise AssertionError("rebuild_root on the restart path")

    monkeypatch.setattr(StateTrie, "attach", counting_attach)
    monkeypatch.setattr(StateTrie, "rebuild_root", no_rebuild)
    result = attach(restarted, str(tmp_path), StorageConfig(fsync="never"))
    monkeypatch.undo()
    assert result.height == 7 and result.replayed_blocks > 0
    assert len(builds) == 1
    assert restarted.trie is result.node.trie
    assert restarted.state_root == node.state_root
    assert restarted.state_root == StateTrie.rebuild_root(restarted.state)
    # The adopted trie keeps tracking: the next block seals correctly.
    commit_blocks(restarted, 1)
    assert restarted.state_root == StateTrie.rebuild_root(restarted.state)
    restarted.store.close()


def test_attach_refuses_a_trie_less_node(tmp_path):
    with pytest.raises(ValueError, match="Merkleize"):
        attach(Node(merkleize=False), str(tmp_path))
    assert not has_store(str(tmp_path))


def test_recover_falls_back_past_damaged_snapshot(tmp_path):
    _, digest = build_store(tmp_path)
    latest = str(tmp_path / "snapshot-000000000006.rlp")
    assert os.path.exists(latest)
    with open(latest, "r+b") as fh:
        fh.truncate(12)
    result = recover(str(tmp_path), receipt_history_blocks=1)
    assert result.snapshot_height == 3  # skipped the damaged 6
    assert latest in result.skipped_snapshots
    assert result.state_digest == digest


def test_verify_store_clean_and_tail_tear(tmp_path):
    build_store(tmp_path)
    report = verify_store(str(tmp_path))
    assert report.ok
    assert report.chain_height == 7
    assert 0 in [h for h, _ in report.snapshots]
    wal = os.path.join(str(tmp_path), "wal.log")
    with open(wal, "r+b") as fh:
        fh.truncate(os.path.getsize(wal) - 2)
    report = verify_store(str(tmp_path))
    assert report.ok  # a tear is recoverable, not a failure
    assert report.corruption is not None
    assert report.chain_height == 6


def test_attach_fresh_then_reattach(tmp_path):
    node = fresh_node()
    genesis_digest = codec.state_digest_bytes(node.state)
    assert not has_store(str(tmp_path))
    result = attach(node, str(tmp_path), StorageConfig(fsync="never"))
    assert result is None  # nothing to recover
    assert has_store(str(tmp_path))
    commit_blocks(node, 2)
    node.store.close()

    node2 = fresh_node()
    result = attach(node2, str(tmp_path), StorageConfig(fsync="never"))
    assert result is not None and result.height == 2
    assert codec.state_digest_bytes(node2.state) == codec.state_digest_bytes(
        node.state
    )
    assert codec.state_digest_bytes(node2.state) != genesis_digest
    node2.store.close()


def test_attach_respills_mempool_once(tmp_path):
    node, _ = build_store(tmp_path, blocks=2, close=False)
    for tx in transfer_txs(3, id(node)):
        node.hear(tx)
    node.store.spill_mempool(node.mempool.spill_entries())
    node.store.close()

    node2 = fresh_node()
    with use_registry() as registry:
        attach(node2, str(tmp_path), StorageConfig(fsync="never"))
        assert registry.value("storage.mempool_respilled") == 3
    assert len(node2.mempool) == 3
    assert not os.path.exists(tmp_path / "mempool.rlp")
    node2.store.close()

    # A second restart must not re-admit them again (the file is gone).
    node3 = fresh_node()
    attach(node3, str(tmp_path), StorageConfig(fsync="never"))
    assert len(node3.mempool) == 0
    node3.store.close()


def test_store_lock_refuses_live_owner(tmp_path):
    with open(tmp_path / "LOCK", "w") as fh:
        fh.write("1")  # pid 1 is always alive and never ours
    with pytest.raises(StoreLockedError):
        ChainStore(str(tmp_path))


def test_store_lock_takes_over_dead_owner(tmp_path):
    with open(tmp_path / "LOCK", "w") as fh:
        fh.write("999999999")  # beyond pid_max: guaranteed dead
    store = ChainStore(str(tmp_path))
    assert open(tmp_path / "LOCK").read() == str(os.getpid())
    store.close()
    assert not os.path.exists(tmp_path / "LOCK")


def test_fsync_interval_policy_counts_fsyncs(tmp_path):
    node = fresh_node()
    attach(node, str(tmp_path), StorageConfig(
        fsync="interval", fsync_interval_blocks=2,
        snapshot_interval_blocks=100,
    ))
    with use_registry() as registry:
        commit_blocks(node, 4)
        fsyncs = registry.series("storage.fsync_latency_ms")
    node.store.close()
    # 4 appends at interval 2 → exactly 2 policy fsyncs.
    assert sum(h.count for h in fsyncs) == 2


def test_crash_between_wal_and_snapshot_drill(tmp_path):
    plan = FaultPlan(storage=StorageCorruption(
        crash_between_wal_and_snapshot=True
    ))
    assert not plan.empty
    injector = FaultInjector(plan)
    node = fresh_node()
    attach(
        node, str(tmp_path),
        StorageConfig(fsync="never", snapshot_interval_blocks=2),
        fault_injector=injector,
    )
    commit_blocks(node, 1)
    with pytest.raises(SimulatedCrashError):
        commit_blocks(node, 1)  # height 2 hits the crash point
    assert injector.injected["crash_between_wal_and_snapshot"] == 1
    # The block IS durable in the WAL; its snapshot never landed.
    assert not os.path.exists(tmp_path / "snapshot-000000000002.rlp")
    node.store.close()

    result = recover(str(tmp_path))
    assert result.height == 2
    assert result.snapshot_height == 0
    # Recovered state == the state the node reached before "crashing".
    assert result.state_digest == codec.state_digest_bytes(node.state)


@pytest.mark.parametrize("site,half_written", [
    ("append", False), ("append", True), ("sync", False),
    ("snapshot", False),
])
def test_refused_append_commits_nothing_and_leaves_the_log_whole(
    tmp_path, site, half_written
):
    """An error *return* from the store is all-or-nothing: the node is
    back where the block found it, the log ends where it ended, and the
    chain that continues from there recovers."""
    node = fresh_node()
    attach(node, str(tmp_path), StorageConfig(
        fsync="always", snapshot_interval_blocks=2,
    ))
    commit_blocks(node, 1)
    before = (
        codec.state_digest_bytes(node.state), node.state_root,
        os.path.getsize(tmp_path / "wal.log"), node.store.wal_records,
    )
    refuse_next_append(node.store, site, half_written)
    txs = transfer_txs(3, id(node))
    for tx in txs:
        node.hear(tx)
    block = node.propose_block(max_transactions=3)
    with pytest.raises(AppendFailedError):
        node.execute_block(block)  # height 2: append, fsync, snapshot
    assert (
        codec.state_digest_bytes(node.state), node.state_root,
        os.path.getsize(tmp_path / "wal.log"), node.store.wal_records,
    ) == before
    assert node.state_root == StateTrie.rebuild_root(node.state)
    assert len(node.chain) == 1 and block.hash() not in node.receipts
    assert block.header.state_root == b""
    # The pool gave the transactions to the block and the commit that
    # would have dropped them never ran: nothing to undo there.
    assert not any(node.mempool.contains(tx) for tx in txs)

    # The chain goes on from where it was, and all of it recovers.
    commit_blocks(node, 2)
    digest = codec.state_digest_bytes(node.state)
    node.store.close()
    assert scan_wal(str(tmp_path / "wal.log")).clean
    assert verify_store(str(tmp_path)).ok
    result = recover(str(tmp_path))
    assert result.height == 3
    assert result.state_digest == digest


def test_injector_corrupt_wal_torn_tail(tmp_path):
    build_store(tmp_path)
    injector = FaultInjector(FaultPlan(
        seed=5, storage=StorageCorruption(torn_tail=True),
    ))
    applied = injector.corrupt_wal(str(tmp_path))
    assert injector.injected["wal_torn_tail"] == 1
    assert applied
    result = recover(str(tmp_path))
    assert result.height == 6
    assert result.corruption is not None


def test_injector_corrupt_wal_mid_log(tmp_path):
    build_store(tmp_path)
    injector = FaultInjector(FaultPlan(
        seed=5, storage=StorageCorruption(corrupt_record=1),
    ))
    injector.corrupt_wal(str(tmp_path))
    assert injector.injected["wal_crc_corrupted"] == 1
    with pytest.raises(CorruptWalError):
        recover(str(tmp_path))
    assert not verify_store(str(tmp_path)).ok
