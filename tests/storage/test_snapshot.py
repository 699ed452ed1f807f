"""Snapshot codec and file protocol: canonical bytes, atomicity, damage."""

import os

import pytest

from repro.chain import rlp
from repro.chain.state import WorldState
from repro.storage import codec
from repro.storage.errors import CorruptSnapshotError, UnsupportedFormatError
from repro.storage.snapshot import (
    list_snapshots,
    load_latest_snapshot,
    prune_snapshots,
    read_snapshot,
    read_snapshot_stamp,
    snapshot_name,
    write_snapshot,
)
from repro.storage.wal import frame_record
from repro.trie import StateTrie


def sample_state() -> WorldState:
    state = WorldState()
    state.set_balance(0xA11CE, 10**18)
    state.set_balance(0xB0B, 5)
    state.set_code(0xC0DE, b"\x60\x00\x60\x00")
    state.set_storage(0xC0DE, 0, 42)
    state.set_storage(0xC0DE, 7, 9)
    state.set_nonce(0xA11CE, 3)
    state.clear_journal()
    return state


def write(tmp_path, height: int, state: WorldState) -> str:
    return write_snapshot(
        str(tmp_path), height, state, StateTrie.rebuild_root(state)
    )


def test_state_codec_round_trip():
    state = sample_state()
    blob = codec.state_to_rlp(state)
    restored = codec.state_from_rlp(blob)
    assert restored.state_digest() == state.state_digest()
    # Canonical: re-encoding the restored state is bit-identical.
    assert codec.state_to_rlp(restored) == blob
    assert codec.state_digest_bytes(restored) == codec.state_digest_bytes(
        state
    )


def test_state_codec_skips_empty_accounts():
    state = sample_state()
    state.set_balance(0xDEAD, 0)  # touched but empty
    state.clear_journal()
    assert codec.state_to_rlp(state) == codec.state_to_rlp(sample_state())


def test_state_from_rlp_rejects_garbage():
    with pytest.raises(rlp.RLPDecodingError):
        codec.state_from_rlp(b"\xf0\x01\x02")
    with pytest.raises(rlp.RLPDecodingError):
        codec.state_from_rlp(rlp.encode([b"not-an-account"]))


def test_write_read_snapshot(tmp_path):
    state = sample_state()
    path = write(tmp_path, 5, state)
    assert os.path.basename(path) == snapshot_name(5)
    height, root, restored, trie = read_snapshot(path)
    assert height == 5
    assert root == StateTrie.rebuild_root(state)
    assert read_snapshot_stamp(path) == (5, root)
    assert restored.state_digest() == state.state_digest()
    # The verifying trie comes back attached: it tracks the state.
    restored.set_balance(0xB0B, 6)
    assert trie.update(restored) == StateTrie.rebuild_root(restored)
    assert not os.path.exists(path + ".tmp")  # rename consumed the tmp


def test_read_snapshot_rejects_truncation(tmp_path):
    path = write(tmp_path, 1, sample_state())
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-3])
    with pytest.raises(CorruptSnapshotError):
        read_snapshot(path)


def test_read_snapshot_rejects_digest_mismatch(tmp_path):
    # Re-frame a snapshot whose stamped digest — the Merkle state root —
    # lies about the state: the CRC is valid, the structure decodes,
    # but the commitment fails.
    payload = rlp.encode([
        rlp.encode_int(codec.FORMAT_VERSION),
        rlp.encode_int(1),
        b"\xab" * 32,
        codec.state_to_rlp(sample_state()),
    ])
    path = tmp_path / snapshot_name(1)
    path.write_bytes(frame_record(payload))
    with pytest.raises(CorruptSnapshotError, match="state root"):
        read_snapshot(str(path))


def test_read_snapshot_refuses_the_parent_format(tmp_path):
    """``[height, digest, state, root]`` — intact, but not ours."""
    state = sample_state()
    payload = rlp.encode([
        rlp.encode_int(5),
        codec.state_digest_bytes(state),
        codec.state_to_rlp(state),
        StateTrie.rebuild_root(state),
    ])
    path = tmp_path / snapshot_name(5)
    path.write_bytes(frame_record(payload))
    with pytest.raises(UnsupportedFormatError, match="snapshot"):
        read_snapshot(str(path))
    with pytest.raises(UnsupportedFormatError):
        read_snapshot_stamp(str(path))


def test_list_and_prune_keep_genesis(tmp_path):
    state = sample_state()
    for height in (0, 4, 8, 12):
        write(tmp_path, height, state)
    assert [h for h, _ in list_snapshots(str(tmp_path))] == [12, 8, 4, 0]
    removed = prune_snapshots(str(tmp_path), retain=2)
    assert [os.path.basename(p) for p in removed] == [snapshot_name(4)]
    assert [h for h, _ in list_snapshots(str(tmp_path))] == [12, 8, 0]


def test_load_latest_skips_damaged(tmp_path):
    state = sample_state()
    write(tmp_path, 4, state)
    newest = write(tmp_path, 8, state)
    with open(newest, "r+b") as fh:
        fh.truncate(10)
    height, restored, _trie, skipped = load_latest_snapshot(str(tmp_path))
    assert height == 4
    assert skipped == [newest]
    assert restored.state_digest() == state.state_digest()


def test_load_latest_skips_a_stamp_the_chain_contradicts(tmp_path):
    state = sample_state()
    write(tmp_path, 4, state)
    newest = write(tmp_path, 8, state)
    sealed = {4: StateTrie.rebuild_root(state), 8: b"\x00" * 32}
    height, _, _, skipped = load_latest_snapshot(
        str(tmp_path), sealed_root=sealed.get
    )
    assert (height, skipped) == (4, [newest])


def test_load_latest_respects_max_height(tmp_path):
    state = sample_state()
    write(tmp_path, 4, state)
    write(tmp_path, 8, state)
    height, _, _, _ = load_latest_snapshot(str(tmp_path), max_height=7)
    assert height == 4


def test_load_latest_raises_when_nothing_loadable(tmp_path):
    with pytest.raises(CorruptSnapshotError):
        load_latest_snapshot(str(tmp_path))


def sealed_block():
    from repro.chain.block import Block, BlockHeader
    from repro.chain.transaction import Transaction

    return Block(
        header=BlockHeader(
            height=3, timestamp=1_600_000_039, coinbase=0xC0FFEE,
            difficulty=1, gas_limit=30_000_000, parent_hash=b"\x11" * 32,
            state_root=b"\x22" * 32,
        ),
        transactions=[
            Transaction(sender=0xA11CE, to=0xB0B, value=5, nonce=1)
        ],
        dag_edges=[],
    )


def test_wal_payload_round_trip():
    block = sealed_block()
    for witness in (b"", b"w" * 40):
        record = codec.decode_wal_record(
            codec.encode_wal_payload(block, witness)
        )
        assert record.witness == witness
        assert record.block.header == block.header
        assert record.block.transactions == block.transactions
        assert record.block.hash() == block.hash()


def test_wal_payload_rejects_short_digest():
    """The record's commitment is the header's sealed root: one of the
    wrong width does not decode."""
    import dataclasses

    block = sealed_block()
    block.header = dataclasses.replace(
        block.header, state_root=b"\x01" * 31
    )
    with pytest.raises(rlp.RLPDecodingError, match="state_root"):
        codec.decode_wal_record(codec.encode_wal_payload(block))


def test_wal_payload_needs_a_sealed_header():
    import dataclasses

    block = sealed_block()
    block.header = dataclasses.replace(block.header, state_root=b"")
    with pytest.raises(ValueError, match="sealed"):
        codec.encode_wal_payload(block)
    payload = rlp.encode(
        [rlp.encode_int(codec.FORMAT_VERSION), block.to_rlp(), b""]
    )
    with pytest.raises(UnsupportedFormatError, match="unsealed"):
        codec.decode_wal_record(payload)


def test_mempool_codec_round_trip():
    from repro.chain.transaction import Transaction

    txs = [
        Transaction(sender=0xA11CE, to=0xB0B, value=7, nonce=n)
        for n in range(3)
    ]
    blob = b"\x00" * 16
    paired = codec.mempool_from_rlp(
        codec.mempool_to_rlp([(tx, blob) for tx in txs])
    )
    assert paired == [(tx, blob) for tx in txs]
    assert codec.mempool_from_rlp(codec.mempool_to_rlp([])) == []
    # The parent commit's unversioned spill (bare transactions or
    # pairs) is refused, not guessed at.
    for legacy in (
        rlp.encode([tx.to_rlp() for tx in txs]),
        rlp.encode([[tx.to_rlp(), blob] for tx in txs]),
    ):
        with pytest.raises(UnsupportedFormatError, match="spilled mempool"):
            codec.mempool_from_rlp(legacy)
