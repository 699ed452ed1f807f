"""The state root on the wire: one commitment, one form per payload.

The sealed header ``state_root`` is the only stamp that is stored and
streamed. Headers, WAL records, snapshots and replication HELLOs each
have exactly one encoding; anything else — the unversioned layouts the
parent commit wrote included — is a typed refusal, never a guess.
"""

import dataclasses

import pytest

from repro.chain import rlp
from repro.chain.block import Block, BlockHeader
from repro.chain.node import Node
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.replication import stream
from repro.storage import UnsupportedFormatError, codec
from repro.storage.snapshot import (
    read_snapshot,
    read_snapshot_stamp,
    write_snapshot,
)
from repro.storage.wal import RECORD_HEADER
from repro.trie import StateRootMismatchError, StateTrie


def _sealed_block():
    node = Node()
    node.state.set_balance(1, 10**9)
    node.trie.update(node.state)
    node.hear(Transaction(sender=1, to=2, value=3))
    block = node.propose_block()
    node.execute_block(block)
    return node, block


def test_header_has_one_seven_field_form():
    node = Node(merkleize=False)  # a reference node never seals
    node.state.set_balance(1, 10**9)
    node.hear(Transaction(sender=1, to=2, value=3))
    block = node.propose_block()
    node.execute_block(block)
    assert block.header.state_root == b""
    fields = rlp.decode(block.header.to_rlp())
    assert len(fields) == 7 and fields[6] == b""
    assert BlockHeader.from_rlp(block.header.to_rlp()) == block.header
    # The six-field form older builds wrote for unsealed headers, and a
    # root of the wrong width, do not decode.
    with pytest.raises(rlp.RLPDecodingError):
        BlockHeader.from_rlp(rlp.encode(fields[:6]))
    with pytest.raises(rlp.RLPDecodingError):
        BlockHeader.from_rlp(rlp.encode(fields[:6] + [b"short"]))


def test_sealed_header_encoding_is_pinned():
    """Committed block hashes must never move: this is the encoding
    (and hash) every earlier build produced for the same sealed header."""
    header = BlockHeader(
        height=3, timestamp=1_600_000_039, coinbase=0xC0FFEE,
        difficulty=1, gas_limit=30_000_000, parent_hash=b"\x11" * 32,
        state_root=b"\x22" * 32,
    )
    assert header.hash().hex() == (
        "43eb04135c0826dfcc014467cbfc54cf9065d25b92fce56fed83588f5432051c"
    )


def test_header_rlp_round_trips_state_root():
    _, block = _sealed_block()
    assert len(block.header.state_root) == 32
    decoded = Block.from_rlp(block.to_rlp())
    assert decoded.header.state_root == block.header.state_root
    assert decoded.hash() == block.hash()


def test_sealing_changes_the_block_hash():
    _, block = _sealed_block()
    unsealed = dataclasses.replace(
        block, header=dataclasses.replace(block.header, state_root=b"")
    )
    assert unsealed.hash() != block.hash()


def test_seal_state_root_rejects_a_wrong_stamp():
    node, block = _sealed_block()
    forged = dataclasses.replace(
        block,
        header=dataclasses.replace(block.header, state_root=bytes(32)),
    )
    with pytest.raises(StateRootMismatchError):
        node.seal_state_root(forged)


def test_wal_record_has_one_form():
    node, block = _sealed_block()
    payload = codec.encode_wal_payload(block, witness=b"w" * 40)
    version, block_rlp, witness = rlp.decode(payload)
    assert version == rlp.encode_int(codec.FORMAT_VERSION)
    record = codec.decode_wal_record(payload)
    assert record.block.hash() == block.hash()
    assert record.block.header.state_root == node.state_root
    assert record.witness == witness == b"w" * 40
    # The record carries no second commitment.
    assert [f.name for f in dataclasses.fields(record)] == [
        "block", "witness"
    ]

    digest = codec.state_digest_bytes(node.state)
    root = node.state_root
    for other in (
        [block_rlp, digest],                      # pre-Merkle
        [block_rlp, digest, root],                # parent commit
        [block_rlp, digest, root, b"w" * 40],     # parent, with witness
        [rlp.encode_int(2), block_rlp, b""],      # a future version
        [version, block_rlp],                     # wrong arity
        [],
    ):
        with pytest.raises(UnsupportedFormatError, match="wal record"):
            codec.decode_wal_record(rlp.encode(other))
    with pytest.raises(UnsupportedFormatError):
        codec.decode_wal_record(b"\xff not rlp at all")


def test_snapshot_round_trips_root(tmp_path):
    state = WorldState()
    state.set_balance(7, 123)
    state.set_storage(7, 1, 9)
    root = StateTrie.rebuild_root(state)

    path = write_snapshot(str(tmp_path), 5, state, root)
    assert read_snapshot_stamp(path) == (5, root)
    height, read_root, restored, trie = read_snapshot(path)
    assert (height, read_root) == (5, root)
    assert trie.root() == root
    assert StateTrie.rebuild_root(restored) == root
    assert codec.state_digest_bytes(restored) == codec.state_digest_bytes(
        state
    )


def test_hello_has_one_form():
    root = b"\xcd" * 32
    frame = stream.encode_hello(9, root, False)
    payload = frame[RECORD_HEADER.size:]  # strip the frame header
    assert stream.decode_message(payload) == (
        stream.MSG_HELLO, (9, root, False)
    )
    tag, version, height, state_root, need = rlp.decode(payload)
    assert version == rlp.encode_int(codec.FORMAT_VERSION)
    for other in (
        [tag, height, b"\xab" * 32, need],        # pre-Merkle
        [tag, height, b"\xab" * 32, need, root],  # parent commit
        [tag, rlp.encode_int(2), height, root, need],
    ):
        with pytest.raises(UnsupportedFormatError, match="hello"):
            stream.decode_message(rlp.encode(other))
    with pytest.raises(stream.StreamProtocolError):
        stream.decode_message(
            rlp.encode([tag, version, height, b"short", need])
        )
