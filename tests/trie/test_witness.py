"""A witness is a state: a node that adopts one runs its block through
``Node.execute_block`` bit-identically, and fails loudly and typed."""

import dataclasses
import tempfile

import pytest

from repro.chain.node import Node
from repro.chain.receipt import receipts_root
from repro.contracts.registry import build_deployment
from repro.serve.loadgen import make_transactions
from repro.storage import StorageConfig, attach
from repro.trie import (
    StateRootMismatchError,
    WitnessError,
    decode_witness,
    witness_state,
)
from tests.conftest import wal_witnesses


def _run_chain(blocks=3, per_block=16, workload="mixed"):
    """A durable witness-emitting node's chain: the node, the root before
    each block, receipts and witnesses (read back off the WAL) by
    height."""
    deployment = build_deployment(num_accounts=16)
    node = Node(state=deployment.state.copy(), emit_witness=True)
    txs = make_transactions(
        deployment, blocks * per_block, workload=workload, seed=11
    )
    pre_roots = [node.state_root]
    receipts_by_height = {}
    with tempfile.TemporaryDirectory() as data_dir:
        attach(node, data_dir, StorageConfig(fsync="never"))
        for height in range(blocks):
            for tx in txs[height * per_block:(height + 1) * per_block]:
                node.hear(tx)
            block = node.propose_block(max_transactions=per_block)
            receipts_by_height[block.header.height] = node.execute_block(
                block
            )
            pre_roots.append(node.state_root)
        witnesses = wal_witnesses(node.store)
        node.store.close()
    return node, pre_roots, receipts_by_height, witnesses


def _replay(block, witness, pre_root):
    """A node holding only *witness*'s state runs *block*."""
    node = Node()
    node.adopt(*witness_state(witness, pre_root, block.header.height - 1))
    assert node.state_root == pre_root
    return node, node.execute_block(block)


def test_stateless_replay_is_bit_identical():
    node, pre_roots, receipts_by_height, witnesses = _run_chain()
    for index, block in enumerate(node.chain):
        witness = witnesses[block.header.height]
        replayed, receipts = _replay(block, witness, pre_roots[index])
        assert replayed.state_root == block.header.state_root
        assert replayed.chain == [block]
        assert receipts_root(receipts) == receipts_root(
            receipts_by_height[block.header.height]
        )
        accounts = decode_witness(witness).accounts
        witnessed = {entry.address for entry in accounts}
        assert set(replayed.state.addresses()) <= witnessed


def test_wrong_pre_root_is_rejected():
    node, _, _, witnesses = _run_chain(blocks=1)
    block = node.chain[0]
    witness = witnesses[block.header.height]
    with pytest.raises(StateRootMismatchError):
        witness_state(witness, bytes(32), 0)


def test_tampered_header_root_is_rejected():
    node, pre_roots, _, witnesses = _run_chain(blocks=1)
    block = node.chain[0]
    witness = witnesses[block.header.height]
    forged = dataclasses.replace(
        block, header=dataclasses.replace(block.header, state_root=bytes(32))
    )
    with pytest.raises(StateRootMismatchError):
        _replay(forged, witness, pre_roots[0])


def test_corrupted_witness_fails_typed_never_validates():
    node, pre_roots, _, witnesses = _run_chain(blocks=1)
    block = node.chain[0]
    witness = witnesses[block.header.height]
    sealed = block.header.state_root
    stride = max(1, len(witness) // 96)
    for index in range(0, len(witness), stride):
        for flip in (0x01, 0xFF):
            mutated = bytearray(witness)
            mutated[index] ^= flip
            try:
                replayed, _ = _replay(block, bytes(mutated), pre_roots[0])
            except (WitnessError, StateRootMismatchError):
                continue
            except Exception as exc:  # noqa: BLE001 - property under test
                raise AssertionError(
                    f"corrupted witness escaped with "
                    f"{type(exc).__name__}: {exc!r}"
                ) from exc
            # A flip that still validates must have been semantically
            # inert — the result must still be bit-identical.
            assert replayed.state_root == sealed


def test_witness_from_wrong_block_is_rejected():
    node, pre_roots, _, witnesses = _run_chain(blocks=2)
    first, second = node.chain[0], node.chain[1]
    with pytest.raises((WitnessError, StateRootMismatchError)):
        _replay(first, witnesses[second.header.height], pre_roots[0])


def test_witness_covers_reads_and_decodes():
    node, _, _, witnesses = _run_chain(blocks=1)
    block = node.chain[0]
    witness = decode_witness(witnesses[block.header.height])
    assert witness.pre_root
    senders = {tx.sender for tx in block.transactions}
    covered = {entry.address for entry in witness.accounts}
    assert senders <= covered
