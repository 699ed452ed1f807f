"""The journal is a block's one record of what it touched: the trie
folds it, the witness reads it, and neither sees bookkeeping."""

import dataclasses

import pytest

from repro.chain.node import Node
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.core.hotspot.optimizer import HotspotOptimizer
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import NetworkFault
from repro.storage import StorageConfig, attach
from repro.trie import StateRootMismatchError, StateTrie, decode_witness
from tests.conftest import wal_witnesses

SENDER, RECIPIENT, BYSTANDER, CONTRACT = 0x1, 0x2, 0xBEEF, 0xC0DE


def _genesis() -> WorldState:
    state = WorldState()
    state.set_balance(SENDER, 10**18)
    state.set_balance(BYSTANDER, 7)
    state.set_code(CONTRACT, b"\x00")
    state.clear_journal()
    return state


def _hear(node: Node, nonce: int = 0) -> None:
    node.hear(Transaction(
        sender=SENDER, to=RECIPIENT, value=5, nonce=nonce,
        gas_limit=100_000,
    ))


def _transfer(node: Node, nonce: int) -> list:
    _hear(node, nonce)
    return node.execute_block(node.propose_block())


def _second_block(tmp_path, bookkeeping):
    """Two one-transfer blocks on a witness-emitting node, *bookkeeping*
    run between them: the second block's witnessed addresses and the
    nodes its seal re-hashed."""
    node = Node(state=_genesis(), emit_witness=True)
    attach(node, str(tmp_path), StorageConfig(fsync="never"))
    _transfer(node, 0)
    bookkeeping(node)
    before = node.trie.nodes_rehashed
    _transfer(node, 1)
    rehashed = node.trie.nodes_rehashed - before
    witness = wal_witnesses(node.store)[2]
    node.store.close()
    return [entry.address for entry in decode_witness(witness).accounts], \
        rehashed


def _untracked_read(node):
    with node.state.untracked():
        node.state.get_balance(BYSTANDER)


def _code_lookup(node):
    HotspotOptimizer(node.state)._code_lookup(BYSTANDER)


@pytest.mark.parametrize("bookkeeping", [_untracked_read, _code_lookup])
def test_bookkeeping_reads_leave_no_trace_in_the_next_block(
    tmp_path, bookkeeping
):
    quiet = _second_block(tmp_path / "quiet", lambda node: None)
    assert quiet[0] == [SENDER, RECIPIENT, 0xC0FFEE]
    assert _second_block(tmp_path / "read", bookkeeping) == quiet


def _corrupt(node):
    plan = FaultPlan(network=NetworkFault(corrupt_at_height=1))
    assert FaultInjector(plan).corrupt_replica_state(node.state, 1)


def _poison(node):
    plan = FaultPlan(stale_profiles=(CONTRACT,))
    assert FaultInjector(plan).poison_profiles(node.state) == [CONTRACT]


def _commit(node):
    _transfer(node, 0)


def _abandon(node):
    _hear(node)
    node.propose_block()
    node.abandon_proposal()


def _forged_root(node):
    """The seal folds the block in, then refuses it: the rollback
    rebuilds the trie."""
    writer = Node(state=node.state.copy())
    _hear(writer)
    block = writer.propose_block()
    forged = dataclasses.replace(
        block, artifacts=None,
        header=dataclasses.replace(block.header, state_root=b"\x13" * 32),
    )
    with pytest.raises(StateRootMismatchError):
        node.execute_block(forged)


@pytest.mark.parametrize("inject", [_corrupt, _poison])
@pytest.mark.parametrize("next_block", [_commit, _abandon, _forged_root])
def test_an_injected_write_reaches_the_root(inject, next_block):
    node = Node(state=_genesis())
    inject(node)
    digest = node.state.state_digest()
    next_block(node)
    assert node.trie.root() == StateTrie.rebuild_root(node.state)
    if next_block is not _commit:  # the injection survives the rollback
        assert node.state.state_digest() == digest


def test_accounts_that_end_as_they_began_are_not_rehashed():
    state = _genesis()
    trie = StateTrie()
    trie.attach(state)
    before = trie.nodes_rehashed
    state.set_balance(BYSTANDER, 8)
    state.set_balance(BYSTANDER, 7)
    state.set_storage(CONTRACT, 3, 9)
    state.set_storage(CONTRACT, 3, 0)
    token = state.snapshot()  # a reverted frame leaves no entry
    state.set_balance(SENDER, 1)
    state.revert(token)
    assert trie.update(state) == StateTrie.rebuild_root(state)
    assert trie.nodes_rehashed == before


def test_a_bound_state_refuses_to_drop_unfolded_entries():
    state = _genesis()
    trie = StateTrie()
    trie.attach(state)
    state.set_balance(BYSTANDER, 8)
    with pytest.raises(RuntimeError):
        state.clear_journal()
    trie.update(state)
    state.clear_journal()
    assert trie.root() == StateTrie.rebuild_root(state)
