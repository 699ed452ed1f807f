"""Execute-once on the sequential path: ``Node.execute_block`` commits
the consensus-stage pre-execution of the block the node itself proposed.

The invariants: replay commits exactly what a fresh node computes by
running the same block through the EVM; a stale, misplaced or foreign
artifact is never trusted (that transaction runs through the EVM, and is
counted); and the paths whose job is to *check* a block — a different
node, ``verify_block``, recovery — never replay at all.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction
from repro.chain.block import BlockHeader
from repro.chain.journal import WriteJournal
from repro.chain.node import Node
from repro.chain.receipt import receipts_root
from repro.contracts.asm import assemble
from repro.obs import use_registry
from repro.serve.loadgen import make_transactions
from repro.storage import StorageConfig, attach, recover
from repro.storage.codec import state_digest_bytes

DESTRUCTOR = 0xDE57
FACTORY = 0xFAC7
COUNTER = 0xC0DE
#: Balances a few fees deep, so whether a transfer succeeds depends on
#: what ran before it in the block.
POOR = [0x9000 + i for i in range(3)]
SINK = 0x51CC

_INIT_CODE = assemble("PUSH 1\nPUSH 0\nSSTORE\nPUSH 0\nPUSH 0\nRETURN")


def genesis(deployment):
    state = deployment.state.copy()
    state.set_code(DESTRUCTOR, assemble("PUSH 0xb0b\nSELFDESTRUCT"))
    state.set_balance(DESTRUCTOR, 5)
    state.set_code(FACTORY, assemble(
        "PUSH 0\nPUSH 0\nPUSH 0\nCREATE\n"
        "PUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nRETURN"
    ))
    state.set_code(COUNTER, assemble(
        "PUSH 0\nSLOAD\nPUSH 1\nADD\nPUSH 0\nSSTORE\nSTOP"
    ))
    for account in POOR:
        state.set_balance(account, 120_000)
    state.clear_journal()
    return state


def build_txs(deployment, ops, seed):
    """One transaction per op; nonces only keep the hashes unique."""
    tokens = iter(make_transactions(
        deployment, len(ops), workload="erc20", seed=seed
    ))
    users = deployment.accounts
    txs = []
    for nonce, (kind, who, amount) in enumerate(ops, start=1):
        user = users[who % len(users)]
        if kind == "erc20":
            txs.append(next(tokens))
        elif kind == "transfer":
            txs.append(Transaction(
                sender=POOR[who % len(POOR)],
                to=POOR[(who + 1) % len(POOR)] if amount % 2 else SINK,
                value=amount * 1_000, nonce=nonce, gas_limit=30_000,
            ))
        elif kind == "create":
            txs.append(Transaction(
                sender=user, to=None, data=_INIT_CODE, nonce=nonce,
                gas_limit=300_000,
            ))
        else:
            target = {"destruct": DESTRUCTOR, "factory": FACTORY,
                      "counter": COUNTER}[kind]
            txs.append(Transaction(
                sender=user, to=target, nonce=nonce, gas_limit=300_000,
            ))
    return txs


OPS = st.lists(
    st.tuples(
        st.sampled_from(["erc20", "transfer", "create", "destruct",
                         "factory", "counter"]),
        st.integers(0, 5),
        st.integers(0, 90),
    ),
    min_size=1, max_size=10,
)


def propose(node, txs):
    for tx in txs:
        node.hear(tx)
    block = node.propose_block(max_transactions=len(txs))
    assert len(block.artifacts) == len(block.transactions) == len(txs)
    return block


def evm_only_twin(deployment, block, prepare=None):
    """A fresh node that runs *block*'s transactions through the EVM
    (``artifacts=None``); returns ``(receipts, node)``."""
    twin = Node(state=genesis(deployment))
    if prepare is not None:
        prepare(twin)
    plain = dataclasses.replace(
        block,
        header=dataclasses.replace(block.header, state_root=b""),
        artifacts=None,
    )
    return twin.execute_block(plain), twin


def assert_same_outcome(node, receipts, twin, twin_receipts):
    assert receipts == twin_receipts
    assert node.state_root == twin.state_root
    assert node.chain[-1].hash() == twin.chain[-1].hash()
    assert state_digest_bytes(node.state) == state_digest_bytes(twin.state)
    assert (node.state.get_balance(node.coinbase)
            == twin.state.get_balance(twin.coinbase))


@settings(max_examples=40, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_replay_commits_what_the_evm_computes(deployment, ops, seed):
    txs = build_txs(deployment, ops, seed)
    node = Node(state=genesis(deployment))
    with use_registry() as registry:
        block = propose(node, txs)
        receipts = node.execute_block(block)
        counters = registry.counters_flat()
    # One EVM pass (discovery); execution was journal replay throughout.
    assert counters["evm.tx_executions"] == len(txs)
    assert counters["evm.tx_reuses"] == node.txs_replayed == len(txs)
    assert "evm.tx_reexecutions" not in counters
    assert node.txs_reexecuted == 0
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


@settings(max_examples=20, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16), victim=st.integers(0, 9))
def test_state_changed_under_a_read_key_reexecutes(
    deployment, ops, seed, victim
):
    """Another writer got in between propose and execute: the sender's
    balance is no longer what discovery saw."""
    txs = build_txs(deployment, ops, seed)
    sender = txs[victim % len(txs)].sender

    def drain(target):
        target.state.set_balance(
            sender, target.state.get_balance(sender) // 2 + 7
        )

    node = Node(state=genesis(deployment))
    block = propose(node, txs)
    drain(node)
    with use_registry() as registry:
        receipts = node.execute_block(block)
        counters = registry.counters_flat()
    assert node.txs_reexecuted >= 1
    assert counters["evm.tx_reexecutions"] == node.txs_reexecuted
    assert node.txs_replayed + node.txs_reexecuted == len(txs)
    twin_receipts, twin = evm_only_twin(deployment, block, prepare=drain)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def _transfer_block(deployment, count=6):
    node = Node(state=genesis(deployment))
    txs = make_transactions(deployment, count, workload="transfer", seed=4)
    return node, propose(node, txs)


def test_poisoned_read_value_reexecutes_only_that_transaction(deployment):
    node, block = _transfer_block(deployment)
    artifact = block.artifacts[2]
    # read_values is built from a set: its first key varies with the
    # process's string-hash seed and may be the recipient's code (bytes).
    key = next(
        key for key, value in artifact.read_values.items()
        if isinstance(value, int)
    )
    artifact.read_values[key] = artifact.read_values[key] + 1
    receipts = node.execute_block(block)
    assert (node.txs_replayed, node.txs_reexecuted) == (5, 1)
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def test_misplaced_artifacts_are_not_trusted(deployment):
    """Right length, wrong transaction: both swapped slots re-execute."""
    node, block = _transfer_block(deployment)
    block.artifacts[0], block.artifacts[1] = (
        block.artifacts[1], block.artifacts[0]
    )
    receipts = node.execute_block(block)
    assert (node.txs_replayed, node.txs_reexecuted) == (4, 2)
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def forbid_replay(monkeypatch):
    """Any journal replay from here on is a test failure."""
    def refuse(self, state):
        raise AssertionError("a write journal was replayed")

    monkeypatch.setattr(WriteJournal, "apply", refuse)


@pytest.fixture()
def no_replay(monkeypatch):
    forbid_replay(monkeypatch)


def test_wrong_length_artifact_list_is_ignored(deployment, no_replay):
    node, block = _transfer_block(deployment)
    block.artifacts = block.artifacts[:-1]
    receipts = node.execute_block(block)
    assert node.txs_replayed == node.txs_reexecuted == 0
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def test_other_nodes_and_verify_block_run_the_evm(deployment, no_replay):
    """Artifacts are the proposer's own: a peer handed the very same
    block object (artifacts attached) executes or verifies it for real."""
    proposer, block = _transfer_block(deployment)
    executing_peer = Node(state=genesis(deployment))
    receipts = executing_peer.execute_block(block)
    assert executing_peer.txs_replayed == 0
    verifying_peer = Node(state=genesis(deployment))
    assert verifying_peer.verify_block(block, receipts_root(receipts))
    # The proposer itself verifying its own block does not replay either.
    assert proposer.verify_block(block, receipts_root(receipts))
    assert proposer.txs_replayed == 0


def test_recovery_runs_the_evm(deployment, tmp_path, monkeypatch):
    node = Node(state=genesis(deployment))
    attach(node, str(tmp_path), StorageConfig(fsync="never"))
    txs = make_transactions(deployment, 8, workload="erc20", seed=9)
    for start in (0, 4):
        node.execute_block(propose(node, txs[start:start + 4]))
    assert node.txs_replayed == 8
    digest = state_digest_bytes(node.state)
    node.store.close()

    forbid_replay(monkeypatch)
    result = recover(str(tmp_path))
    assert result.height == 2
    assert result.state_digest == digest
    assert result.node.txs_replayed == 0


class TestHeaderHashIsComputedOnce:
    HEADER = BlockHeader(
        height=3, timestamp=1_600_000_039, coinbase=0xC0FFEE,
        difficulty=1, gas_limit=30_000_000, parent_hash=b"\x11" * 32,
    )

    def test_sealing_does_not_carry_the_unsealed_hash(self):
        unsealed = self.HEADER.hash()
        sealed = dataclasses.replace(self.HEADER, state_root=b"\x22" * 32)
        assert "_hash" not in sealed.__dict__
        assert sealed.hash() != unsealed
        assert sealed.hash() == BlockHeader.from_rlp(sealed.to_rlp()).hash()
        assert self.HEADER.hash() == unsealed

    def test_cached_hash_is_not_part_of_the_value(self):
        twin = BlockHeader.from_rlp(self.HEADER.to_rlp())
        self.HEADER.hash()
        assert twin == self.HEADER
        assert hash(twin) == hash(self.HEADER)

    def test_pickled_header_hashes_the_same(self):
        for warm in (False, True):
            header = dataclasses.replace(self.HEADER)
            if warm:
                header.hash()
            clone = pickle.loads(pickle.dumps(header))
            assert clone == header
            assert clone.hash() == header.hash()
