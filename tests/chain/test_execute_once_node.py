"""Execute-once on the in-order path: a node's own proposal is its
execution. ``Node.propose_block`` for ``sequential`` or ``parallel``
leaves the block's effects on the state (an open proposal), and
``Node.execute_block`` of that block commits them as they stand.

The invariants: the commit equals what a fresh node computes by running
the same block through the EVM, with one EVM run per transaction; the
state moving under an open proposal is refused; nothing riding on
``block.artifacts`` is ever applied; every other entry abandons the
proposal, leaving the node bit-identical to how the proposal found it;
and the paths whose job is to *check* a block — a different node,
``verify_block``, recovery — run the EVM.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction
from repro.chain.block import BlockHeader
from repro.chain.node import Node, StaleProposalError
from repro.chain.receipt import receipts_root
from repro.chain.state import AccessSet
from repro.contracts.asm import assemble
from repro.obs import use_registry
from repro.serve.batcher import BlockBuilder
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_transactions
from repro.storage import AppendFailedError, StorageConfig, attach, recover
from repro.storage.codec import state_digest_bytes
from repro.trie import StateTrie

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


def executions(registry):
    return registry.counters_flat().get("evm.tx_executions", 0)


@settings(max_examples=40, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_replay_commits_what_the_evm_computes(deployment, ops, seed):
    txs = build_txs(deployment, ops, seed)
    node = Node(state=genesis(deployment))
    with use_registry() as registry:
        block = propose(node, txs)
        receipts = node.execute_block(block)
        counters = registry.counters_flat()
    # One EVM pass (discovery), committed as it stands.
    assert counters["evm.tx_executions"] == len(txs)
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def where(node):
    """Everything a proposal may touch, bit for bit."""
    return (
        state_digest_bytes(node.state),
        node.state_root,
        list(node.state._journal),
        list(node.chain),
    )


@settings(max_examples=20, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16), victim=st.integers(0, 9))
def test_state_changed_under_a_read_key_reexecutes(
    deployment, ops, seed, victim
):
    """Another writer got in between propose and execute: the sender's
    balance is no longer what discovery saw. Committing the proposal
    would seal that write into the block's root with no transaction
    having made it, so the commit is refused, the node rolls back to
    where the proposal found it (the stray write included), and the
    block then re-executes through the EVM."""
    txs = build_txs(deployment, ops, seed)
    sender = txs[victim % len(txs)].sender
    node = Node(state=genesis(deployment))
    before = where(node)
    block = propose(node, txs)
    node.state.set_balance(
        sender, node.state.get_balance(sender) // 2 + 7
    )
    with pytest.raises(StaleProposalError):
        node.execute_block(block)
    assert where(node) == before
    with use_registry() as registry:
        receipts = node.execute_block(block)
    assert executions(registry) == len(txs)
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def _transfer_block(deployment, count=6):
    node = Node(state=genesis(deployment))
    txs = make_transactions(deployment, count, workload="transfer", seed=4)
    return node, propose(node, txs)


def commits_as_proposed(deployment, node, block):
    """The open proposal commits with no engine pass and lands where a
    plain EVM run of the block does."""
    with use_registry() as registry:
        receipts = node.execute_block(block)
    assert executions(registry) == 0
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


def test_poisoned_read_value_reexecutes_only_that_transaction(deployment):
    """Editing ``block.artifacts`` of an open proposal changes nothing:
    the commit takes the receipts the node kept, not the block's."""
    node, block = _transfer_block(deployment)
    artifact = block.artifacts[2]
    # An untraced artifact carries a receipt and an access set: poison
    # both.
    artifact.access = AccessSet()
    artifact.receipt = dataclasses.replace(artifact.receipt, gas_used=1)
    commits_as_proposed(deployment, node, block)


def test_misplaced_artifacts_are_not_trusted(deployment):
    """Right length, wrong transaction: still nothing changes."""
    node, block = _transfer_block(deployment)
    block.artifacts[0], block.artifacts[1] = (
        block.artifacts[1], block.artifacts[0]
    )
    commits_as_proposed(deployment, node, block)


def test_wrong_length_artifact_list_is_ignored(deployment):
    node, block = _transfer_block(deployment)
    block.artifacts = block.artifacts[:-1]
    commits_as_proposed(deployment, node, block)


def test_other_nodes_and_verify_block_run_the_evm(deployment):
    """Artifacts are the proposer's own: a peer handed the very same
    block object (artifacts attached) executes or verifies it for real."""
    proposer, block = _transfer_block(deployment)
    count = len(block.transactions)
    executing_peer = Node(state=genesis(deployment))
    with use_registry() as registry:
        receipts = executing_peer.execute_block(block)
    assert executions(registry) == count
    verifying_peer = Node(state=genesis(deployment))
    assert verifying_peer.verify_block(block, receipts_root(receipts))
    # The proposer itself verifying its own block abandons the proposal
    # and runs the EVM too.
    with use_registry() as registry:
        assert proposer.verify_block(block, receipts_root(receipts))
    assert executions(registry) == count


def test_recovery_runs_the_evm(deployment, tmp_path):
    node = Node(state=genesis(deployment))
    attach(node, str(tmp_path), StorageConfig(fsync="never"))
    txs = make_transactions(deployment, 8, workload="erc20", seed=9)
    with use_registry() as registry:
        for start in (0, 4):
            node.execute_block(propose(node, txs[start:start + 4]))
    assert executions(registry) == 8
    digest = state_digest_bytes(node.state)
    node.store.close()

    with use_registry() as registry:
        result = recover(str(tmp_path))
    assert result.height == 2
    assert result.state_digest == digest
    assert executions(registry) == 8


# -- every other entry abandons the open proposal -----------------------------
def _second_proposal(node, txs):
    block = propose(node, txs)
    node.propose_block(max_transactions=0)
    return block, node.execute_block(block)


def _foreign_block(node, txs):
    block = propose(node, txs)
    foreign = dataclasses.replace(block, artifacts=None)
    return foreign, node.execute_block(foreign)


def _edited_block(node, txs):
    """The proposal's block object with its transaction list rebuilt:
    not the transactions the discovery ran, so not committed as run."""
    block = propose(node, txs)
    block.transactions = [dataclasses.replace(tx) for tx in txs]
    return block, node.execute_block(block)


def _mtpu(node, txs):
    block = propose(node, txs)
    return block, node.execute_block(block, executor="mtpu", num_workers=2)


def _verify_block(node, txs):
    block = propose(node, txs)
    claimed = receipts_root([artifact.receipt for artifact in block.artifacts])
    assert node.verify_block(block, claimed)
    return block, node.receipts[block.hash()]


def _builder_failure(node, txs):
    """The builder's failure path: the commit never ran (here: the
    store refused it before the engine was reached)."""
    for tx in txs:
        node.hear(tx)
    builder = BlockBuilder(node, ServeConfig(port=0, gas_target=None))
    proposed = []

    def refused(block):
        proposed.append(block)
        raise AppendFailedError("refused before the commit")

    builder._execute = refused
    with pytest.raises(AppendFailedError):
        builder._build_and_execute(node.cut(len(txs)))
    [block] = proposed
    return block, node.execute_block(block)


ABANDONING = {
    "propose_block": _second_proposal,
    "foreign_execute_block": _foreign_block,
    "edited_block": _edited_block,
    "mtpu_execute_block": _mtpu,
    "verify_block": _verify_block,
    "builder_failure": _builder_failure,
}


@pytest.mark.parametrize("entry", ABANDONING)
@settings(max_examples=8, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_an_abandoned_proposal_leaves_the_node_where_it_found_it(
    deployment, entry, ops, seed
):
    """Each entry that is not the commit of the open proposal first puts
    the node back, bit for bit, where the proposal found it; then the
    block applies through an execution of its own (one more run per
    transaction) and lands where a plain EVM run does."""
    txs = build_txs(deployment, ops, seed)
    node = Node(state=genesis(deployment))
    before = where(node)
    found = []
    abandon = node.abandon_proposal

    def watched():
        abandon()
        found.append(where(node))

    node.abandon_proposal = watched
    with use_registry() as registry:
        block, receipts = ABANDONING[entry](node, txs)
    assert found and all(state == before for state in found)
    assert node.state_root == StateTrie.rebuild_root(node.state)
    assert executions(registry) == 2 * len(txs)
    twin_receipts, twin = evm_only_twin(deployment, block)
    assert_same_outcome(node, receipts, twin, twin_receipts)


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
