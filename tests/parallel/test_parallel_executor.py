"""The ``parallel`` engine against its sequential contract.

``parallel`` commits this node's own proposal as its discovery left it
or, on anyone else's block, runs a discovery of its own in block order
(the shipped DAG checked against it) and commits that. Every test pins
the same invariant from a different angle: either way, the receipts and
``state_digest()`` are bit-identical to plain block-order sequential
execution, from one EVM run per transaction.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.node import Node, StaleProposalError
from repro.chain.transaction import Transaction
from repro.evm.interpreter import EVM
from repro.obs import use_registry
from repro.serve.loadgen import make_transactions
from repro.workload.generator import (
    generate_block,
    generate_dependency_block,
)


def sequential_reference(deployment, transactions, context):
    state = deployment.state.copy()
    evm = EVM(state, block=context)
    receipts = [evm.execute_transaction(tx) for tx in transactions]
    return receipts, state.state_digest()


def run_parallel(deployment, transactions, own=True):
    """*transactions* through ``Node.execute_block(executor="parallel")``:
    as the node's own proposal (*own*), else as a second node handed the
    proposal off the wire, without its artifacts. Returns the node and
    the counters ``execute_block`` published."""
    proposer = Node(state=deployment.state.copy())
    block = proposer.propose_block(
        transactions=transactions, executor="parallel"
    )
    assert block.transactions == transactions
    node = proposer if own else Node(state=deployment.state.copy())
    if not own:
        block = Block.from_rlp(block.to_rlp())
    with use_registry() as registry:
        receipts = node.execute_block(block, executor="parallel")
    reference = sequential_reference(
        deployment, transactions, node.block_context(block.header)
    )
    assert receipts == reference[0]
    assert node.state.state_digest() == reference[1]
    return node, registry.counters_flat()


class TestSerialBackend:
    def test_matches_sequential(self, deployment):
        """A follower's discovery is its execution of the block."""
        block = generate_dependency_block(
            deployment, num_transactions=24, target_ratio=0.5, seed=11
        )
        _, counters = run_parallel(
            deployment, block.transactions, own=False
        )
        assert counters["evm.tx_executions"] == len(block.transactions)

    def test_pipeline_replays_fresh_artifacts(self, deployment):
        """The node's own proposal: its discovery ran in block order on
        the state the block commits to, and is what commits."""
        block = generate_dependency_block(
            deployment, num_transactions=24, target_ratio=0.25, seed=12
        )
        _, counters = run_parallel(deployment, block.transactions)
        assert "evm.tx_executions" not in counters
        assert "evm.tx_reuses" not in counters
        assert "evm.tx_reexecutions" not in counters
        assert not any(name.startswith("parallel.") for name in counters)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=255),
        ratio=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
        use_artifacts=st.booleans(),
    )
    def test_generator_blocks_property(
        self, deployment, seed, ratio, use_artifacts
    ):
        block = generate_dependency_block(
            deployment, num_transactions=16, target_ratio=ratio, seed=seed
        )
        run_parallel(deployment, block.transactions, own=use_artifacts)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=255))
    def test_mixed_traffic_blocks_property(self, deployment, seed):
        # Realistic Zipf traffic: repeated contracts, repeated senders,
        # native transfers — the hostile case for journal merging.
        block = generate_block(deployment, num_transactions=12, seed=seed)
        run_parallel(deployment, block.transactions)


class TestCoinbaseReadFallback:
    def test_transfer_to_the_coinbase_runs_the_block_sequentially(
        self, deployment
    ):
        """A transfer *to* the block's coinbase reads the balance every
        transaction's fee credits. Discovery runs in block order, so the
        credits it read are the ones that commit (no fallback exists),
        and the block lands where an artifact-less EVM replay on a
        second node lands."""
        node = Node(state=deployment.state.copy())
        txs = make_transactions(deployment, 6, workload="transfer", seed=3)
        tx = txs[2]
        txs[2] = Transaction(
            sender=tx.sender, to=node.coinbase, nonce=tx.nonce,
            value=tx.value, gas_limit=tx.gas_limit,
        )
        for tx in txs:
            node.hear(tx)
        block = node.propose_block(
            max_transactions=len(txs), executor="parallel"
        )
        assert block.transactions == txs
        with use_registry() as registry:
            receipts = node.execute_block(block, executor="parallel")
        assert "evm.tx_executions" not in registry.counters_flat()

        reference = Node(state=deployment.state.copy())
        plain = dataclasses.replace(
            block,
            header=dataclasses.replace(block.header, state_root=b""),
            artifacts=None,
        )
        assert receipts == reference.execute_block(plain)
        assert node.state.state_digest() == reference.state.state_digest()


class TestSerialWalksBlockOrder:
    def test_mixed_artifacts_match_the_evm(
        self, deployment
    ):
        """A write to the state between propose and execute (here: a
        balance some transactions read) is refused at the commit — it
        would be sealed into the block's root with no transaction having
        made it. The node is back where the proposal found it, and the
        block then lands where one EVM pass over that state lands."""
        block = generate_dependency_block(
            deployment, num_transactions=16, target_ratio=0.5, seed=19
        )
        txs = block.transactions
        node = Node(state=deployment.state.copy())
        state = node.state
        reference = state.copy()
        proposal = node.propose_block(transactions=txs, executor="parallel")
        victim = txs[0].sender
        state.set_balance(victim, state.get_balance(victim) + 1)
        with pytest.raises(StaleProposalError):
            node.execute_block(proposal, executor="parallel")
        assert state.state_digest() == reference.state_digest()
        assert not node.chain

        evm = EVM(reference, block=node.block_context(proposal.header))
        receipts = [evm.execute_transaction(tx) for tx in txs]
        assert node.execute_block(proposal, executor="parallel") == receipts
        assert state.state_digest() == reference.state_digest()
