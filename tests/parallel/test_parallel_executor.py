"""The declared-access-set engine against its sequential contract.

Every test pins the same invariant from a different angle: whatever mix
of artifact replay, EVM execution and fallback the executor takes, the
resulting receipts and ``state_digest()`` must be bit-identical to plain
block-order sequential execution.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.dag import discover_access_sets
from repro.chain.node import Node
from repro.chain.state import AccessSet
from repro.chain.transaction import Transaction
from repro.evm.interpreter import EVM
from repro.obs import use_registry
from repro.parallel import ParallelBlockExecutor
from repro.serve.loadgen import make_transactions
from repro.workload.generator import (
    generate_block,
    generate_dependency_block,
)


def sequential_reference(deployment, transactions):
    state = deployment.state.copy()
    evm = EVM(state)
    receipts = [evm.execute_transaction(tx) for tx in transactions]
    return receipts, state.state_digest()


def discover(deployment, transactions):
    state = deployment.state.copy()
    return state, discover_access_sets(transactions, state)


class TestSerialBackend:
    def test_matches_sequential(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=24, target_ratio=0.5, seed=11
        )
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state)
        result = executor.execute_block(
            block.transactions, artifacts
        )
        assert result.receipts == receipts
        assert state.state_digest() == digest
        assert result.executed_inline == len(block.transactions)
        assert not result.fell_back

    def test_pipeline_replays_fresh_artifacts(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=24, target_ratio=0.25, seed=12
        )
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state)
        result = executor.execute_block(
            block.transactions, artifacts, artifacts=artifacts
        )
        assert result.receipts == receipts
        assert state.state_digest() == digest
        # Discovery ran sequentially in block order, the DAG respects
        # every conflict, so every artifact replays fresh.
        assert result.replayed == len(block.transactions)
        assert result.stale_artifacts == 0

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
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state)
        result = executor.execute_block(
            block.transactions, artifacts,
            artifacts=artifacts if use_artifacts else None,
        )
        assert result.receipts == receipts
        assert state.state_digest() == digest

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=255))
    def test_mixed_traffic_blocks_property(self, deployment, seed):
        # Realistic Zipf traffic: repeated contracts, repeated senders,
        # native transfers — the hostile case for journal merging.
        block = generate_block(deployment, num_transactions=12, seed=seed)
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state)
        result = executor.execute_block(
            block.transactions, artifacts, artifacts=artifacts
        )
        assert result.receipts == receipts
        assert state.state_digest() == digest


class TestAccessMismatchFallback:
    def _corrupt(self, artifacts, index):
        """Declared sets with *index*'s writes understated."""
        declared = [
            AccessSet(reads=set(a.reads), writes=set(a.writes))
            for a in artifacts
        ]
        victim = declared[index]
        assert victim.writes, "need a writing transaction to corrupt"
        victim.writes.pop()
        return declared

    def test_fallback_restores_sequential_result(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=10, target_ratio=0.5, seed=16
        )
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts = discover(deployment, block.transactions)
        declared = self._corrupt(artifacts, index=0)
        result = ParallelBlockExecutor(state).execute_block(
            block.transactions, declared
        )
        assert result.fell_back
        assert result.mismatches
        assert result.receipts == receipts
        assert state.state_digest() == digest

    def test_fallback_counter_published(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.5, seed=17
        )
        state, artifacts = discover(deployment, block.transactions)
        declared = self._corrupt(artifacts, index=0)
        with use_registry() as registry:
            executor = ParallelBlockExecutor(state)
            executor.execute_block(block.transactions, declared)
            counters = registry.counters_flat()
        assert counters.get("parallel.fallbacks") == 1

    def test_clean_run_publishes_worker_metrics(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.0, seed=18
        )
        state, artifacts = discover(deployment, block.transactions)
        with use_registry() as registry:
            executor = ParallelBlockExecutor(state)
            executor.execute_block(
                block.transactions, artifacts, artifacts=artifacts
            )
            counters = registry.counters_flat()
        assert counters.get("parallel.replayed") == len(block.transactions)
        assert "parallel.fallbacks" not in counters


class TestCoinbaseReadFallback:
    def test_transfer_to_the_coinbase_runs_the_block_sequentially(
        self, deployment
    ):
        """A transfer *to* the block's coinbase reads the balance every
        transaction's fee credits, in an order no declared set states:
        the engine runs the block sequentially instead, and lands where
        an artifact-less EVM replay on a second node lands."""
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
            counters = registry.counters_flat()
        assert counters.get("parallel.fallbacks") == 1

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
        """On a block whose artifacts are part fresh, part stale the walk
        replays the fresh ones, runs the stale ones through the EVM and
        lands where one EVM pass lands — same receipts, same state."""
        block = generate_dependency_block(
            deployment, num_transactions=16, target_ratio=0.5, seed=19
        )
        txs = block.transactions
        state, artifacts = discover(deployment, txs)
        # Stale every artifact that read this balance, without changing
        # what any transaction touches.
        victim = txs[0].sender
        state.set_balance(victim, state.get_balance(victim) + 1)
        state.clear_journal()
        reference = state.copy()
        evm = EVM(reference)
        receipts = [evm.execute_transaction(tx) for tx in txs]

        result = ParallelBlockExecutor(state).execute_block(
            txs, artifacts, artifacts=artifacts
        )
        assert not result.fell_back
        assert result.receipts == receipts
        assert state.state_digest() == reference.state_digest()
        assert 0 < result.stale_artifacts < len(txs)
        assert result.executed_inline == result.stale_artifacts
        assert result.replayed + result.stale_artifacts == len(txs)
