"""The multicore parallel backend against its sequential contract.

Every test pins the same invariant from a different angle: whatever mix
of artifact replay, inline execution, worker dispatch and fallback the
coordinator picks, the resulting receipts and ``state_digest()`` must be
bit-identical to plain block-order sequential execution.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.dag import build_dag_edges, discover_access_sets
from repro.chain.state import AccessSet
from repro.evm.interpreter import EVM
from repro.obs import use_registry
from repro.parallel import ParallelBlockExecutor
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
    artifacts = discover_access_sets(transactions, state)
    edges = build_dag_edges(transactions, artifacts)
    return state, artifacts, edges


class TestSerialBackend:
    def test_matches_sequential(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=24, target_ratio=0.5, seed=11
        )
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts, edges = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state, backend="serial")
        result = executor.execute_block(
            block.transactions, edges, artifacts
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
        state, artifacts, edges = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state, backend="serial")
        result = executor.execute_block(
            block.transactions, edges, artifacts, artifacts=artifacts
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
        state, artifacts, edges = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state, backend="serial")
        result = executor.execute_block(
            block.transactions, edges, artifacts,
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
        state, artifacts, edges = discover(deployment, block.transactions)
        executor = ParallelBlockExecutor(state, backend="serial")
        result = executor.execute_block(
            block.transactions, edges, artifacts, artifacts=artifacts
        )
        assert result.receipts == receipts
        assert state.state_digest() == digest


class TestProcessBackend:
    def test_matches_sequential(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=16, target_ratio=0.25, seed=13
        )
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts, edges = discover(deployment, block.transactions)
        with ParallelBlockExecutor(
            state, num_workers=2, backend="process"
        ) as executor:
            result = executor.execute_block(
                block.transactions, edges, artifacts
            )
        assert result.backend == "process"
        assert result.receipts == receipts
        assert state.state_digest() == digest
        assert result.dispatched == len(block.transactions)
        assert not result.fell_back

    def test_pool_survives_across_blocks(self, deployment):
        first = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.0, seed=14
        )
        second = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.0, seed=15
        )
        # Sequential reference: both blocks applied in order.
        state_ref = deployment.state.copy()
        evm = EVM(state_ref)
        for tx in first.transactions + second.transactions:
            evm.execute_transaction(tx)

        state = deployment.state.copy()
        with ParallelBlockExecutor(
            state, num_workers=2, backend="process"
        ) as executor:
            for block in (first, second):
                artifacts = discover_access_sets(block.transactions, state)
                edges = build_dag_edges(block.transactions, artifacts)
                result = executor.execute_block(
                    block.transactions, edges, artifacts
                )
                assert not result.fell_back
        assert state.state_digest() == state_ref.state_digest()


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

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_fallback_restores_sequential_result(
        self, deployment, backend
    ):
        block = generate_dependency_block(
            deployment, num_transactions=10, target_ratio=0.5, seed=16
        )
        receipts, digest = sequential_reference(
            deployment, block.transactions
        )
        state, artifacts, edges = discover(deployment, block.transactions)
        declared = self._corrupt(artifacts, index=0)
        with ParallelBlockExecutor(
            state, num_workers=2, backend=backend
        ) as executor:
            result = executor.execute_block(
                block.transactions, edges, declared
            )
        assert result.fell_back
        assert result.mismatches
        assert result.receipts == receipts
        assert state.state_digest() == digest

    def test_fallback_counter_published(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.5, seed=17
        )
        state, artifacts, edges = discover(deployment, block.transactions)
        declared = self._corrupt(artifacts, index=0)
        with use_registry() as registry:
            executor = ParallelBlockExecutor(state, backend="serial")
            executor.execute_block(block.transactions, edges, declared)
            counters = registry.counters_flat()
        assert counters.get("parallel.fallbacks") == 1

    def test_clean_run_publishes_worker_metrics(self, deployment):
        block = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.0, seed=18
        )
        state, artifacts, edges = discover(deployment, block.transactions)
        with use_registry() as registry:
            executor = ParallelBlockExecutor(
                state, num_workers=3, backend="serial"
            )
            executor.execute_block(
                block.transactions, edges, artifacts, artifacts=artifacts
            )
            counters = registry.counters_flat()
        assert counters.get("parallel.replayed") == len(block.transactions)
        assert "parallel.fallbacks" not in counters


class TestSerialWalksBlockOrder:
    def test_serial_equals_process_on_mixed_fresh_and_stale(
        self, deployment
    ):
        """The serial backend walks the block in order instead of
        draining the DAG's ready heap; on a block whose artifacts are
        part fresh, part stale it must land where the process backend
        (which still schedules off the heap) lands — same receipts,
        same state, same replay/stale accounting."""
        block = generate_dependency_block(
            deployment, num_transactions=16, target_ratio=0.5, seed=19
        )
        txs = block.transactions
        state, artifacts, edges = discover(deployment, txs)
        # Stale every artifact that read this balance, without changing
        # what any transaction touches.
        victim = txs[0].sender
        state.set_balance(victim, state.get_balance(victim) + 1)
        state.clear_journal()
        reference = state.copy()
        evm = EVM(reference)
        receipts = [evm.execute_transaction(tx) for tx in txs]

        outcomes = {}
        for backend in ("serial", "process"):
            run_state = state.copy()
            with ParallelBlockExecutor(
                run_state, num_workers=2, backend=backend
            ) as executor:
                result = executor.execute_block(
                    txs, edges, artifacts, artifacts=artifacts
                )
            assert result.backend == backend
            assert not result.fell_back
            assert result.receipts == receipts
            assert run_state.state_digest() == reference.state_digest()
            outcomes[backend] = result
        serial, process = outcomes["serial"], outcomes["process"]
        assert 0 < serial.stale_artifacts < len(txs)
        assert serial.replayed == process.replayed
        assert serial.stale_artifacts == process.stale_artifacts
        assert serial.executed_inline == serial.stale_artifacts
        assert process.dispatched == process.stale_artifacts
        assert serial.replayed + serial.stale_artifacts == len(txs)
