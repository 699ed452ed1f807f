"""The execute-once block pipeline through the ``mtpu`` engine.

The proposal's traced discovery (a follower's DAG-verification pass on
somebody else's block) is a full speculative execution of the block;
its artifacts are handed to the MTPU, which replays fresh ones instead
of re-running the EVM. The headline invariant: on a happy ERC-20 block
every transaction executes functionally exactly once
(``evm.tx_executions == len(block.transactions)``), and the replay path
never changes what the block commits — even under injected PU faults.
"""

import random

import pytest

from repro.chain.block import Block
from repro.chain.node import Node
from repro.chain.receipt import receipts_root
from repro.faults import (
    PU_DEAD,
    PU_STALL,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    PUFault,
)
from repro.obs import use_registry
from repro.workload import ActionLibrary


@pytest.fixture()
def node(deployment):
    return Node(state=deployment.state.copy())


def feed_erc20(node, deployment, count, seed=21):
    library = ActionLibrary(deployment, random.Random(seed))
    for _ in range(count):
        node.hear(library.to_transaction(library.plan("Dai")))


class TestExecuteOnce:
    def test_erc20_block_executes_each_tx_once(self, node, deployment):
        feed_erc20(node, deployment, 12)
        # The proposer replays its own traced discovery; a follower gets
        # the sealed block off the wire, and its traced DAG-verification
        # pass is the block's one execution there.
        with use_registry() as proposing:
            block = node.propose_block(executor="mtpu")
            node.execute_block(block, executor="mtpu")
        follower = Node(state=deployment.state.copy())
        with use_registry() as following:
            follower.execute_block(
                Block.from_rlp(block.to_rlp()), executor="mtpu"
            )
        assert follower.state_root == node.state_root
        n = len(block.transactions)
        for registry in (proposing, following):
            counters = registry.counters_flat()
            # One functional execution per transaction; the MTPU stage
            # replayed every artifact.
            assert counters["evm.tx_executions"] == n
            assert counters["evm.tx_reuses"] == n
            # Re-execution is counted separately and stayed silent.
            assert counters.get("evm.tx_reexecutions", 0) == 0
            assert DegradationReport.from_registry(registry) == (
                DegradationReport()
            )

    def test_replay_commits_same_state_as_plain_node(self, node,
                                                     deployment):
        feed_erc20(node, deployment, 16, seed=22)
        block = node.propose_block(executor="mtpu")
        reference = Node(state=deployment.state.copy())
        ref_receipts = reference.execute_block(block)
        receipts = node.execute_block(
            block, executor="mtpu",
            claimed_receipts_root=receipts_root(ref_receipts),
        )
        assert receipts == ref_receipts
        assert (
            node.state.state_digest()
            == reference.state.state_digest()
        )

    def test_stale_artifact_reexecutes_functionally(self, node,
                                                    deployment):
        # Poison the artifacts' recorded read values after discovery:
        # the MTPU must detect staleness and fall back to real execution,
        # still landing on the sequential result.
        feed_erc20(node, deployment, 8, seed=23)
        block = node.propose_block(executor="mtpu")
        reference = Node(state=deployment.state.copy())
        ref_receipts = reference.execute_block(block)

        from repro.chain.dag import discover_access_sets
        from repro.core.mtpu import MTPUExecutor
        from repro.core.scheduler import run_sequential

        state = deployment.state.copy()
        context = node.block_context(block.header)
        artifacts = discover_access_sets(
            block.transactions, state, context, trace=True
        )
        by_hash = {a.tx.hash(): a for a in artifacts}
        # Corrupt every artifact's read values: none may replay.
        for artifact in artifacts:
            for key in artifact.read_values:
                artifact.read_values[key] = object()
        with use_registry() as registry:
            mtpu = MTPUExecutor(state, block=context, artifacts=by_hash)
            schedule = run_sequential(mtpu, block.transactions)
        assert registry.total("evm.tx_reuses") == 0
        assert registry.total("evm.tx_reexecutions") == len(
            block.transactions
        )
        assert receipts_root(
            schedule.receipts_in_block_order(block.transactions)
        ) == receipts_root(ref_receipts)
        assert state.state_digest() == reference.state.state_digest()


class TestReplayUnderPUFaults:
    @pytest.mark.parametrize("kind", [PU_DEAD, PU_STALL])
    def test_digest_matches_sequential_under_pu_fault(
        self, deployment, kind
    ):
        injector = FaultInjector(FaultPlan(
            seed=5,
            pu_faults=(PUFault(
                pu_id=1, kind=kind, at_cycle=50,
                stall_cycles=2_000 if kind == PU_STALL else 0,
            ),),
        ))
        node = Node(state=deployment.state.copy())
        feed_erc20(node, deployment, 14, seed=24)
        block = node.propose_block(executor="mtpu")
        reference = Node(state=deployment.state.copy())
        ref_receipts = reference.execute_block(block)
        with use_registry() as registry:
            receipts = node.execute_block(
                block, executor="mtpu", num_workers=3,
                fault_injector=injector,
                claimed_receipts_root=receipts_root(ref_receipts),
            )
        assert receipts == ref_receipts
        report = DegradationReport.from_registry(registry)
        assert report.pu_failures_detected + report.pu_stalls_detected == 1
        assert (
            node.state.state_digest()
            == reference.state.state_digest()
        )
