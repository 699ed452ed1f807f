"""The paper's verifying node — ``Node`` on the ``mtpu`` engine: full
lifecycle with dynamic hotspots."""

import random

import pytest

from repro.chain.dag import discover_access_sets
from repro.chain.node import Node, ReceiptsRootMismatchError, StageClock
from repro.chain.receipt import receipts_root
from repro.core.mtpu import MTPUExecutor
from repro.core.scheduler import run_spatial_temporal
from repro.obs import use_registry
from repro.workload import ActionLibrary


@pytest.fixture()
def node(deployment):
    return Node(state=deployment.state.copy())


def feed(node, deployment, contracts, count, seed=0):
    library = ActionLibrary(deployment, random.Random(seed))
    for i in range(count):
        contract = contracts[i % len(contracts)]
        node.hear(library.to_transaction(library.plan(contract)))


def execute(node, block=None, claimed=None):
    """One block on the ``mtpu`` engine (the node's next proposal by
    default — its idle slice included), under a registry of its own:
    (receipts, registry)."""
    with use_registry() as registry:
        if block is None:
            block = node.propose_block(executor="mtpu")
        receipts = node.execute_block(
            block, executor="mtpu", claimed_receipts_root=claimed
        )
    return receipts, registry


def optimized(node):
    return node.hotspots.optimizer.hotspot_addresses


class TestLifecycle:
    def test_block_executes_and_chain_advances(self, node, deployment):
        feed(node, deployment, ["Dai"], 12)
        receipts, registry = execute(node)
        assert len(node.chain) == 1
        assert all(r.success for r in receipts)
        assert registry.total("sched.makespan_cycles") > 0

    def test_matches_plain_node(self, node, deployment):
        feed(node, deployment, ["Dai", "TetherToken"], 16, seed=3)
        block = node.propose_block(executor="mtpu")

        reference_node = Node(state=deployment.state.copy())
        reference = reference_node.execute_block(block)
        receipts, _ = execute(node, block, claimed=receipts_root(reference))
        assert receipts == reference
        assert (
            node.state.state_digest()
            == reference_node.state.state_digest()
        )

    def test_wrong_claimed_root_rejected(self, node, deployment):
        feed(node, deployment, ["Dai"], 6, seed=4)
        digest = node.state.state_digest()
        with pytest.raises(ReceiptsRootMismatchError):
            execute(node, claimed=b"\x00" * 32)
        assert node.chain == []
        assert node.state.state_digest() == digest

    def test_no_claimed_root_unverified(self, node, deployment):
        # Nothing to compare the receipts with: the block commits under
        # the root its own execution sealed.
        feed(node, deployment, ["Dai"], 4, seed=5)
        receipts, _ = execute(node)
        block = node.chain[-1]
        assert node.receipts[block.hash()] == receipts
        assert block.header.state_root == node.state_root != b""


class TestDynamicHotspots:
    def test_hotspots_emerge_from_traffic(self, node, deployment):
        # Block 1: heavy Dai traffic. Nothing is profiled before a block
        # has committed; the idle slice at the top of block 2 makes Dai
        # a hotspot, and block 2's Dai transactions carry its plans.
        dai = deployment.address_of("Dai")
        feed(node, deployment, ["Dai"], 16, seed=6)
        _, first = execute(node)
        assert first.total("hotspot.contracts_optimized") == 0
        assert optimized(node) == set()

        feed(node, deployment, ["Dai"], 10, seed=7)
        _, second = execute(node)
        assert optimized(node) == {dai}
        assert second.total("hotspot.contracts_optimized") == 1
        assert second.total("hotspot.plans_applied") > 0

    def test_hotspot_reoptimization_is_idempotent(self, node, deployment):
        profiled = []
        for seed in (8, 9, 10):
            feed(node, deployment, ["Dai"], 12, seed=seed)
            _, registry = execute(node)
            profiled.append(registry.total("hotspot.contracts_optimized"))
        # Already-optimized contracts are not re-profiled.
        assert profiled == [0, 1, 0]
        assert deployment.address_of("Dai") in optimized(node)

    def test_traffic_shift_retargets_optimizer(self, node, deployment):
        feed(node, deployment, ["Dai"], 12, seed=10)
        execute(node)
        # Traffic moves to WETH9 for several blocks.
        for i in range(3):
            feed(node, deployment, ["WETH9"], 12, seed=11 + i)
            execute(node)
        weth = deployment.address_of("WETH9")
        assert weth in optimized(node)
        assert node.hotspots.tracker.current_hotspots(1) == [weth]

    def test_the_idle_budget_bounds_each_slice(self, deployment):
        # A 0.2 interval leaves 0.19 idle: 19 samples at 0.01 each.
        # Two hotspots of 12 samples do not fit in one slice; the one
        # left over is profiled in the next.
        node = Node(
            state=deployment.state.copy(),
            clock=StageClock(block_interval=0.2),
        )
        profiled = []
        for seed in (40, 41, 42):
            feed(node, deployment, ["Dai", "TetherToken"], 24, seed=seed)
            _, registry = execute(node)
            profiled.append(registry.total("hotspot.contracts_optimized"))
        assert profiled == [0, 1, 1]
        assert optimized(node) == {
            deployment.address_of("Dai"),
            deployment.address_of("TetherToken"),
        }

    def test_hotspot_acceleration_measurable(self, node, deployment):
        # The second block on a node whose optimizer has warmed up beats
        # the same block from the same state on a cold MTPU.
        feed(node, deployment, ["Dai"], 14, seed=20)
        execute(node)
        feed(node, deployment, ["Dai"], 14, seed=21)
        before = node.state.copy()
        block = node.propose_block(executor="mtpu")
        context = node.block_context(block.header)
        _, registry = execute(node, block)
        hot = registry.total("sched.makespan_cycles")

        artifacts = discover_access_sets(
            block.transactions, before, context, trace=True
        )
        cold = run_spatial_temporal(
            MTPUExecutor(artifacts, num_pus=4),
            block.transactions, block.dag_edges,
        )
        assert cold.receipts_in_block_order(block.transactions) == (
            node.receipts[block.hash()]
        )
        assert 0 < hot < cold.makespan_cycles


class TestMempoolIntegration:
    def test_unheard_transactions_not_preexecuted(self, node, deployment):
        """Transactions arriving only inside the block (never
        disseminated) skip pre-execution but still execute correctly."""
        feed(node, deployment, ["Dai"], 10, seed=30)
        # Warm up the optimizer on Dai first.
        execute(node)

        # A block containing a transaction this node never heard: its
        # artifacts no longer line up, so the node discovers the block
        # itself and checks the proposal's DAG against what it found.
        library = ActionLibrary(deployment, random.Random(31))
        stranger_tx = library.to_transaction(library.plan("Dai"))
        feed(node, deployment, ["Dai"], 5, seed=32)
        block2 = node.propose_block(executor="mtpu")
        block2.transactions.append(stranger_tx)
        receipts, registry = execute(node, block2)
        assert all(r.success for r in receipts)
        # Every transaction got a plan (Dai is a hotspot contract), but
        # the stranger's could not pre-execute.
        assert registry.total("hotspot.plans_applied") == len(receipts)
        plan = node.hotspots.optimizer.plan_for(
            stranger_tx, node.state.get_code(stranger_tx.to)
        )
        assert plan is not None
        assert plan.preexecute is False
