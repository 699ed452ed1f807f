"""End-to-end integration: the full three-stage pipeline through every
execution path the paper evaluates."""

import random

from repro.chain.node import Node
from repro.chain.receipt import receipts_root
from repro.core.hotspot import HotspotOptimizer
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from repro.workload import (
    ActionLibrary,
    all_entry_function_calls,
    generate_block,
    generate_dependency_block,
)


class TestFullPipeline:
    """Dissemination -> consensus (DAG in block) -> parallel execution."""

    def test_block_through_all_executors(self, deployment):
        node = Node(state=deployment.state.copy())
        library = ActionLibrary(deployment, random.Random(71))
        for _ in range(24):
            node.hear(library.to_transaction(library.plan("Dai")))
        block = node.propose_block()

        # Reference: the node's own sequential execution stage.
        reference = node.execute_block(block)
        reference_root = receipts_root(reference)

        # An accelerated validator replays the same block on the MTPU
        # under each scheduler and must verify the same receipts.
        for runner, pus in (
            (run_sequential, 1),
            (run_synchronous, 4),
            (run_spatial_temporal, 4),
        ):
            executor = MTPUExecutor(
                deployment.state.copy(), num_pus=pus,
                pu_config=PUConfig(),
            )
            if runner is run_sequential:
                result = runner(executor, block.transactions)
            else:
                result = runner(
                    executor, block.transactions, block.dag_edges
                )
            assert receipts_root(
                result.receipts_in_block_order(block.transactions)
            ) == reference_root

    def test_multi_block_chain_stays_consistent(self, deployment):
        node = Node(state=deployment.state.copy())
        peer = Node(state=deployment.state.copy())
        library = ActionLibrary(deployment, random.Random(72))
        for height in range(3):
            for _ in range(8):
                node.hear(library.to_transaction(library.plan("WETH9")))
            block = node.propose_block()
            receipts = node.execute_block(block)
            assert peer.verify_block(block, receipts_root(receipts))
        assert node.state.state_digest() == peer.state.state_digest()


class TestHeadlineSpeedup:
    """The abstract's claim: 3.53x-16.19x over existing schemes."""

    def test_full_design_speedup_in_band(self):
        block = generate_dependency_block(
            num_transactions=64, target_ratio=0.2, seed=73
        )
        deployment = block.deployment

        optimizer = HotspotOptimizer(deployment.state)
        for name in ("Dai", "TokenA", "TokenB", "LinkToken",
                     "FiatTokenProxy", "WETH9"):
            samples = all_entry_function_calls(deployment, name, seed=74)
            optimizer.optimize_contract(
                deployment.address_of(name), samples
            )

        baseline = run_sequential(
            MTPUExecutor(
                deployment.state.copy(), num_pus=1,
                pu_config=PUConfig(enable_db_cache=False,
                                   redundancy_reuse=False),
            ),
            block.transactions,
        )
        full = run_spatial_temporal(
            MTPUExecutor(
                deployment.state.copy(), num_pus=4,
                pu_config=PUConfig(),
                hotspot_optimizer=optimizer,
            ),
            block.transactions,
            block.dag_edges,
        )
        speedup = full.speedup_over(baseline)
        assert 3.0 < speedup < 20.0
        # Correctness never traded away.
        assert receipts_root(
            baseline.receipts_in_block_order(block.transactions)
        ) == receipts_root(
            full.receipts_in_block_order(block.transactions)
        )


class TestMixedWorkloadRobustness:
    def test_realistic_block_parallel_execution(self, deployment):
        block = generate_block(deployment, num_transactions=50, seed=75)
        seq = run_sequential(
            MTPUExecutor(deployment.state.copy(), num_pus=1),
            block.transactions,
        )
        par = run_spatial_temporal(
            MTPUExecutor(deployment.state.copy(), num_pus=4),
            block.transactions, block.dag_edges,
        )
        assert receipts_root(
            seq.receipts_in_block_order(block.transactions)
        ) == receipts_root(par.receipts_in_block_order(block.transactions))
        # Realistic blocks have real dependencies, so gains are modest
        # but must exist relative to critical-path limits.
        assert par.makespan_cycles <= seq.makespan_cycles

    def test_value_transfer_only_block(self, deployment):
        block = generate_block(
            deployment, num_transactions=20, seed=76, sct_fraction=0.0
        )
        par = run_spatial_temporal(
            MTPUExecutor(deployment.state.copy(), num_pus=4),
            block.transactions, block.dag_edges,
        )
        assert len(par.executions) == 20


class TestMultiBlockSoak:
    """A longer soak: five 60-transaction blocks through ``Node`` on the
    ``mtpu`` engine, cross-checked against a plain node each block."""

    def test_five_block_soak(self, deployment):
        import random

        from repro.obs import use_registry
        from repro.workload import ActionLibrary

        node = Node(state=deployment.state.copy())
        plain = Node(state=deployment.state.copy())
        library = ActionLibrary(deployment, random.Random(777))
        mixes = [
            ["TetherToken", "Dai"],
            ["UniswapV2Router02", "Dai", "WETH9"],
            ["OpenSea", "TetherToken"],
            ["CryptoCat", "Dai", "LinkToken"],
            ["MainchainGatewayProxy", "TetherToken", "Ballot"],
        ]
        with use_registry() as registry:
            for mix in mixes:
                for i in range(60):
                    tx = library.to_transaction(
                        library.plan(mix[i % len(mix)])
                    )
                    node.hear(tx)
                    plain.hear(tx)
                block = node.propose_block(executor="mtpu")
                reference = plain.execute_block(block)
                assert node.execute_block(
                    block, executor="mtpu",
                    claimed_receipts_root=receipts_root(reference),
                ) == reference
        assert len(node.chain) == 5
        assert node.state.state_digest() == plain.state.state_digest()
        assert registry.total("sched.makespan_cycles") > 0
        assert registry.total("hotspot.plans_applied") > 0
