"""The hotspot optimizer end to end: plans shrink cycles, never change
results."""

import pytest

from repro.chain.receipt import receipts_root
from repro.core.hotspot import HotspotOptimizer
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.workload import all_entry_function_calls
from repro.experiments.common import trace_once


@pytest.fixture(scope="module")
def optimizer(deployment):
    optimizer = HotspotOptimizer(deployment.state)
    for name in ("TetherToken", "Dai"):
        samples = all_entry_function_calls(deployment, name, seed=31)
        optimizer.optimize_contract(deployment.address_of(name), samples)
    return optimizer


@pytest.fixture(scope="module")
def workload(deployment):
    return all_entry_function_calls(
        deployment, "TetherToken", seed=32, per_function=3
    )


def run_all(deployment, txs, hotspot=None, **config_kwargs):
    executor = MTPUExecutor(
        trace_once(deployment.state, txs), num_pus=1,
        pu_config=PUConfig(**config_kwargs),
        hotspot_optimizer=hotspot,
    )
    pu = executor.pus[0]
    executions = [executor.time_on(pu, index) for index in range(len(txs))]
    return executor, executions


def plan_for(optimizer, deployment, tx):
    """*optimizer*'s plan for *tx* run against the genesis code."""
    return optimizer.plan_for(tx, deployment.state.get_code(tx.to))


class TestContractTable:
    def test_profiles_keyed_by_selector(self, deployment, optimizer):
        address = deployment.address_of("TetherToken")
        artifact = deployment.contracts["TetherToken"].artifact
        for fn in artifact.functions:
            profile = optimizer.contract_table.get(address, fn.selector)
            assert profile is not None, fn.signature
            assert profile.samples >= 1

    def test_on_path_fractions_small(self, deployment, optimizer):
        # Paper: Tether.transfer loads 8.2% after chunking+pre-execution.
        address = deployment.address_of("TetherToken")
        fractions = [
            p.on_path_fraction
            for p in optimizer.contract_table.entries()
            if p.address == address
        ]
        assert fractions
        assert min(fractions) < 0.25
        assert all(f <= 1.0 for f in fractions)

    def test_profiling_does_not_mutate_state(self, deployment):
        digest = deployment.state.state_digest()
        optimizer = HotspotOptimizer(deployment.state)
        samples = all_entry_function_calls(deployment, "Dai", seed=33)
        optimizer.optimize_contract(
            deployment.address_of("Dai"), samples
        )
        assert deployment.state.state_digest() == digest


class TestPlans:
    def test_plan_for_profiled_contract(self, deployment, optimizer,
                                        workload):
        plan = plan_for(optimizer, deployment, workload[0])
        assert plan is not None
        assert plan.on_path_fraction < 1.0
        assert plan.eliminated_pcs

    def test_no_plan_for_unprofiled(self, deployment, optimizer):
        txs = all_entry_function_calls(deployment, "OpenSea", seed=34)
        assert plan_for(optimizer, deployment, txs[0]) is None

    def test_skip_indices_cover_preexec_prefix(self, deployment,
                                               optimizer, workload):
        from repro.evm import EVM, Tracer

        tx = workload[0]
        plan = plan_for(optimizer, deployment, tx)
        state = deployment.state.copy()
        tracer = Tracer()
        EVM(state, tracer=tracer).execute_transaction(tx)
        skip = plan.skip_indices(tracer.steps)
        if plan.preexecute:
            assert 0 in skip  # the dispatch prefix is skipped

    def test_disabled_features_shrink_plan(self, deployment, workload):
        optimizer = HotspotOptimizer(
            deployment.state,
            enable_elimination=False,
            enable_prefetch=False,
            enable_chunk_loading=False,
        )
        samples = all_entry_function_calls(
            deployment, "TetherToken", seed=35
        )
        optimizer.optimize_contract(
            deployment.address_of("TetherToken"), samples
        )
        plan = plan_for(optimizer, deployment, workload[0])
        assert plan.eliminated_pcs == frozenset()
        assert plan.prefetch_pcs == frozenset()
        assert plan.on_path_fraction == 1.0


class TestEndToEnd:
    def test_hotspot_reduces_cycles(self, deployment, optimizer,
                                    workload):
        _, plain = run_all(deployment, workload)
        _, optimized = run_all(deployment, workload, hotspot=optimizer)
        assert sum(e.cycles for e in optimized) < sum(
            e.cycles for e in plain
        )

    def test_hotspot_preserves_receipts(self, deployment, optimizer,
                                        workload):
        digest = deployment.state.state_digest()
        _, plain = run_all(deployment, workload)
        _, optimized = run_all(deployment, workload, hotspot=optimizer)
        assert receipts_root([e.receipt for e in plain]) == receipts_root(
            [e.receipt for e in optimized]
        )
        assert deployment.state.state_digest() == digest

    def test_hotspot_applied_flag(self, deployment, optimizer, workload):
        _, optimized = run_all(deployment, workload, hotspot=optimizer)
        assert all(e.hotspot_applied for e in optimized)

    def test_unprofiled_contract_unaffected(self, deployment, optimizer):
        txs = all_entry_function_calls(deployment, "WETH9", seed=36)
        _, executions = run_all(deployment, txs, hotspot=optimizer)
        assert not any(e.hotspot_applied for e in executions)

    def test_known_fraction_zero_disables_preexecution(self, deployment,
                                                       workload):
        optimizer = HotspotOptimizer(deployment.state, known_fraction=0.0)
        samples = all_entry_function_calls(
            deployment, "TetherToken", seed=37
        )
        optimizer.optimize_contract(
            deployment.address_of("TetherToken"), samples
        )
        plan = plan_for(optimizer, deployment, workload[0])
        assert plan.preexecute is False
