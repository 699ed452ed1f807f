"""Property: the metrics a parallel MTPU run publishes are consistent
with a sequential run of the same block.

The observability layer measures execution — it must not depend on *how*
the block was scheduled. For any generated block, a spatio-temporal run
on k PUs and a sequential run on one PU publish the same total gas and
the same opcode-category histogram; and even with a PU failing
mid-schedule (recovery re-executes the aborted transaction), the
committed receipts and committed-gas totals still agree, with the
registry counting the aborted attempt on top.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import run_sequential, run_spatial_temporal
from repro.faults import PU_DEAD, FaultInjector, FaultPlan, PUFault
from repro.obs import use_registry
from repro.workload import generate_dependency_block
from repro.experiments.common import trace_once


def _ops_histogram(registry) -> dict:
    return {
        (m.name, m.labels): m.value
        for m in registry.series("evm.ops")
    }


def _run(block, driver, num_pus, fault_injector=None):
    """Execute *block* under a fresh registry; returns (registry, result)."""
    with use_registry() as registry:
        executor = MTPUExecutor(
            trace_once(block.deployment.state, block.transactions),
            num_pus=num_pus,
            pu_config=PUConfig(),
        )
        if driver == "sequential":
            result = run_sequential(executor, block.transactions)
        else:
            result = run_spatial_temporal(
                executor, block.transactions, block.dag_edges,
                fault_injector=fault_injector,
            )
    return registry, result


class TestParallelMetricsMatchSequential:
    @settings(max_examples=15, deadline=None)
    @given(
        num_transactions=st.integers(min_value=4, max_value=10),
        ratio=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(min_value=0, max_value=255),
        num_pus=st.integers(min_value=2, max_value=4),
    )
    def test_gas_and_opcode_mix_are_schedule_invariant(
        self, deployment, num_transactions, ratio, seed, num_pus
    ):
        block = generate_dependency_block(
            deployment, num_transactions=num_transactions,
            target_ratio=ratio, seed=seed,
        )
        seq_reg, seq = _run(block, "sequential", num_pus=1)
        par_reg, par = _run(block, "spatial_temporal", num_pus=num_pus)

        assert par_reg.value("evm.gas_used") == seq_reg.value(
            "evm.gas_used"
        )
        assert par_reg.value("evm.instructions") == seq_reg.value(
            "evm.instructions"
        )
        assert _ops_histogram(par_reg) == _ops_histogram(seq_reg)
        assert par.receipts_in_block_order(
            block.transactions
        ) == seq.receipts_in_block_order(block.transactions)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=255),
        num_pus=st.integers(min_value=2, max_value=4),
        fault_pu=st.integers(min_value=0, max_value=3),
        at_cycle=st.integers(min_value=0, max_value=4_000),
    )
    def test_committed_metrics_consistent_under_pu_fault(
        self, deployment, seed, num_pus, fault_pu, at_cycle
    ):
        block = generate_dependency_block(
            deployment, num_transactions=8, target_ratio=0.5, seed=seed,
        )
        pu_faults = ()
        if fault_pu < num_pus:
            pu_faults = (PUFault(
                pu_id=fault_pu, kind=PU_DEAD, at_cycle=at_cycle,
            ),)
        injector = FaultInjector(FaultPlan(seed=seed, pu_faults=pu_faults))

        seq_reg, seq = _run(block, "sequential", num_pus=1)
        par_reg, par = _run(
            block, "spatial_temporal", num_pus=num_pus,
            fault_injector=injector,
        )

        # Committed results are schedule- and fault-invariant.
        assert par.receipts_in_block_order(
            block.transactions
        ) == seq.receipts_in_block_order(block.transactions)
        committed_gas = sum(
            e.receipt.gas_used for e in par.executions
        )
        assert committed_gas == seq_reg.value("evm.gas_used")

        # The block executed once; an aborted attempt is timed again,
        # never executed again, and the scheduler's admission accounting
        # explains the extra timings exactly.
        assert par_reg.value("evm.gas_used") == committed_gas
        stats = par.scheduler_stats
        assert stats["admitted"] == stats["commits"] + stats["aborts"]
        assert stats["commits"] == len(block.transactions)
        assert par_reg.value("evm.transactions") == len(block.transactions)
        assert par_reg.total("pu.traces") == stats["admitted"]
