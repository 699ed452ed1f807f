"""Failure injection: blocks containing reverting and out-of-gas
transactions must stay consistent under every execution path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction
from repro.chain.dag import (
    build_dag_edges,
    check_schedule_order,
    discover_access_sets,
    transitive_reduction,
    verify_dag,
)
from repro.chain.receipt import receipts_root
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from repro.evm import abi
from repro.faults import (
    PU_DEAD,
    PU_STALL,
    DagCorruption,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    PUFault,
)
from repro.workload import generate_block
from repro.experiments.common import trace_once


def inject_failures(deployment, seed=90):
    """A block mixing healthy traffic with guaranteed failures."""
    block = generate_block(deployment, num_transactions=20, seed=seed)
    txs = list(block.transactions)
    accounts = deployment.accounts
    dai = deployment.address_of("Dai")

    # 1. A transfer that reverts (unfunded sender).
    broke = 0xDEADD00D
    deployment.state.set_balance(broke, 10**18)
    deployment.state.clear_journal()
    txs.append(Transaction(
        sender=broke, to=dai, gas_limit=1_000_000,
        data=abi.encode_call("transfer(address,uint256)", accounts[0], 1),
        tags={"contract": "Dai", "is_erc20": True},
    ))
    # 2. An out-of-gas transaction (limit below the work required).
    txs.append(Transaction(
        sender=accounts[1], to=dai, gas_limit=22_000,
        data=abi.encode_call("transfer(address,uint256)", accounts[2], 1),
        tags={"contract": "Dai", "is_erc20": True},
    ))
    # 3. A call to a selector that does not exist (dispatch falls through
    # to revert).
    txs.append(Transaction(
        sender=accounts[3], to=dai, gas_limit=1_000_000,
        data=abi.encode_call("nonexistent()"),
        tags={"contract": "Dai", "is_erc20": True},
    ))
    # 4. A call to a codeless address (succeeds as a plain transfer).
    txs.append(Transaction(
        sender=accounts[4], to=0xEEEE, gas_limit=100_000, value=5,
        tags={"contract": None, "is_erc20": False},
    ))

    access = discover_access_sets(txs, deployment.state.copy())
    edges = transitive_reduction(len(txs), build_dag_edges(txs, access))
    return txs, edges


@pytest.fixture(scope="module")
def failing_block(deployment):
    return inject_failures(deployment)


def executor(deployment, txs, num_pus, **kwargs):
    return MTPUExecutor(
        trace_once(deployment.state, txs), num_pus=num_pus,
        pu_config=PUConfig(**kwargs),
    )


class TestFailureSemantics:
    def test_failures_fail_and_healthy_succeed(self, deployment,
                                               failing_block):
        txs, edges = failing_block
        result = run_sequential(executor(deployment, txs, 1), txs)
        receipts = result.receipts_in_block_order(txs)
        # The three injected failures are the 3rd/2nd/1st from the end -1.
        assert not receipts[-4].success  # broke sender
        assert not receipts[-3].success  # out of gas
        assert not receipts[-2].success  # bad selector
        assert receipts[-1].success  # plain transfer to codeless account
        healthy = receipts[:-4]
        assert all(r.success for r in healthy)

    def test_oog_burns_the_whole_limit(self, deployment, failing_block):
        txs, edges = failing_block
        result = run_sequential(executor(deployment, txs, 1), txs)
        receipts = result.receipts_in_block_order(txs)
        assert receipts[-3].gas_used == 22_000
        assert receipts[-3].error == "OutOfGas"

    @pytest.mark.parametrize("num_pus", [2, 4])
    def test_parallel_execution_agrees_despite_failures(
        self, deployment, failing_block, num_pus
    ):
        txs, edges = failing_block
        seq = run_sequential(executor(deployment, txs, 1), txs)
        root = receipts_root(seq.receipts_in_block_order(txs))
        for runner in (run_synchronous, run_spatial_temporal):
            par_ex = executor(deployment, txs, num_pus)
            par = runner(par_ex, txs, edges)
            assert receipts_root(
                par.receipts_in_block_order(txs)
            ) == root
            check_schedule_order(txs, par_ex.artifacts, par.executions)

    def test_final_state_identical(self, deployment, failing_block):
        """The block executes once; the schedule must not have swapped
        a conflicting pair, failures included."""
        txs, edges = failing_block
        par_ex = executor(deployment, txs, 4)
        par = run_spatial_temporal(par_ex, txs, edges)
        check_schedule_order(txs, par_ex.artifacts, par.executions)

    def test_failed_txs_still_timed(self, deployment, failing_block):
        """A reverting transaction consumes PU cycles — failures are not
        free in the timing model."""
        txs, edges = failing_block
        ex = executor(deployment, txs, 1)
        result = run_sequential(ex, txs)
        failed = [e for e in result.executions if not e.receipt.success]
        assert failed
        assert all(e.cycles > 0 for e in failed)

    def test_hotspot_optimizer_with_failures(self, deployment,
                                             failing_block):
        """Hotspot plans must not change outcomes even for failing txs."""
        from repro.core.hotspot import HotspotOptimizer
        from repro.workload import all_entry_function_calls

        txs, edges = failing_block
        optimizer = HotspotOptimizer(deployment.state)
        optimizer.optimize_contract(
            deployment.address_of("Dai"),
            all_entry_function_calls(deployment, "Dai", seed=9),
        )
        plain = run_sequential(executor(deployment, txs, 1), txs)
        hot_ex = MTPUExecutor(
            trace_once(deployment.state, txs), num_pus=1,
            pu_config=PUConfig(), hotspot_optimizer=optimizer,
        )
        hot = run_sequential(hot_ex, txs)
        assert receipts_root(
            plain.receipts_in_block_order(txs)
        ) == receipts_root(hot.receipts_in_block_order(txs))


class TestInjectedFaultsPropertyBased:
    """Property: under arbitrary seeded DAG corruption plus an arbitrary
    PU failure, spatio-temporal scheduling (with its detection and
    recovery paths engaged) times every transaction once and reorders
    no conflicting pair."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1023),
        num_pus=st.integers(min_value=2, max_value=5),
        drop=st.integers(min_value=0, max_value=2),
        bogus=st.integers(min_value=0, max_value=2),
        cycle=st.booleans(),
        fault_kind=st.sampled_from(["none", PU_DEAD, PU_STALL]),
        fault_pu=st.integers(min_value=0, max_value=4),
        at_cycle=st.integers(min_value=0, max_value=6_000),
    )
    def test_state_equals_sequential_under_faults(
        self, deployment, seed, num_pus, drop, bogus, cycle,
        fault_kind, fault_pu, at_cycle,
    ):
        block = generate_block(deployment, num_transactions=10, seed=seed)
        txs = block.transactions
        access = discover_access_sets(txs, deployment.state.copy())
        required = set(build_dag_edges(txs, access))
        honest = transitive_reduction(len(txs), sorted(required))

        pu_faults = ()
        if fault_kind != "none" and fault_pu < num_pus:
            pu_faults = (PUFault(
                pu_id=fault_pu, kind=fault_kind, at_cycle=at_cycle,
                stall_cycles=2_000 if fault_kind == PU_STALL else 0,
            ),)
        plan = FaultPlan(
            seed=seed,
            dag=DagCorruption(
                drop_edges=drop, bogus_edges=bogus, make_cycle=cycle
            ),
            pu_faults=pu_faults,
        )
        injector = FaultInjector(plan)

        # The adversary half: ship a corrupted DAG; the defender half:
        # verify it and rebuild locally when it cannot be trusted.
        corrupted = injector.corrupt_dag(len(txs), honest)
        verdict = verify_dag(len(txs), corrupted, required)
        edges = corrupted if verdict.ok else transitive_reduction(
            len(txs), sorted(required)
        )

        report = DegradationReport()
        par_ex = executor(deployment, txs, num_pus)
        par = run_spatial_temporal(
            par_ex, txs, edges, fault_injector=injector, report=report
        )
        check_schedule_order(txs, par_ex.artifacts, par.executions)
        assert receipts_root(
            par.receipts_in_block_order(txs)
        ) == receipts_root(
            [artifact.receipt for artifact in par_ex.artifacts]
        )
        # A cycle injection is always caught; a dropped reduced edge
        # always breaks conflict coverage.
        if injector.injected["dag_cycle"]:
            assert verdict.cyclic
        if injector.injected["dag_edge_dropped"]:
            assert not verdict.ok
        # PU faults can only fire if the plan scheduled them (a fault
        # past the makespan never manifests).
        assert (report.pu_failures_detected
                + report.pu_stalls_detected) <= len(pu_faults)
        assert report.pu_failures_detected == 0 or fault_kind == PU_DEAD
        assert report.pu_stalls_detected == 0 or fault_kind == PU_STALL
