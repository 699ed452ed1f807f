"""Edge cases across the core: empty blocks, single transactions,
degenerate configurations."""

from repro.chain import Transaction
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import (
    CompositeDAG,
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from repro.workload import generate_block
from repro.experiments.common import trace_once


def executor(deployment, txs, num_pus=1, **kwargs):
    return MTPUExecutor(
        trace_once(deployment.state, txs), num_pus=num_pus,
        pu_config=PUConfig(**kwargs),
    )


class TestEmptyAndTiny:
    def test_empty_block_all_drivers(self, deployment):
        seq = run_sequential(executor(deployment, []), [])
        assert seq.makespan_cycles == 0
        st = run_spatial_temporal(executor(deployment, [], 4), [], [])
        assert st.makespan_cycles == 0
        assert st.utilization == 0.0
        sync = run_synchronous(executor(deployment, [], 4), [], [])
        assert sync.rounds == 0

    def test_single_transaction(self, deployment):
        block = generate_block(deployment, num_transactions=1, seed=80)
        st = run_spatial_temporal(
            executor(deployment, block.transactions, 4),
            block.transactions, block.dag_edges
        )
        assert len(st.executions) == 1
        assert st.makespan_cycles > 0

    def test_single_pu_spatial_temporal(self, deployment):
        block = generate_block(deployment, num_transactions=8, seed=81)
        st = run_spatial_temporal(
            executor(deployment, block.transactions, 1),
            block.transactions, block.dag_edges
        )
        assert len(st.executions) == 8

    def test_more_pus_than_transactions(self, deployment):
        block = generate_block(deployment, num_transactions=3, seed=82)
        st = run_spatial_temporal(
            executor(deployment, block.transactions, 8),
            block.transactions, block.dag_edges
        )
        assert len(st.executions) == 3

    def test_empty_dag(self):
        dag = CompositeDAG([], [])
        assert dag.done
        assert dag.ready_transactions() == []


class TestExecutorAccounting:
    def test_totals_accumulate(self, deployment):
        block = generate_block(deployment, num_transactions=5, seed=83)
        ex = executor(deployment, block.transactions)
        pu = ex.pus[0]
        for index in range(len(block.transactions)):
            ex.time_on(pu, index)
        assert len(ex.executions) == 5
        assert ex.total_instructions() == sum(
            e.instructions for e in ex.executions
        )
        assert ex.total_cycles_sequentialized() == sum(
            e.cycles for e in ex.executions
        )
        assert len(ex.receipts()) == 5

    def test_pu_counters(self, deployment):
        block = generate_block(deployment, num_transactions=4, seed=84)
        ex = executor(deployment, block.transactions)
        pu = ex.pus[0]
        for index in range(len(block.transactions)):
            ex.time_on(pu, index)
        assert pu.transactions_executed == 4
        assert pu.busy_cycles > 0
        assert pu.current_contract == block.transactions[-1].to

    def test_plain_value_transfer_has_no_instructions(self, deployment):
        tx = Transaction(
            sender=deployment.accounts[0], to=0xE0E0,
            value=1, gas_limit=100_000,
        )
        ex = executor(deployment, [tx])
        execution = ex.time_on(ex.pus[0], 0)
        assert execution.receipt.success
        assert execution.instructions == 0
        assert execution.context_cycles > 0  # context still constructed

    def test_create_transaction_times_init_code(self, deployment):
        from repro.contracts.asm import assemble

        init = assemble("PUSH 1\nPUSH 0\nRETURN")
        tx = Transaction(
            sender=deployment.accounts[0], to=None, data=init,
            gas_limit=500_000,
        )
        ex = executor(deployment, [tx])
        execution = ex.time_on(ex.pus[0], 0)
        assert execution.receipt.success
        assert execution.instructions > 0
        assert execution.context_cycles == 0  # no callee bytecode to load


class TestScheduleResultHelpers:
    def test_speedup_over_zero_makespan(self, deployment):
        empty = run_spatial_temporal(executor(deployment, [], 2), [], [])
        other = run_spatial_temporal(executor(deployment, [], 2), [], [])
        assert empty.speedup_over(other) == float("inf")

    def test_receipts_in_block_order_is_block_order(self, deployment):
        block = generate_block(deployment, num_transactions=6, seed=85)
        st = run_spatial_temporal(
            executor(deployment, block.transactions, 4),
            block.transactions, block.dag_edges
        )
        receipts = st.receipts_in_block_order(block.transactions)
        for tx, receipt in zip(block.transactions, receipts):
            assert receipt.tx_hash == tx.hash()
