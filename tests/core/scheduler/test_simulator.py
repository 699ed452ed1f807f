"""Schedule drivers: serializability, speedup ordering, utilization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.dag import check_schedule_order
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from repro.workload import generate_dependency_block
from repro.experiments.common import trace_once


def executor_for(block, num_pus, **config_kwargs):
    return MTPUExecutor(
        trace_once(block.deployment.state, block.transactions),
        num_pus=num_pus, pu_config=PUConfig(**config_kwargs),
    )


def assert_serializable(block, executor, result):
    """No conflicting pair overlapped or swapped, and the receipts are
    the block-order execution's."""
    check_schedule_order(
        block.transactions, executor.artifacts, result.executions
    )
    assert result.receipts_in_block_order(block.transactions) == [
        artifact.receipt for artifact in executor.artifacts
    ]


@pytest.fixture(scope="module")
def mid_block():
    return generate_dependency_block(
        num_transactions=32, target_ratio=0.4, seed=21
    )


class TestSerializability:
    """The paper's correctness requirement: scheduling must not violate
    blockchain consistency."""

    def test_spatial_temporal_matches_sequential(self, mid_block):
        seq_ex = executor_for(mid_block, 1)
        seq = run_sequential(seq_ex, mid_block.transactions)
        par_ex = executor_for(mid_block, 4)
        par = run_spatial_temporal(
            par_ex, mid_block.transactions, mid_block.dag_edges,
        )
        assert_serializable(mid_block, seq_ex, seq)
        assert_serializable(mid_block, par_ex, par)

    def test_synchronous_matches_sequential(self, mid_block):
        sync_ex = executor_for(mid_block, 4)
        sync = run_synchronous(
            sync_ex, mid_block.transactions, mid_block.dag_edges
        )
        assert_serializable(mid_block, sync_ex, sync)

    @settings(max_examples=8, deadline=None)
    @given(
        ratio=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
        num_pus=st.integers(2, 6),
    )
    def test_serializability_randomized(self, ratio, seed, num_pus):
        block = generate_dependency_block(
            num_transactions=16, target_ratio=ratio, seed=seed
        )
        par_ex = executor_for(block, num_pus)
        par = run_spatial_temporal(
            par_ex, block.transactions, block.dag_edges
        )
        assert_serializable(block, par_ex, par)

    def test_all_transactions_executed_once(self, mid_block):
        result = run_spatial_temporal(
            executor_for(mid_block, 4), mid_block.transactions,
            mid_block.dag_edges,
        )
        executed = sorted(
            mid_block.transactions.index(e.tx) for e in result.executions
        )
        assert executed == list(range(len(mid_block.transactions)))


class TestPerformanceShape:
    def test_parallel_beats_sequential_on_independent_work(self):
        block = generate_dependency_block(
            num_transactions=32, target_ratio=0.0, seed=22
        )
        seq = run_sequential(executor_for(block, 1), block.transactions)
        par = run_spatial_temporal(
            executor_for(block, 4), block.transactions, block.dag_edges
        )
        assert par.speedup_over(seq) > 2.0

    def test_spatial_temporal_at_least_synchronous(self, mid_block):
        sync = run_synchronous(
            executor_for(mid_block, 4), mid_block.transactions,
            mid_block.dag_edges,
        )
        st_result = run_spatial_temporal(
            executor_for(mid_block, 4), mid_block.transactions,
            mid_block.dag_edges,
        )
        # Asynchronous scheduling should not be materially worse; it is
        # usually better (paper Fig. 14).
        assert st_result.makespan_cycles <= sync.makespan_cycles * 1.1

    def test_speedup_decreases_with_dependency_ratio(self):
        speedups = []
        for ratio in (0.0, 0.5, 1.0):
            block = generate_dependency_block(
                num_transactions=32, target_ratio=ratio, seed=23
            )
            seq = run_sequential(executor_for(block, 1),
                                 block.transactions)
            par = run_spatial_temporal(
                executor_for(block, 4), block.transactions,
                block.dag_edges,
            )
            speedups.append(par.speedup_over(seq))
        assert speedups[0] > speedups[1] > speedups[2]

    def test_utilization_bounds(self, mid_block):
        result = run_spatial_temporal(
            executor_for(mid_block, 4), mid_block.transactions,
            mid_block.dag_edges,
        )
        assert 0.0 < result.utilization <= 1.0

    def test_utilization_falls_with_dependencies(self):
        utils = []
        for ratio in (0.0, 1.0):
            block = generate_dependency_block(
                num_transactions=32, target_ratio=ratio, seed=24
            )
            result = run_spatial_temporal(
                executor_for(block, 4), block.transactions,
                block.dag_edges,
            )
            utils.append(result.utilization)
        assert utils[0] > utils[1]

    def test_more_pus_never_slower_when_independent(self):
        block = generate_dependency_block(
            num_transactions=32, target_ratio=0.0, seed=25
        )
        two = run_spatial_temporal(
            executor_for(block, 2), block.transactions, block.dag_edges
        )
        four = run_spatial_temporal(
            executor_for(block, 4), block.transactions, block.dag_edges
        )
        assert four.makespan_cycles <= two.makespan_cycles

    def test_synchronous_round_count(self, mid_block):
        result = run_synchronous(
            executor_for(mid_block, 4), mid_block.transactions,
            mid_block.dag_edges,
        )
        n = len(mid_block.transactions)
        assert n / 4 <= result.rounds <= n
