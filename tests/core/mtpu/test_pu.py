"""PU timing: baseline vs DB-cache paths, reuse, skips, prefetch."""

import pytest

from repro.chain import Transaction
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.workload import all_entry_function_calls
from repro.experiments.common import trace_once


def fresh_executor(deployment, txs, num_pus=1, **config_kwargs):
    """An MTPU over *txs* executed once on a copy of the genesis."""
    return MTPUExecutor(
        trace_once(deployment.state, txs),
        num_pus=num_pus,
        pu_config=PUConfig(**config_kwargs),
    )


@pytest.fixture(scope="module")
def tether_txs(deployment):
    return all_entry_function_calls(deployment, "TetherToken", seed=3,
                                    per_function=3)


def total_cycles(executor):
    pu = executor.pus[0]
    return sum(
        executor.time_on(pu, index).cycles
        for index in range(len(executor.artifacts))
    )


class TestModes:
    def test_ilp_beats_baseline(self, deployment, tether_txs):
        baseline = total_cycles(
            fresh_executor(deployment, tether_txs, enable_db_cache=False)
        )
        ilp = total_cycles(
            fresh_executor(deployment, tether_txs, perfect_cache=True)
        )
        assert ilp < baseline
        # The ILP upper bound lands in the paper's 1.6x-2.4x band.
        assert 1.4 < baseline / ilp < 2.6

    def test_perfect_cache_bounds_real_cache(self, deployment, tether_txs):
        perfect = total_cycles(
            fresh_executor(deployment, tether_txs, perfect_cache=True)
        )
        real = total_cycles(
            fresh_executor(deployment, tether_txs, cache_entries=2048)
        )
        assert perfect <= real

    def test_feature_ablation_is_monotone(self, deployment, tether_txs):
        fd = total_cycles(
            fresh_executor(deployment, tether_txs, perfect_cache=True,
                           enable_forwarding=False, enable_folding=False),
        )
        df = total_cycles(
            fresh_executor(deployment, tether_txs, perfect_cache=True,
                           enable_folding=False),
        )
        all_on = total_cycles(
            fresh_executor(deployment, tether_txs, perfect_cache=True)
        )
        assert all_on <= df <= fd

    def test_tiny_cache_behaves_like_bigger_baseline(self, deployment,
                                                     tether_txs):
        tiny = fresh_executor(deployment, tether_txs, cache_entries=4)
        big = fresh_executor(deployment, tether_txs, cache_entries=4096)
        tiny_cycles = total_cycles(tiny)
        big_cycles = total_cycles(big)
        assert big_cycles <= tiny_cycles
        assert (
            big.pus[0].db_cache.stats.hit_ratio
            >= tiny.pus[0].db_cache.stats.hit_ratio
        )

    def test_instruction_count_mode_independent(self, deployment,
                                                tether_txs):
        a = fresh_executor(deployment, tether_txs, enable_db_cache=False)
        b = fresh_executor(deployment, tether_txs, perfect_cache=True)
        total_cycles(a)
        total_cycles(b)
        assert a.total_instructions() == b.total_instructions()


def twice(tx):
    """*tx* and a fresh identical call after it."""
    return [tx, Transaction(sender=tx.sender, to=tx.to, data=tx.data,
                            gas_limit=tx.gas_limit)]


class TestRedundancyReuse:
    def test_repeated_contract_hits_cache(self, deployment, tether_txs):
        executor = fresh_executor(
            deployment, twice(tether_txs[0]), cache_entries=2048
        )
        pu = executor.pus[0]
        first = executor.time_on(pu, 0)
        # A fresh identical call mostly hits lines filled by the first.
        second = executor.time_on(pu, 1)
        assert second.timing.cycles < first.timing.cycles
        assert second.timing.line_hits > 0

    def test_context_reuse_skips_bytecode_load(self, deployment,
                                               tether_txs):
        executor = fresh_executor(deployment, tether_txs[:2])
        pu = executor.pus[0]
        first = executor.time_on(pu, 0)
        second = executor.time_on(pu, 1)
        assert second.context_cycles < first.context_cycles

    def test_no_reuse_flag_flushes(self, deployment, tether_txs):
        reuse = total_cycles(
            fresh_executor(deployment, tether_txs, redundancy_reuse=True)
        )
        no_reuse = total_cycles(
            fresh_executor(deployment, tether_txs, redundancy_reuse=False)
        )
        assert reuse < no_reuse


class TestSkipAndPrefetch:
    def test_skipped_steps_cost_nothing(self, deployment, tether_txs):
        from repro.evm import EVM, Tracer

        executor = fresh_executor(deployment, [], enable_db_cache=False)
        pu = executor.pus[0]
        state = deployment.state.copy()
        tracer = Tracer()
        EVM(state, tracer=tracer).execute_transaction(tether_txs[0])
        full = pu.time_trace(tracer.steps)
        skip = {s.index for s in tracer.steps[:10]}
        partial = pu.time_trace(tracer.steps, skip=skip)
        assert partial.cycles < full.cycles
        assert partial.instructions == full.instructions - 10

    def test_prefetch_removes_storage_stall(self, deployment, tether_txs):
        from repro.evm import EVM, Tracer

        state = deployment.state.copy()
        tracer = Tracer()
        EVM(state, tracer=tracer).execute_transaction(tether_txs[0])

        cold = fresh_executor(deployment, [], enable_db_cache=False)
        warm = fresh_executor(deployment, [], enable_db_cache=False)
        no_prefetch = cold.pus[0].time_trace(tracer.steps)
        all_prefetch = warm.pus[0].time_trace(
            tracer.steps,
            prefetched=lambda step: step.op.name == "SLOAD",
        )
        assert all_prefetch.cycles < no_prefetch.cycles


class TestStateBufferSharing:
    def test_state_buffer_shared_across_pus(self, deployment, tether_txs):
        executor = fresh_executor(
            deployment, twice(tether_txs[0]), num_pus=2,
            enable_db_cache=False,
        )
        first = executor.time_on(executor.pus[0], 0)
        second = executor.time_on(executor.pus[1], 1)
        # PU1 benefits from state warmed by PU0.
        assert second.timing.cycles < first.timing.cycles


class TestColdSingleTransaction:
    """Paper section 4.2: 'The hit rate of cache is very low (3%-10%)
    when actually processing a single transaction, because ... less
    circular logic'."""

    def test_cold_single_tx_hit_rate_low(self, deployment):
        from repro.workload import all_entry_function_calls

        for name in ("TetherToken", "Dai", "OpenSea"):
            tx = all_entry_function_calls(deployment, name, seed=61)[0]
            executor = fresh_executor(deployment, [tx], cache_entries=2048)
            executor.time_on(executor.pus[0], 0)
            ratio = executor.pus[0].db_cache.stats.hit_ratio
            assert ratio < 0.30, (name, ratio)

    def test_loopy_contract_hits_within_one_tx(self, deployment):
        # Ballot's winningProposal loop revisits its own lines, so even a
        # single cold transaction gets some hits (the paper's "circular
        # logic" caveat).
        from repro.chain import Transaction
        from repro.evm import abi

        tx = Transaction(
            sender=deployment.accounts[0],
            to=deployment.address_of("Ballot"),
            data=abi.encode_call("winningProposal()"),
            gas_limit=2_000_000,
        )
        executor = fresh_executor(deployment, [tx], cache_entries=2048)
        executor.time_on(executor.pus[0], 0)
        assert executor.pus[0].db_cache.stats.hits > 0
