"""E2E invariant: the serve path is bit-identical to offline execution.

The acceptance property for the serving layer: receipts and
``state_digest()`` produced by the continuous batcher — under any
engine, injected PU faults, an engine that dies partway through a block,
or a forced sequential fallback — match offline sequential execution of
the same blocks exactly.
"""

import asyncio
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.node import EXECUTORS, Node
from repro.faults import PU_DEAD, FaultInjector, FaultPlan, PUFault
from repro.serve.batcher import BlockBuilder
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_transactions

from .conftest import served


def run_serve_path(
    deployment,
    txs,
    executor="sequential",
    block_size_target=4,
    num_workers=4,
    fault_injector=None,
    sabotage=False,
    dies_at=None,
    packing="fifo",
    aging_bound=None,
):
    """Push *txs* through a BlockBuilder; returns (node, committed, builder).

    *sabotage*: every block's engine dies before it starts. *dies_at*:
    every block's engine dies on its ``dies_at``-th transaction, the
    ones before it applied (a block shorter than that runs clean).
    *aging_bound* overrides the packing policy's own.
    """

    async def go():
        config = ServeConfig(
            port=0,
            block_size_target=block_size_target,
            gas_target=None,
            block_interval_ms=5.0,
            executor=executor,
            num_workers=num_workers,
            packing=packing,
        )
        node = Node(state=deployment.state.copy())
        builder = BlockBuilder(node, config,
                               fault_injector=fault_injector)
        if aging_bound is not None:
            builder.packing_policy = replace(
                builder.packing_policy, aging_bound=aging_bound
            )
        if sabotage:
            def explode(block):
                raise RuntimeError("forced executor failure")

            builder._execute = explode
        elif dies_at is not None:
            builder._execute = dying_midway(
                node, builder._execute, dies_at
            )
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        committed = await asyncio.wait_for(
            asyncio.gather(*futures), timeout=60.0
        )
        await builder.drain_and_stop()
        return node, committed, builder

    return asyncio.run(go())


def dying_midway(node, run_engine, dies_at):
    """*run_engine* with a tripwire on the sender-nonce bump — the one
    state write every engine's execution makes once per transaction. A
    node's own proposal is committed as its discovery left it, with no
    engine pass and no bump: there the commit dies instead, at the seal
    with the state dirtied further, when the block holds ``dies_at``
    transactions."""

    def execute(block):
        bumps = 0

        def tripwire(original):
            def bump(*args):
                nonlocal bumps
                bumps += 1
                if bumps == dies_at:
                    raise RuntimeError("engine died mid-block")
                return original(*args)
            return bump

        def dying_seal(original):
            def seal(sealed):
                if not bumps and len(sealed.transactions) >= dies_at:
                    node.state.set_balance(0xDEAD, 123)
                    raise RuntimeError("engine died mid-block")
                return original(sealed)
            return seal

        state = node.state
        with mock.patch.object(
            state, "increment_nonce", tripwire(state.increment_nonce)
        ), mock.patch.object(
            node, "seal_state_root", dying_seal(node.seal_state_root)
        ):
            return run_engine(block)

    return execute


def assert_matches_offline(deployment, node, committed, txs):
    """Replay the serve chain sequentially; everything must be identical."""
    assert len(committed) == len(txs)  # zero dropped receipts
    reference = Node(state=deployment.state.copy())
    offline = {}
    for block in node.chain:
        receipts = reference.execute_block(block)
        for tx, receipt in zip(block.transactions, receipts):
            offline[tx.hash()] = receipt
    for tx, entry in zip(txs, committed):
        assert entry.receipt == offline[tx.hash()]
    assert (node.state.state_digest()
            == reference.state.state_digest())


@settings(max_examples=12, deadline=None)
@given(
    executor=st.sampled_from(EXECUTORS),
    workload=st.sampled_from(["transfer", "erc20", "mixed", "dynamic"]),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 12),
    block_size=st.integers(1, 5),
)
def test_serve_path_matches_offline_sequential(
    deployment, executor, workload, seed, count, block_size
):
    txs = make_transactions(
        deployment, count, workload=workload, seed=seed
    )
    node, committed, _ = run_serve_path(
        deployment, txs,
        executor=executor, block_size_target=block_size,
    )
    assert_matches_offline(deployment, node, committed, txs)


@pytest.mark.parametrize("executor", EXECUTORS)
@settings(max_examples=6, deadline=None)
@given(
    workload=st.sampled_from(["transfer", "erc20", "dynamic"]),
    seed=st.integers(0, 2**16),
    dies_at=st.integers(1, 4),
)
def test_engine_dying_mid_block_is_invisible(
    deployment, executor, workload, seed, dies_at
):
    """Whatever the engine had applied when it died is rolled back —
    nobody but the builder, who took the snapshot, clears the journal —
    and the block commits through the fallback."""
    txs = make_transactions(deployment, 8, workload=workload, seed=seed)
    node, committed, builder = run_serve_path(
        deployment, txs,
        executor=executor, block_size_target=4, dies_at=dies_at,
    )
    assert served(builder, "sequential_fallbacks") >= 1
    assert_matches_offline(deployment, node, committed, txs)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    dead=st.lists(
        st.integers(0, 3), min_size=1, max_size=4, unique=True
    ),
    at_cycle=st.integers(0, 2_000),
)
def test_serve_path_survives_pu_faults(deployment, seed, dead, at_cycle):
    """Injected PU deaths degrade throughput, never the state digest."""
    plan = FaultPlan(
        seed=seed,
        pu_faults=tuple(
            PUFault(pu_id=p, kind=PU_DEAD, at_cycle=at_cycle)
            for p in dead
        ),
    )
    txs = make_transactions(deployment, 8, seed=seed)
    node, committed, builder = run_serve_path(
        deployment, txs,
        executor="mtpu", block_size_target=4,
        fault_injector=FaultInjector(plan),
    )
    assert_matches_offline(deployment, node, committed, txs)
    # Whether the scheduler drained onto survivors or the builder fell
    # back to sequential, every transaction still committed exactly once.
    assert served(builder, "txs_committed") == len(txs)


def assert_matches_fifo_replay(deployment, node, txs, block_size):
    """The pack-equivalence property, end to end: the packed serve
    chain's final state equals a FIFO replay of the *submission* order
    (``run_serve_path`` submits serially, so arrival order = txs)."""
    fifo = Node(state=deployment.state.copy())
    remaining = list(txs)
    while remaining:
        chunk, remaining = (remaining[:block_size],
                            remaining[block_size:])
        fifo.execute_block(fifo.propose_block(transactions=chunk))
    assert node.state.state_digest() == fifo.state.state_digest()


@settings(max_examples=10, deadline=None)
@given(
    executor=st.sampled_from(["sequential", "mtpu", "parallel"]),
    workload=st.sampled_from(["transfer", "mixed", "hotburst"]),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 12),
    block_size=st.integers(1, 5),
    num_workers=st.integers(1, 5),
)
def test_packed_serve_path_matches_offline_and_fifo(
    deployment, executor, workload, seed, count, block_size, num_workers
):
    txs = make_transactions(
        deployment, count, workload=workload, seed=seed
    )
    node, committed, builder = run_serve_path(
        deployment, txs,
        executor=executor, block_size_target=block_size,
        num_workers=num_workers, packing="conflict_aware",
    )
    assert_matches_offline(deployment, node, committed, txs)
    assert_matches_fifo_replay(deployment, node, txs, block_size)
    assert builder.packing_policy is not None


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 1000),
    dead=st.lists(
        st.integers(0, 3), min_size=1, max_size=4, unique=True
    ),
    at_cycle=st.integers(0, 2_000),
)
def test_packed_serve_path_survives_pu_faults(
    deployment, seed, dead, at_cycle
):
    """Conflict-aware packing composed with PU deaths: still FIFO-exact."""
    plan = FaultPlan(
        seed=seed,
        pu_faults=tuple(
            PUFault(pu_id=p, kind=PU_DEAD, at_cycle=at_cycle)
            for p in dead
        ),
    )
    txs = make_transactions(deployment, 10, workload="hotburst",
                            seed=seed)
    node, committed, builder = run_serve_path(
        deployment, txs,
        executor="mtpu", block_size_target=8,  # 4 PUs, lanes of 2
        fault_injector=FaultInjector(plan),
        packing="conflict_aware",
    )
    assert_matches_offline(deployment, node, committed, txs)
    assert_matches_fifo_replay(deployment, node, txs, 8)
    assert served(builder, "txs_committed") == len(txs)


def test_drain_flushes_deferred_transactions(deployment):
    """A drain must commit every admitted transaction even when packing
    keeps deferring most of them: lanes of 1 (4 transactions cut for 4
    lanes) with a hot conflicting workload force a deferral on every
    cut."""
    txs = make_transactions(deployment, 16, workload="hotburst", seed=3)
    node, committed, builder = run_serve_path(
        deployment, txs,
        block_size_target=4,
        packing="conflict_aware",
        aging_bound=100,  # aging never forces inclusion here
    )
    assert len(committed) == len(txs)
    assert len(node.mempool) == 0
    assert served(builder, "txs_committed") == len(txs)
    assert_matches_offline(deployment, node, committed, txs)
    assert_matches_fifo_replay(deployment, node, txs, 4)


@settings(max_examples=6, deadline=None)
@given(
    workload=st.sampled_from(["transfer", "erc20"]),
    seed=st.integers(0, 1000),
    count=st.integers(1, 10),
)
def test_forced_sequential_fallback_matches_offline(
    deployment, workload, seed, count
):
    """Every block's executor dies; the fallback must be invisible."""
    txs = make_transactions(
        deployment, count, workload=workload, seed=seed
    )
    node, committed, builder = run_serve_path(
        deployment, txs, sabotage=True
    )
    assert (
        served(builder, "sequential_fallbacks")
        == served(builder, "blocks_built")
        > 0
    )
    # A clean re-execution: the failed attempt abandoned its proposal,
    # so what the fallback committed is its own EVM pass.
    assert all(block.artifacts is None for block in node.chain)
    assert_matches_offline(deployment, node, committed, txs)
