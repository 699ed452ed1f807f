"""BlockBuilder: cut triggers, fallback degradation, drain semantics."""

import asyncio

import pytest

from repro.chain.node import Node
from repro.serve.batcher import BlockBuilder
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_transactions

from .conftest import served


def build(deployment, **overrides):
    defaults = dict(
        block_size_target=4,
        gas_target=None,
        block_interval_ms=10_000.0,  # effectively "never" unless tested
        executor="sequential",
    )
    defaults.update(overrides)
    config = ServeConfig(**defaults)
    node = Node(state=deployment.state.copy())
    return BlockBuilder(node, config)


def test_size_target_cuts_without_waiting_window(deployment):
    async def run():
        builder = build(deployment, block_size_target=4)
        builder.start()
        futures = [
            builder.receipt_future(builder.submit(tx))
            for tx in make_transactions(deployment, 4)
        ]
        # The 10s window must NOT gate this: size target is hit.
        committed = await asyncio.wait_for(
            asyncio.gather(*futures), timeout=5.0
        )
        await builder.drain_and_stop()
        return builder, committed

    builder, committed = asyncio.run(run())
    assert served(builder, "blocks_built") == 1
    assert served(builder, "txs_committed") == 4
    assert [c.tx_index for c in committed] == [0, 1, 2, 3]
    assert all(c.block_height == 1 for c in committed)
    assert builder.depth == 0


def test_time_window_cuts_partial_block(deployment):
    async def run():
        builder = build(
            deployment, block_size_target=100, block_interval_ms=25.0
        )
        builder.start()
        futures = [
            builder.receipt_future(builder.submit(tx))
            for tx in make_transactions(deployment, 2)
        ]
        committed = await asyncio.wait_for(
            asyncio.gather(*futures), timeout=5.0
        )
        await builder.drain_and_stop()
        return builder, committed

    builder, committed = asyncio.run(run())
    # Neither size nor gas target was reachable; only the window fired.
    assert served(builder, "blocks_built") == 1
    assert len(committed) == 2


def test_gas_target_cuts_and_drain_flushes_rest(deployment):
    async def run():
        builder = build(
            deployment, block_size_target=100, gas_target=90_000
        )
        builder.start()
        txs = make_transactions(deployment, 3)  # 50k gas limit each
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        # Promised gas (150k) closes the window; the block is filled by
        # gas used: two transfers spend 42k of the 90k target, which
        # leaves less than the third's 50k limit — it goes back to the
        # pool and waits.
        first_two = await asyncio.wait_for(
            asyncio.gather(*futures[:2]), timeout=5.0
        )
        assert not futures[2].done()
        # Drain must flush the leftover instead of waiting out the
        # 10-second window.
        await asyncio.wait_for(builder.drain_and_stop(), timeout=5.0)
        return builder, first_two, futures[2].result()

    builder, first_two, last = asyncio.run(run())
    assert {c.block_height for c in first_two} == {1}
    assert last.block_height == 2
    assert served(builder, "blocks_built") == 2
    assert len(builder.node.mempool) == 0


def test_calls_fill_blocks_by_gas_used_not_gas_promised(deployment):
    """40 TOP8 calls promise 5M gas each and use about 50k: their
    promises close the window at once, and the default 30M target holds
    them all (cut on promised gas, they took seven blocks)."""
    calls = make_transactions(deployment, 40, workload="erc20", seed=3)

    async def run():
        builder = build(
            deployment, block_size_target=128, gas_target=30_000_000
        )
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in calls]
        await asyncio.wait_for(asyncio.gather(*futures), timeout=10.0)
        await builder.drain_and_stop()
        return builder

    builder = asyncio.run(run())
    assert served(builder, "blocks_built") <= 2
    assert served(builder, "txs_committed") == 40 and builder.depth == 0
    assert [
        tx for block in builder.node.chain for tx in block.transactions
    ] == calls


def test_gas_target_binding_mid_candidates_returns_the_tail(deployment):
    """Transfers promise 50k and use 21k: under a 200k target the eighth
    still fits (147k spent, 53k left) and the ninth does not (32k left).
    19 candidates go out as 8 + 8, and the last three — 150k promised,
    short of the trigger — wait for the drain."""
    txs = make_transactions(deployment, 19)
    depths = []

    async def run():
        builder = build(
            deployment, block_size_target=100, gas_target=200_000
        )
        builder.on_new_head.append(
            lambda block, receipts: depths.append(builder.depth)
        )
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        depths.append(builder.depth)
        await asyncio.wait_for(asyncio.gather(*futures[:16]), timeout=5.0)
        depths.append(builder.depth)
        assert not any(future.done() for future in futures[16:])
        await asyncio.wait_for(builder.drain_and_stop(), timeout=5.0)
        return builder, [future.result() for future in futures]

    builder, committed = asyncio.run(run())
    chain = builder.node.chain
    assert [len(block.transactions) for block in chain] == [8, 8, 3]
    # Each block starts with exactly the first transaction left out.
    assert [tx for block in chain for tx in block.transactions] == txs
    assert [c.block_height for c in committed] == [1] * 8 + [2] * 8 + [3] * 3
    # Every admitted-uncommitted transaction counts once, wherever it is.
    assert depths == [19, 11, 3, 3, 0]
    assert len(builder.node.mempool) == 0


def test_failed_block_fails_its_own_futures_not_the_returned_tail(
    deployment,
):
    from repro.serve.errors import ExecutionFailedError

    txs = make_transactions(deployment, 12)

    async def run():
        builder = build(
            deployment, block_size_target=100, gas_target=200_000
        )
        real_execute, real_fallback = (
            builder._execute, builder.node.execute_block
        )

        def explode(block):
            builder._execute = real_execute
            raise RuntimeError("executor dead")

        def explode_fallback(block):
            builder.node.execute_block = real_fallback
            raise RuntimeError("fallback dead too")

        builder._execute = explode
        builder.node.execute_block = explode_fallback
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        results = await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=5.0
        )
        await builder.drain_and_stop()
        return builder, results

    builder, results = asyncio.run(run())
    # The first block (eight fit, four went back) died with both
    # executors; the four returned were never its transactions.
    assert all(isinstance(r, ExecutionFailedError) for r in results[:8])
    assert [(r.block_height, r.tx_index) for r in results[8:]] == [
        (1, 0), (1, 1), (1, 2), (1, 3)
    ]
    assert served(builder, "execution_failures") == 1
    assert served(builder, "blocks_built") == 1
    assert builder.node.chain[0].transactions == txs[8:]
    assert builder.depth == 0


def test_unmeasured_cuts_stay_on_promised_gas(deployment):
    """A packed cut's lanes index the cut: it stops on the sum of gas
    limits (two 50k transfers per 100k, where measured gas would fit
    three), and the proposal never returns anything — a packed cut is
    never shortened."""
    from repro.obs import use_registry

    txs = make_transactions(deployment, 6)

    async def run():
        builder = build(
            deployment, block_size_target=100, gas_target=100_000,
            packing="conflict_aware",
        )
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        await asyncio.wait_for(asyncio.gather(*futures), timeout=10.0)
        await builder.drain_and_stop()
        return builder

    with use_registry() as registry:
        builder = asyncio.run(run())
    chain = builder.node.chain
    assert [len(block.transactions) for block in chain] == [2, 2, 2]
    assert "mempool.returned" not in registry.counters_flat()
    assert all(
        sorted(i for lane in block.packed_lanes for i in lane) == [0, 1]
        for block in chain
    )


@pytest.mark.parametrize("gas_target", [0, -1, 30_000_001])
def test_config_refuses_a_gas_target_it_cannot_honour(gas_target):
    """Zero or less makes every block one transaction; more than the
    header's gas limit lets a block use more gas than it declares."""
    with pytest.raises(ValueError, match="gas_target"):
        ServeConfig(gas_target=gas_target)
    assert ServeConfig(gas_target=None).gas_target is None
    assert ServeConfig(gas_target=30_000_000).gas_target == 30_000_000


@pytest.mark.parametrize("num_workers", [0, -1])
def test_config_refuses_a_block_cut_for_no_lanes(num_workers):
    """No PU would run an mtpu block, and a negative count would cut
    lanes as deep as the block."""
    with pytest.raises(ValueError, match="num_workers"):
        ServeConfig(num_workers=num_workers)


@pytest.mark.parametrize("per_sender_cap", [0, -1])
def test_config_refuses_a_per_sender_cap_nobody_could_meet(per_sender_cap):
    with pytest.raises(ValueError, match="per_sender_cap"):
        ServeConfig(per_sender_cap=per_sender_cap)
    assert ServeConfig(per_sender_cap=None).per_sender_cap is None


def test_executor_failure_degrades_to_sequential(deployment):
    async def run():
        builder = build(deployment, block_size_target=4)

        def explode(block):
            raise RuntimeError("all PUs dead")

        builder._execute = explode
        builder.start()
        futures = [
            builder.receipt_future(builder.submit(tx))
            for tx in make_transactions(deployment, 4)
        ]
        committed = await asyncio.wait_for(
            asyncio.gather(*futures), timeout=5.0
        )
        await builder.drain_and_stop()
        return builder, committed

    builder, committed = asyncio.run(run())
    # Degraded, not wedged: every future resolved sequentially.
    assert served(builder, "sequential_fallbacks") == 1
    assert served(builder, "blocks_built") == 1
    assert all(c.receipt.success for c in committed)


def test_fallback_state_matches_clean_sequential(deployment, monkeypatch):
    """The served block is the node's own proposal, committed as its
    discovery left it: the first commit dies at the seal, and the
    fallback runs the block through the EVM."""
    txs = make_transactions(deployment, 4)
    real = Node.seal_state_root

    async def run(sabotage: bool):
        builder = build(deployment, block_size_target=4)
        if sabotage:
            calls = {"n": 0}

            def flaky(node, block):
                calls["n"] += 1
                if calls["n"] == 1:
                    # Dirty the state first: the node's rollback must
                    # erase this.
                    node.state.set_balance(0xDEAD, 123)
                    raise RuntimeError("mid-block commit death")
                return real(node, block)

            monkeypatch.setattr(Node, "seal_state_root", flaky)
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await builder.drain_and_stop()
        assert served(builder, "sequential_fallbacks") == int(sabotage)
        return builder.node.state.state_digest()

    clean = asyncio.run(run(sabotage=False))
    degraded = asyncio.run(run(sabotage=True))
    assert clean == degraded


@pytest.mark.parametrize("executor", ["sequential", "mtpu", "parallel"])
def test_pre_execution_state_dies_with_its_block(deployment, executor):
    """Served blocks keep no artifacts — a fallback block included — while
    ``Node.execute_block`` called directly still leaves them in place."""
    txs = make_transactions(deployment, 8, workload="transfer", seed=2)

    async def run():
        builder = build(deployment, block_size_target=4, executor=executor)
        real = builder._execute
        calls = []

        def first_block_dies(block):
            calls.append(block.header.height)
            if len(calls) == 1:
                raise RuntimeError("mid-block executor death")
            assert len(block.artifacts) == len(block.transactions)
            return real(block)

        builder._execute = first_block_dies
        builder.start()
        futures = [builder.receipt_future(builder.submit(tx)) for tx in txs]
        await asyncio.wait_for(asyncio.gather(*futures), timeout=10.0)
        await builder.drain_and_stop()
        return builder

    builder = asyncio.run(run())
    node = builder.node
    assert served(builder, "sequential_fallbacks") == 1
    assert len(node.chain) == 2
    assert all(block.artifacts is None for block in node.chain)

    direct = Node(state=deployment.state.copy())
    block = direct.propose_block(transactions=txs)
    direct.execute_block(block)
    assert len(direct.chain[-1].artifacts) == len(txs)
    assert direct.state_root == node.state_root


def test_drain_and_stop_idles_cleanly_when_empty(deployment):
    async def run():
        builder = build(deployment)
        builder.start()
        await asyncio.sleep(0)  # let the loop park on the wake event
        await asyncio.wait_for(builder.drain_and_stop(), timeout=5.0)
        return builder

    builder = asyncio.run(run())
    assert served(builder, "blocks_built") == 0


def test_submit_rejection_propagates(deployment):
    from repro.chain.mempool import DuplicateTransactionError

    async def run():
        builder = build(deployment, block_size_target=100)
        builder.start()
        tx = make_transactions(deployment, 1)[0]
        builder.submit(tx)
        with pytest.raises(DuplicateTransactionError):
            builder.submit(tx)
        await builder.drain_and_stop()

    asyncio.run(run())


def test_in_flight_hash_is_refused_even_after_take(deployment):
    # Once take() pulls a tx into a block the mempool forgets its hash,
    # but the builder must still refuse a resubmission: re-admitting
    # would orphan the original waiter's future and execute twice.
    from repro.chain.mempool import DuplicateTransactionError

    async def run():
        builder = build(deployment, block_size_target=100)
        tx = make_transactions(deployment, 1)[0]
        original = builder.receipt_future(builder.submit(tx))
        taken = builder.node.mempool.take(10)  # simulate the block cut
        assert [t.hash() for t in taken] == [tx.hash()]
        with pytest.raises(DuplicateTransactionError):
            builder.submit(tx)
        # The original wait survived the refused resubmission.
        assert builder.is_pending(tx.hash())
        assert not original.done()

    asyncio.run(run())


def test_total_execution_failure_fails_futures_not_loop(deployment):
    from repro.serve.errors import ExecutionFailedError

    async def run():
        builder = build(deployment, block_size_target=2)

        def explode(block):
            raise RuntimeError("executor dead")

        def explode_seq(block):
            raise RuntimeError("fallback dead too")

        real_seq = builder.node.execute_block
        builder._execute = explode
        builder.node.execute_block = explode_seq
        builder.start()
        digest_before = builder.node.state.state_digest()
        doomed = [
            builder.receipt_future(builder.submit(tx))
            for tx in make_transactions(deployment, 2)
        ]
        with pytest.raises(ExecutionFailedError):
            await asyncio.wait_for(
                asyncio.gather(*doomed), timeout=5.0
            )
        # State untouched, queue drained, loop still alive: a fresh
        # submission (with the fallback healed) commits normally.
        assert builder.node.state.state_digest() == digest_before
        assert builder.depth == 0
        builder.node.execute_block = real_seq
        fresh = [
            builder.receipt_future(builder.submit(tx))
            for tx in make_transactions(deployment, 2, seed=1)
        ]
        committed = await asyncio.wait_for(
            asyncio.gather(*fresh), timeout=5.0
        )
        await builder.drain_and_stop()
        return builder, committed

    builder, committed = asyncio.run(run())
    assert served(builder, "execution_failures") == 1
    assert served(builder, "blocks_built") == 1
    assert all(c.receipt.success for c in committed)


def test_receipt_history_is_bounded(deployment):
    async def run():
        builder = build(
            deployment, block_size_target=1, receipt_history_blocks=2
        )
        builder.start()
        txs = make_transactions(deployment, 3)
        for tx in txs:  # one block each: size target is 1
            await asyncio.wait_for(
                builder.receipt_future(builder.submit(tx)), timeout=5.0
            )
        await builder.drain_and_stop()
        return builder, txs

    builder, txs = asyncio.run(run())
    assert served(builder, "blocks_built") == 3
    # Only the two most recent blocks' receipts are retained, in the
    # server map and the node alike.
    assert builder.committed.get(txs[0].hash()) is None
    assert builder.committed.get(txs[1].hash()) is not None
    assert builder.committed.get(txs[2].hash()) is not None
    assert len(builder.node.receipts) == 2
    assert len(builder.node.chain) == 3
