"""Socket-level behaviour of conflict-aware packing.

Over real connections: a hot-key flood cannot starve a conflicting
transaction past the aging bound, resubmission stays idempotent while
packing holds transactions deferred, and the stats surface reports the
packing counters.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.chain.node import Node
from repro.chain.transaction import Transaction
from repro.serve import (
    ADMISSION_REJECTED,
    RpcClient,
    RpcClientError,
    RpcServer,
    ServeConfig,
)
from repro.serve import protocol

HOT = 0xAB00_0001  # one shared recipient: every flood tx conflicts
#: Deferred cuts before a conflicting transaction is force-included:
#: below the serve default, so the flood reaches it within a few blocks.
AGING_BOUND = 2


def make_config(**overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        block_size_target=4,
        gas_target=None,
        block_interval_ms=5.0,
        executor="sequential",
        packing="conflict_aware",
        num_workers=2,  # lanes of 2
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def booted(deployment, config):
    node = Node(state=deployment.state.copy())
    server = RpcServer(node=node, config=config)
    server.builder.packing_policy = replace(
        server.builder.packing_policy, aging_bound=AGING_BOUND
    )
    await server.start()
    client = await RpcClient.connect(config.host, config.port)
    return server, client


def send_params(tx, **extra):
    return {"tx": protocol.tx_to_wire(tx), **extra}


def hot_tx(deployment, account_index, nonce=1, to=HOT):
    return Transaction(
        sender=deployment.accounts[account_index], to=to,
        value=1, nonce=nonce, gas_limit=50_000,
    )


def test_hot_flood_cannot_starve_a_conflicting_transaction(deployment):
    """The victim conflicts with every flood transaction; more flood
    keeps arriving *after* it. It must still commit within its backlog
    rank + 1 blocks — the aging bound's socket-level contract."""
    flood_before, flood_after = 24, 24

    async def run():
        server, client = await booted(deployment, make_config())
        try:
            for i in range(flood_before):
                await client.call(
                    "repro_sendTransaction",
                    send_params(hot_tx(deployment, i), wait=False),
                )
            victim = hot_tx(deployment, 63)
            waiter = asyncio.create_task(client.call(
                "repro_sendTransaction", send_params(victim)
            ))
            # The flood continues behind the victim while it waits.
            for i in range(flood_after):
                await client.call(
                    "repro_sendTransaction",
                    send_params(hot_tx(deployment, 32 + i), wait=False),
                )
            receipt = await asyncio.wait_for(waiter, timeout=30.0)
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return receipt, stats

    receipt, stats = asyncio.run(run())
    assert receipt["success"] is True
    # Backlog rank at admission was flood_before: even if every cut
    # frees only one older transaction, the victim is in by then.
    assert receipt["blockHeight"] <= flood_before + 1
    # The run actually exercised the deferral path.
    assert stats["packing"] == "conflict_aware"
    assert stats["packedDeferred"] > 0
    assert stats["packedBlocks"] > 0


def test_resubmission_after_commit_is_idempotent(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        tx = hot_tx(deployment, 0)
        try:
            first = await client.call(
                "repro_sendTransaction", send_params(tx)
            )
            second = await client.call(
                "repro_sendTransaction", send_params(tx)
            )
        finally:
            await client.close()
            await server.shutdown()
        return first, second

    first, second = asyncio.run(run())
    assert first["success"] is True
    assert second == first  # byte-identical wire receipt, no re-execution


def test_duplicate_while_deferred_is_refused(deployment):
    """A transaction sitting deferred in the pool is still 'pending':
    resubmitting it must be refused, not double-admitted."""
    config = make_config(
        block_size_target=100, num_workers=50,  # lanes of 2
        block_interval_ms=10_000.0,
    )

    async def run():
        server, client = await booted(deployment, config)
        tx = hot_tx(deployment, 0)
        try:
            await client.call(
                "repro_sendTransaction", send_params(tx, wait=False)
            )
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_sendTransaction", send_params(tx, wait=False)
                )
        finally:
            await client.close()
            await server.shutdown()
        return err.value

    err = asyncio.run(run())
    assert err.code == ADMISSION_REJECTED
