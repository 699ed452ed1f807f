"""Idle-connection reaping, driven by a fake clock (no sleeps)."""

import asyncio

from repro.chain.node import Node
from repro.serve import RpcClient, RpcServer, ServeConfig


async def booted(deployment, idle_timeout_s=30.0):
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        block_size_target=4,
        gas_target=None,
        idle_timeout_s=idle_timeout_s,
    )
    node = Node(state=deployment.state.copy())
    server = RpcServer(node=node, config=config)
    await server.start()
    now = [1000.0]
    server._clock = lambda: now[0]
    return server, now


def test_idle_connection_reaped_after_timeout(deployment):
    async def run():
        server, now = await booted(deployment)
        idle = await RpcClient.connect(
            "127.0.0.1", server.config.port
        )
        active = await RpcClient.connect(
            "127.0.0.1", server.config.port
        )
        try:
            await idle.call("repro_stats")
            await active.call("repro_stats")
            assert len(server._connections) == 2

            # Time passes; only one client keeps talking.
            now[0] += 20.0
            await active.call("repro_stats")
            now[0] += 15.0  # idle is now 35s silent; active only 15s
            reaped = server._reap_idle()
            assert reaped == 1
            assert server.stats()["idleDrops"] == 1
            assert len(server._connections) == 1

            # The survivor still works; the reaped socket is dead.
            stats = await active.call("repro_stats")
            assert stats["idleDrops"] == 1
            try:
                await asyncio.wait_for(
                    idle.call("repro_stats"), timeout=5.0
                )
            except (ConnectionError, asyncio.TimeoutError):
                pass
            else:
                raise AssertionError(
                    "reaped connection still answered"
                )
        finally:
            await idle.close()
            await active.close()
            await server.shutdown()

    asyncio.run(run())


def test_subscribers_are_exempt_from_idle_reaping(deployment):
    async def run():
        server, now = await booted(deployment)
        subscriber = await RpcClient.connect(
            "127.0.0.1", server.config.port
        )
        try:
            await subscriber.call(
                "repro_subscribe", {"topic": "newHeads"}
            )
            now[0] += 10_000.0  # hours of push-only silence
            assert server._reap_idle() == 0
            assert server.stats()["idleDrops"] == 0
            assert len(server._connections) == 1
            # Still a live subscription, not a zombie entry.
            assert len(server._subscriptions) == 1
        finally:
            await subscriber.close()
            await server.shutdown()

    asyncio.run(run())


def test_no_timeout_configured_never_reaps(deployment):
    async def run():
        config = ServeConfig(
            host="127.0.0.1", port=0, block_size_target=4,
            gas_target=None,
        )
        node = Node(state=deployment.state.copy())
        server = RpcServer(node=node, config=config)
        await server.start()
        client = await RpcClient.connect(
            "127.0.0.1", server.config.port
        )
        try:
            await client.call("repro_stats")
            server._clock = lambda: 10**9
            assert server._reap_idle() == 0
            assert server._reaper is None  # no reaper task either
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())
