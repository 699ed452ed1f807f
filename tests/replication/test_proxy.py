"""Read-proxy behaviour: routing, ejection, failover, subscriptions."""

import asyncio

from repro.replication import ReadProxy
from repro.serve.loadgen import RpcClient

from .conftest import (
    eventually,
    fast_replication,
    send_transfers,
    start_replica,
    start_writer,
    stop_replica,
)


async def start_proxy(writer, replica_servers) -> ReadProxy:
    proxy = ReadProxy(
        writer_addr=("127.0.0.1", writer.config.port),
        replica_addrs=[
            ("127.0.0.1", server.config.port)
            for server in replica_servers
        ],
        config=fast_replication(),
    )
    await proxy.start()
    return proxy


def test_proxy_round_robins_reads_across_replicas(
    deployment, tmp_path
):
    async def run():
        writer = await start_writer(deployment, tmp_path)
        server_a, replica_a = await start_replica(deployment, writer)
        server_b, replica_b = await start_replica(deployment, writer)
        proxy = await start_proxy(writer, [server_a, server_b])
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 8, seed=31
            )
            await eventually(
                lambda: replica_a.height == len(writer.node.chain)
                and replica_b.height == len(writer.node.chain),
                desc="both replicas caught up",
            )
            served_before = (
                server_a.stats()["requestsServed"]
                + server_b.stats()["requestsServed"]
            )
            client = await RpcClient.connect(
                "127.0.0.1", proxy.port
            )
            try:
                for tx in txs[:6]:
                    balance = await client.call(
                        "repro_getBalance",
                        {"address": hex(tx.sender)},
                    )
                    assert isinstance(balance, int)
                receipt = await client.call(
                    "repro_getReceipt",
                    {"txHash": txs[0].hash().hex()},
                )
                stats = await client.call("repro_stats")
            finally:
                await client.close()
            assert receipt is not None
            assert stats["readsProxied"] == 7
            assert stats["writerFallbackReads"] == 0
            assert stats["healthyReplicas"] == 2
            # The reads actually landed on the replicas (round-robin),
            # not the writer.
            assert (
                server_a.stats()["requestsServed"]
                + server_b.stats()["requestsServed"]
                > served_before
            )
        finally:
            await proxy.stop()
            await stop_replica(server_a, replica_a)
            await stop_replica(server_b, replica_b)
            await writer.shutdown()

    asyncio.run(run())


def test_proxy_ejects_dead_replica_and_falls_back_to_writer(
    deployment, tmp_path
):
    async def run():
        writer = await start_writer(deployment, tmp_path)
        server_a, replica_a = await start_replica(deployment, writer)
        proxy = await start_proxy(writer, [server_a])
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 4, seed=32
            )
            await eventually(
                lambda: replica_a.height == len(writer.node.chain),
                desc="replica caught up",
            )
            client = await RpcClient.connect(
                "127.0.0.1", proxy.port
            )
            try:
                await client.call(
                    "repro_getBalance",
                    {"address": hex(txs[0].sender)},
                )
                # Kill the only replica; reads must keep answering.
                await stop_replica(server_a, replica_a)
                for tx in txs:
                    balance = await client.call(
                        "repro_getBalance",
                        {"address": hex(tx.sender)},
                    )
                    assert isinstance(balance, int)
                await eventually(
                    lambda: not proxy.replicas[0].healthy,
                    desc="dead replica ejected",
                )
                stats = await client.call("repro_stats")
            finally:
                await client.close()
            assert stats["healthyReplicas"] == 0
            assert stats["writerFallbackReads"] > 0
            assert stats["ejects"] + stats["failovers"] >= 1
        finally:
            await proxy.stop()
            await writer.shutdown()

    asyncio.run(run())


def test_proxy_forwards_writes_to_the_writer(deployment, tmp_path):
    async def run():
        from repro.serve import protocol
        from repro.serve.loadgen import make_transactions

        writer = await start_writer(deployment, tmp_path)
        server_a, replica_a = await start_replica(deployment, writer)
        proxy = await start_proxy(writer, [server_a])
        try:
            tx = make_transactions(deployment, 1, seed=33)[0]
            client = await RpcClient.connect(
                "127.0.0.1", proxy.port
            )
            try:
                receipt = await client.call(
                    "repro_sendTransaction",
                    {"tx": protocol.tx_to_wire(tx)},
                )
            finally:
                await client.close()
            assert receipt["success"] is True
            assert proxy.stats()["writesForwarded"] == 1
            assert writer.stats()["txsCommitted"] == 1
        finally:
            await proxy.stop()
            await stop_replica(server_a, replica_a)
            await writer.shutdown()

    asyncio.run(run())


def test_proxy_subscription_survives_replica_death(
    deployment, tmp_path
):
    """newHeads keep flowing, deduped by height, across a failover."""

    async def run():
        writer = await start_writer(deployment, tmp_path)
        server_a, replica_a = await start_replica(deployment, writer)
        proxy = await start_proxy(writer, [server_a])
        heads: list[int] = []
        try:
            client = await RpcClient.connect(
                "127.0.0.1", proxy.port
            )
            try:
                sub = await client.call(
                    "repro_subscribe", {"topic": "newHeads"}
                )
                assert "subscription" in sub

                async def collect() -> None:
                    while True:
                        try:
                            note = await client.next_notification(
                                timeout=0.25
                            )
                        except asyncio.TimeoutError:
                            continue
                        params = note.get("params") or {}
                        heads.append(
                            int(params["result"]["height"])
                        )

                collector = asyncio.ensure_future(collect())
                await send_transfers(
                    deployment, writer.config.port, 8, seed=34
                )
                await eventually(
                    lambda: len(heads) >= 1,
                    desc="heads before the kill",
                )
                seen_before = len(heads)
                await stop_replica(server_a, replica_a)
                # The pump needs a moment to notice the dead upstream
                # and re-subscribe; keep committing blocks so there is
                # always a head to push once it has failed over.
                deadline = asyncio.get_running_loop().time() + 15.0
                seed = 35
                while len(heads) <= seen_before:
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "no heads after failing over to the writer"
                    await send_transfers(
                        deployment, writer.config.port, 2, seed=seed
                    )
                    seed += 1
                    await asyncio.sleep(0.1)
                collector.cancel()
                await asyncio.gather(
                    collector, return_exceptions=True
                )
            finally:
                await client.close()
        finally:
            await proxy.stop()
            await writer.shutdown()
        # Strictly increasing: failover never replayed or skipped
        # around a head the client already saw.
        assert heads == sorted(set(heads))

    asyncio.run(run())
