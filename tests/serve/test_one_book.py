"""One set of books: ``RpcServer.metrics`` is where a served process
counts, and ``repro_stats`` / ``repro_health`` are views of it.

The registry is *owned, not installed*: two servers in one process keep
separate books and the process registry (``get_registry()``) stays the
null one. Every series a view reads exists, at 0, from construction —
none is created by the first event, so none is created off the event
loop — and nothing in it retains a sample per event (no histogram).
"""

import asyncio
from unittest import mock

import pytest

from repro.chain.node import Node
from repro.obs import NULL_REGISTRY, flat_key, get_registry
from repro.replication import ReadProxy, WalStreamer
from repro.serve import (
    ADMISSION_REJECTED,
    BUSY,
    DEADLINE_EXCEEDED,
    RATE_LIMITED,
    READ_ONLY,
    RateLimiter,
    RpcClient,
    RpcClientError,
)
from repro.serve import server as server_module
from repro.serve.loadgen import make_transactions

from tests.replication.conftest import (
    eventually,
    fast_replication,
    offline_replica,
    send_transfers,
    start_replica,
    start_writer,
    stop_replica,
)

from .test_server import make_config, make_server, send_params

#: ``repro_stats`` key -> the series it is a view of.
SERVER_VIEW = {
    "requestsServed": "serve.requests_served",
    "socketWrites": "serve.socket_writes",
    "blocksBuilt": "serve.blocks_built",
    "txsCommitted": "serve.txs_committed",
    "queueDepth": "serve.queue_depth",
    "busyRejects": "serve.rejected{reason=busy}",
    "rateLimitRejects": "serve.rejected{reason=rate_limited}",
    "deadlineMisses": "serve.deadline_misses",
    "subscriptionDrops": "serve.subscription_drops",
    "healthChecks": "serve.health_checks",
    "idleDrops": "serve.idle_drops",
    "readOnlyRejects": "serve.read_only_rejects",
    "sequentialFallbacks": "serve.sequential_fallbacks",
    "executionFailures": "serve.execution_failures",
    "packedBlocks": "serve.packed_blocks",
    "packedDeferred": "serve.packed_deferred",
}
REPLICATION_VIEW = {
    "blocksApplied": "replication.blocks_applied",
    "reconnects": "replication.reconnects",
    "resyncs": "replication.resyncs",
    "divergences": "replication.divergences",
    "lagBlocks": "replication.lag_blocks",
}
STREAMING_VIEW = {
    "connectionsTotal": "replication.connections",
    "connectionsActive": "replication.followers",
    "blocksStreamed": "replication.blocks_streamed",
    "snapshotsSent": "replication.snapshots_sent",
}
PROXY_VIEW = {
    "readsProxied": "replication.proxy_reads",
    "writerFallbackReads": "replication.proxy_fallback_reads",
    "writesForwarded": "replication.proxy_writes",
    "failovers": "replication.proxy_failovers",
    "ejects": "replication.proxy_ejects",
    "healthProbes": "replication.proxy_probes",
}


def series_of(metrics: dict) -> dict:
    assert metrics["histograms"] == {}, "a sample kept per event"
    return {**metrics["counters"], **metrics["gauges"]}


def assert_view(payload: dict, view: dict, series: dict) -> None:
    assert {key: payload[key] for key in view} == {
        key: series[name] for key, name in view.items()
    }


def assert_server_view(stats: dict) -> dict:
    series = series_of(stats["metrics"])
    assert_view(stats, SERVER_VIEW, series)
    rejected = sum(
        count for name, count in series.items()
        if name.startswith("serve.rejected{")
    )
    assert rejected == (
        stats["busyRejects"] + stats["rateLimitRejects"]
        + stats["admissionRejects"]
    )
    if stats["packedBlocks"]:
        assert stats["packedParallelism"] == (
            series["serve.packed_parallelism_sum"] / stats["packedBlocks"]
        )
    return series


def reads_of(registry, view) -> set:
    """The flat keys of every series *view* reads off *registry*."""
    read = set()

    def value(name, **labels):
        read.add(flat_key(*registry._key(name, labels)))
        return type(registry).value(registry, name, **labels)

    with mock.patch.object(registry, "value", value):
        view()
    return read


def test_every_series_a_view_reads_exists_at_zero_before_traffic(
    deployment, tmp_path
):
    server = make_server(deployment, make_config())
    replica = offline_replica(Node(state=deployment.state.copy()))
    streamer = WalStreamer(str(tmp_path))
    proxy = ReadProxy(("127.0.0.1", 1), [("127.0.0.1", 2)])
    for owner, view, expected in (
        (server, server.stats, set(SERVER_VIEW.values())
         | {"serve.packed_parallelism_sum", "serve.admitted"}),
        (replica, replica.stats, set(REPLICATION_VIEW.values())
         | {"replication.lag_seconds"}),
        (streamer, streamer.stats, set(STREAMING_VIEW.values())),
        (proxy, proxy.stats, set(PROXY_VIEW.values())),
    ):
        before = series_of(owner.metrics.snapshot())
        read = reads_of(owner.metrics, view)
        assert read <= set(before), read - set(before)
        assert expected <= set(before)
        assert not any(before.values()), before
    # The replica publishes into the books of the stack it feeds.
    assert replica.metrics is replica.builder.metrics
    assert server.builder.metrics is server.metrics
    assert get_registry() is NULL_REGISTRY


def test_mixed_run_every_legacy_key_equals_its_series(deployment, monkeypatch):
    async def refused(call) -> int:
        with pytest.raises(RpcClientError) as err:
            await call
        return err.value.code

    async def run():
        writer = make_server(deployment, make_config(
            block_interval_ms=10_000.0,  # blocks cut at 4 pending, only
            idle_timeout_s=3600.0,
        ))
        now = [1000.0]
        writer._clock = lambda: now[0]
        follower = make_server(deployment, make_config(role="replica"))
        await writer.start()
        await follower.start()
        before = set(series_of(writer.metrics.snapshot()))
        client = await RpcClient.connect("127.0.0.1", writer.config.port)
        idle = await RpcClient.connect("127.0.0.1", writer.config.port)
        other = await RpcClient.connect("127.0.0.1", follower.config.port)
        txs = make_transactions(deployment, 9)

        def send(tx, **extra):
            return client.call(
                "repro_sendTransaction", send_params(tx, **extra)
            )

        try:
            await idle.call("repro_subscribe", {"topic": "newHeads"})
            # Block 1 through an engine that dies: a sequential fallback.
            with mock.patch.object(
                writer.builder, "_execute", side_effect=RuntimeError("dead")
            ):
                receipts = await asyncio.gather(*map(send, txs[:4]))
            assert all(r["blockHeight"] == 1 for r in receipts)
            await send(txs[4], wait=False)
            assert await refused(send(txs[4], wait=False)) == (
                ADMISSION_REJECTED
            )
            assert await refused(send(txs[5], deadline_ms=10)) == (
                DEADLINE_EXCEEDED
            )
            writer.config.max_pending = 2
            assert await refused(send(txs[6])) == BUSY
            writer.config.max_pending = 1000
            writer.limiter = RateLimiter(0.001, 1)
            await send(txs[6], wait=False)
            assert await refused(send(txs[7], wait=False)) == RATE_LIMITED
            writer.limiter = None
            # Block 2 finds its one subscriber over the buffer cap.
            monkeypatch.setattr(server_module, "MAX_SUBSCRIBER_BUFFER", -1)
            assert (await send(txs[7]))["blockHeight"] == 2
            # Hours pass; only `client` keeps talking (and `idle` is no
            # longer a subscriber, so nothing exempts it).
            now[0] += 10_000.0
            await client.call("repro_health")
            assert writer._reap_idle() == 1
            assert await refused(other.call(
                "repro_sendTransaction", send_params(txs[8])
            )) == READ_ONLY
            return (
                before,
                await client.call("repro_stats"),
                await other.call("repro_stats"),
            )
        finally:
            for connection in (client, idle, other):
                await connection.close()
            await follower.shutdown()
            await writer.shutdown()

    before, stats, follower_stats = asyncio.run(run())
    series = assert_server_view(stats)
    expected = {
        "blocksBuilt": 2, "txsCommitted": 8, "sequentialFallbacks": 1,
        "busyRejects": 1, "rateLimitRejects": 1, "admissionRejects": 1,
        "deadlineMisses": 1, "subscriptionDrops": 1, "idleDrops": 1,
        "healthChecks": 1, "readOnlyRejects": 0, "queueDepth": 0,
    }
    assert {key: stats[key] for key in expected} == expected
    assert series["serve.admitted"] == 8
    assert series["serve.rejected{reason=DuplicateTransactionError}"] == 1
    # Nothing but a refusal's reason is created by traffic.
    assert set(series) - before == {
        "serve.rejected{reason=DuplicateTransactionError}"
    }
    # The other server in the process kept its own books.
    follower_series = assert_server_view(follower_stats)
    assert follower_stats["readOnlyRejects"] == 1
    assert follower_stats["txsCommitted"] == 0
    assert follower_series["serve.admitted"] == 0
    assert get_registry() is NULL_REGISTRY


def test_replication_views_read_the_books_of_the_stack_they_feed(
    deployment, tmp_path
):
    async def run():
        writer = await start_writer(deployment, tmp_path)
        replica_server, replica = await start_replica(deployment, writer)
        proxy = ReadProxy(
            writer_addr=("127.0.0.1", writer.config.port),
            replica_addrs=[("127.0.0.1", replica_server.config.port)],
            config=fast_replication(),
        )
        await proxy.start()
        client = await RpcClient.connect("127.0.0.1", proxy.port)
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 6, seed=5
            )
            await eventually(
                lambda: replica.node.height == len(writer.node.chain) > 0,
                desc="replica caught up",
            )
            await client.call(
                "repro_getBalance", {"address": hex(txs[0].sender)}
            )
            return (
                writer.stats(), writer.health(),
                replica_server.stats(), replica_server.health(),
                await client.call("repro_stats"),
            )
        finally:
            await client.close()
            await proxy.stop()
            await stop_replica(replica_server, replica)
            await writer.shutdown()

    writer_stats, writer_health, stats, health, proxy_stats = asyncio.run(
        run()
    )
    writer_series = assert_server_view(writer_stats)
    assert_view(writer_health["streaming"], STREAMING_VIEW, writer_series)
    assert writer_health["streaming"]["connectionsActive"] == 1
    assert writer_health["streaming"]["blocksStreamed"] > 0
    # The follower's series are the follower's: the writer has none.
    assert not any(name in writer_series for name in REPLICATION_VIEW.values())

    series = assert_server_view(stats)
    assert_view(health["replication"], REPLICATION_VIEW, series)
    assert health["replication"]["blocksApplied"] == stats["blocksBuilt"] > 0
    assert health["replication"]["lagSeconds"] == round(
        series["replication.lag_seconds"], 6
    )
    assert stats["txsCommitted"] == writer_stats["txsCommitted"] == 6

    assert_view(proxy_stats, PROXY_VIEW, series_of(proxy_stats["metrics"]))
    assert proxy_stats["readsProxied"] == 1
    assert get_registry() is NULL_REGISTRY
