"""The payload other programs read: ``repro_stats`` / ``repro_health``.

Pins the exact key set and the JSON type of every value, read over a
socket, for the four things that answer these methods: an in-memory
writer, a durable writer streaming to one follower, a replica and a
:class:`ReadProxy`. Written (and green) before the counters behind the
payload moved into ``RpcServer.metrics``; the one difference allowed
since is the added ``metrics`` key of ``repro_stats``. Under it, a
CLI-launched writer and replica also publish the ``gc.*`` series of
``repro.collector``, pinned here by name and type.

Keys read outside ``src/`` — a rename breaks a frozen reader:

* ``bench/run.py``, ``bench/oracle.py``: ``blocksBuilt``,
  ``txsCommitted``, ``sequentialFallbacks``, ``busyRejects``,
  ``deadlineMisses``, ``packedParallelism``, ``packedDeferred``,
  ``chainHeight``, ``walRecords``;
* ``repro.drill``: ``ejects``, ``failovers`` (proxy), ``height``,
  ``stateDigest`` (health).
"""

import asyncio

from repro.drill import ReproProcess, rpc
from repro.replication import ReadProxy
from repro.serve import RpcClient

from tests.replication.conftest import (
    eventually,
    fast_replication,
    send_transfers,
    start_replica,
    start_writer,
    stop_replica,
)

from .test_server import booted, make_config

SERVER_STATS = {
    "role": "str",
    "requestsServed": "int",
    "socketWrites": "int",
    "blocksBuilt": "int",
    "txsCommitted": "int",
    "queueDepth": "int",
    "busyRejects": "int",
    "rateLimitRejects": "int",
    "deadlineMisses": "int",
    "admissionRejects": "int",
    "subscriptionDrops": "int",
    "healthChecks": "int",
    "idleDrops": "int",
    "readOnlyRejects": "int",
    "sequentialFallbacks": "int",
    "executionFailures": "int",
    "packing": "str",
    "packedBlocks": "int",
    "packedDeferred": "int",
    "packedParallelism": "float",
    "chainHeight": "int",
    "shuttingDown": "bool",
    "durable": "bool",
    "recoveredHeight": "int",
    "walRecords": "int",
    "snapshotsWritten": "int",
}

SERVER_HEALTH = {
    "role": "str",
    "height": "int",
    "stateDigest": "str",
    "stateRoot": "str",
    "mempoolDepth": "int",
    "queueDepth": "int",
    "uptimeSeconds": "float",
    "shuttingDown": "bool",
}

STREAMING = {
    "connectionsTotal": "int",
    "connectionsActive": "int",
    "blocksStreamed": "int",
    "snapshotsSent": "int",
    "walHeight": "int",
}

REPLICATION = {
    "height": "int",
    "connected": "bool",
    "blocksApplied": "int",
    "reconnects": "int",
    "resyncs": "int",
    "divergences": "int",
    "lagSeconds": "float",
    "lagBlocks": "int",
}

PROXY_STATS = {
    "role": "str",
    "readsProxied": "int",
    "writerFallbackReads": "int",
    "writesForwarded": "int",
    "failovers": "int",
    "ejects": "int",
    "healthProbes": "int",
    "healthyReplicas": "int",
}

PROXY_HEALTH = {"role": "str", "writerHeight": "int", "backends": "list"}

BACKEND = {
    "name": "str", "healthy": "bool", "height": "int", "lastError": "str",
}


#: What a served process (``repro serve``, ``repro replicate``) publishes
#: under ``metrics`` about the cyclic collector (``repro.collector``).
#: An in-process server keeps the default collector and has none.
GC_COUNTERS = {
    **{f"gc.collections{{generation={g}}}": "int" for g in range(3)},
    **{f"gc.pause_ms{{generation={g}}}": "float" for g in range(3)},
    "gc.unfrozen_walks": "int",
}
GC_GAUGES = {"gc.frozen": "int"}


def shape(payload: dict) -> dict:
    """key -> JSON type of its value, as the socket delivered it."""
    return {
        key: type(value).__name__
        for key, value in payload.items()
        if key != "metrics"  # the one key added since this was pinned
    }


async def stats_and_health(port: int) -> tuple[dict, dict]:
    client = await RpcClient.connect("127.0.0.1", port)
    try:
        return (
            await client.call("repro_stats"),
            await client.call("repro_health"),
        )
    finally:
        await client.close()


def test_in_memory_writer_payload(deployment):
    async def run():
        # Before any traffic: a value's type may not depend on whether
        # anything happened yet (0 vs 0.0).
        server, client = await booted(deployment, make_config())
        await client.close()
        try:
            return await stats_and_health(server.config.port)
        finally:
            await server.shutdown()

    stats, health = asyncio.run(run())
    assert shape(stats) == SERVER_STATS
    assert shape(health) == SERVER_HEALTH


def test_streaming_writer_replica_and_proxy_payloads(deployment, tmp_path):
    async def run():
        writer = await start_writer(deployment, tmp_path)
        replica_server, replica = await start_replica(deployment, writer)
        idle = await stats_and_health(replica_server.config.port)
        proxy = ReadProxy(
            writer_addr=("127.0.0.1", writer.config.port),
            replica_addrs=[("127.0.0.1", replica_server.config.port)],
            config=fast_replication(),
        )
        await proxy.start()
        try:
            await send_transfers(deployment, writer.config.port, 6, seed=5)
            await eventually(
                lambda: replica.height == len(writer.node.chain) > 0,
                desc="replica caught up",
            )
            return (
                idle,
                await stats_and_health(writer.config.port),
                await stats_and_health(replica_server.config.port),
                await stats_and_health(proxy.port),
            )
        finally:
            await proxy.stop()
            await stop_replica(replica_server, replica)
            await writer.shutdown()

    idle, writer, replica, proxy = asyncio.run(run())

    stats, health = writer
    assert shape(stats) == SERVER_STATS
    assert stats["durable"] is True and stats["walRecords"] > 0
    assert shape(health) == {**SERVER_HEALTH, "streaming": "dict"}
    assert shape(health["streaming"]) == STREAMING

    # A replica that has applied nothing and one that has: same types.
    for stats, health in (idle, replica):
        assert shape(stats) == SERVER_STATS
        assert stats["role"] == "replica"
        assert shape(health) == {**SERVER_HEALTH, "replication": "dict"}
        assert shape(health["replication"]) == REPLICATION
    assert replica[1]["replication"]["blocksApplied"] > 0

    stats, health = proxy
    assert shape(stats) == PROXY_STATS
    assert shape(health) == PROXY_HEALTH
    assert [shape(backend) for backend in health["backends"]] == [BACKEND] * 2


def test_served_processes_publish_their_collector_work(tmp_path):
    def gc_shapes(stats: dict) -> tuple[dict, dict]:
        metrics = stats["metrics"]
        return tuple(
            {
                key: type(value).__name__
                for key, value in metrics[kind].items()
                if key.startswith("gc.")
            }
            for kind in ("counters", "gauges")
        )

    writer_argv = [
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--data-dir", str(tmp_path), "--replication-port", "0",
    ]
    with ReproProcess(writer_argv, announcements=2) as writer:
        replica_argv = [
            "replicate", "--host", "127.0.0.1", "--port", "0",
            "--writer-stream-port", str(writer.ports[1]),
        ]
        with ReproProcess(replica_argv) as replica:
            for proc in (writer, replica):
                stats = asyncio.run(rpc(proc.port, "repro_stats"))
                assert shape(stats) == SERVER_STATS
                assert gc_shapes(stats) == (GC_COUNTERS, GC_GAUGES)
            assert replica.stop() == 0
        assert writer.stop() == 0
