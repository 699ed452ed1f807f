"""In-process replication harness: writer + replicas + proxy, no subprocesses.

The chaos drill (``python -m repro.drill replication``) covers the
real-process SIGKILL; these fixtures wire the same components
inside one event loop so the tier-1 suite can exercise streaming,
divergence, resync, and proxy routing deterministically and fast.
"""

from __future__ import annotations

import asyncio
import time

from repro.chain.node import Node
from repro.replication import BackoffPolicy, Replica, ReplicationConfig
from repro.serve import RpcServer, ServeConfig
from repro.storage import StorageConfig


def fast_replication(**overrides) -> ReplicationConfig:
    defaults = dict(
        poll_interval_s=0.01,
        seed=1,
        backoff=BackoffPolicy(
            base_delay_s=0.02, max_delay_s=0.2, jitter=0.25
        ),
        stream_read_timeout_s=5.0,
        health_interval_s=0.05,
        backend_timeout_s=2.0,
    )
    defaults.update(overrides)
    return ReplicationConfig(**defaults)


def offline_replica(node) -> Replica:
    """A replica that never dials: for driving its apply paths by hand."""
    from repro.serve.batcher import BlockBuilder

    return Replica(
        node=node,
        builder=BlockBuilder(node, ServeConfig(port=0, role="replica")),
        writer_host="127.0.0.1",
        writer_stream_port=1,
    )


async def start_writer(
    deployment, tmp_path, fault_injector=None, **overrides
) -> RpcServer:
    defaults = dict(
        host="127.0.0.1",
        port=0,
        block_size_target=4,
        gas_target=None,
        block_interval_ms=25.0,
        data_dir=str(tmp_path / "writer"),
        storage=StorageConfig(fsync="never", snapshot_interval_blocks=4),
        replication_port=0,
    )
    defaults.update(overrides)
    config = ServeConfig(**defaults)
    node = Node(state=deployment.state.copy())
    server = RpcServer(
        node=node, config=config, fault_injector=fault_injector
    )
    await server.start()
    return server


async def start_replica(
    deployment, writer: RpcServer, fault_injector=None, **overrides
) -> tuple[RpcServer, Replica]:
    config = ServeConfig(host="127.0.0.1", port=0, role="replica")
    node = Node(state=deployment.state.copy())
    server = RpcServer(node=node, config=config)
    replica = Replica(
        node=node,
        builder=server.builder,
        writer_host="127.0.0.1",
        writer_stream_port=writer.config.replication_port,
        config=fast_replication(**overrides),
        fault_injector=fault_injector,
    )
    server.replication = replica
    await server.start()
    replica.start()
    return server, replica


async def stop_replica(server: RpcServer, replica: Replica) -> None:
    await replica.stop()
    await server.shutdown()


async def send_transfers(
    deployment, port: int, count: int, seed=0, skip: int = 0
):
    """Commit *count* transfer transactions through the writer's RPC.

    ``skip`` continues an earlier call with the same seed (the generator
    is deterministic, so the nonces carry on where that call stopped).
    """
    from repro.serve import protocol
    from repro.serve.loadgen import RpcClient, make_transactions

    txs = make_transactions(deployment, skip + count, seed=seed)[skip:]
    client = await RpcClient.connect("127.0.0.1", port)
    try:
        for tx in txs:
            await client.call(
                "repro_sendTransaction",
                {"tx": protocol.tx_to_wire(tx)},
            )
    finally:
        await client.close()
    return txs


async def eventually(
    predicate, timeout=15.0, interval=0.02, desc="condition"
) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise AssertionError(f"timed out waiting for {desc}")


def digest_of(server: RpcServer) -> bytes:
    from repro.storage import codec

    with server.builder.state_lock:
        return codec.state_digest_bytes(server.node.state)
