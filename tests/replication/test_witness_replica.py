"""Witness-mode replicas: stateless validation of the streamed chain."""

import asyncio

import pytest

from repro.chain.node import Node
from repro.replication import (
    Replica,
    ReplicaDivergenceError,
    StreamProtocolError,
)
from repro.serve import ServeConfig
from repro.serve.batcher import BlockBuilder
from repro.serve.loadgen import RpcClient
from repro.serve.server import RpcServer
from repro.storage import codec

from .conftest import (
    eventually,
    fast_replication,
    send_transfers,
    stop_replica,
)


async def _start_witness_writer(deployment, tmp_path) -> RpcServer:
    # conftest.start_writer builds the node itself (no emit_witness),
    # so a witness-emitting writer has to be booted by hand.
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        block_size_target=4,
        gas_target=None,
        block_interval_ms=25.0,
        data_dir=str(tmp_path / "writer"),
        fsync="never",
        snapshot_interval_blocks=4,
        replication_port=0,
        emit_witness=True,
    )
    node = Node(
        state=deployment.state.copy(),
        per_sender_cap=config.per_sender_cap,
        emit_witness=True,
    )
    server = RpcServer(node=node, config=config)
    await server.start()
    return server


def _witness_replica(deployment):
    node = Node(state=deployment.state.copy())
    builder = BlockBuilder(node, ServeConfig(port=0, role="replica"))
    return Replica(
        node=node,
        builder=builder,
        writer_host="127.0.0.1",
        writer_stream_port=1,
        mode="witness",
    )


def _committed_record(deployment, count=4):
    writer = Node(state=deployment.state.copy(), emit_witness=True)
    from repro.serve.loadgen import make_transactions

    for tx in make_transactions(deployment, count, seed=3):
        writer.hear(tx)
    block = writer.propose_block(max_transactions=count)
    writer.execute_block(block)
    return writer, codec.WalRecord(
        block, witness=writer.witnesses[block.header.height]
    )


def test_witness_apply_advances_root_chain_without_state(deployment):
    writer, record = _committed_record(deployment)
    replica = _witness_replica(deployment)
    untouched = codec.state_digest_bytes(replica.node.state)
    receipts = replica._apply_block_witness(record)
    assert len(receipts) == len(record.block.transactions)
    assert replica.height == 1
    assert replica._last_root == writer.state_root
    assert replica.node.receipts[record.block.hash()] == receipts
    # The replica's resident state was never executed against.
    assert codec.state_digest_bytes(replica.node.state) == untouched


def test_witness_mode_demands_a_witness(deployment):
    writer, record = _committed_record(deployment)
    replica = _witness_replica(deployment)
    bare = codec.WalRecord(record.block)
    with pytest.raises(StreamProtocolError) as err:
        replica._apply_block_witness(bare)
    assert "--emit-witness" in str(err.value)


def test_corrupted_witness_is_divergence(deployment):
    writer, record = _committed_record(deployment)
    replica = _witness_replica(deployment)
    mutated = bytearray(record.witness)
    mutated[len(mutated) // 2] ^= 0xFF
    bad = codec.WalRecord(record.block, witness=bytes(mutated))
    with pytest.raises(ReplicaDivergenceError) as err:
        replica._apply_block_witness(bad)
    assert err.value.height == 1
    assert replica.height == 0  # nothing committed


def test_witness_replica_follows_writer_end_to_end(
    deployment, tmp_path
):
    async def run():
        writer = await _start_witness_writer(deployment, tmp_path)
        config = ServeConfig(host="127.0.0.1", port=0, role="replica")
        node = Node(state=deployment.state.copy())
        server = RpcServer(node=node, config=config)
        replica = Replica(
            node=node,
            builder=server.builder,
            writer_host="127.0.0.1",
            writer_stream_port=writer.config.replication_port,
            config=fast_replication(),
            mode="witness",
        )
        server.replication = replica
        await server.start()
        replica.start()
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 8, seed=5
            )
            await eventually(
                lambda: replica.height == len(writer.node.chain)
                and len(writer.node.chain) > 0,
                desc="witness replica caught up",
            )
            assert replica._last_root == writer.node.state_root
            client = await RpcClient.connect(
                "127.0.0.1", server.config.port
            )
            try:
                receipt = await client.call(
                    "repro_getReceipt",
                    {"txHash": txs[0].hash().hex()},
                )
            finally:
                await client.close()
            assert receipt is not None and receipt["success"] is True
        finally:
            await stop_replica(server, replica)
            await writer.shutdown()

    asyncio.run(run())
