"""Witness-mode replicas: each block runs through Node.execute_block on
the state its witness proves; state reads are refused, never wrong."""

import asyncio
import dataclasses
import tempfile

import pytest

from repro.chain.node import Node
from repro.faults import FaultInjector, FaultPlan, NetworkFault
from repro.replication import (
    ReadProxy,
    Replica,
    ReplicaDivergenceError,
    StreamProtocolError,
)
from repro.serve import ServeConfig
from repro.serve.batcher import BlockBuilder
from repro.serve.errors import STATE_UNAVAILABLE
from repro.serve.loadgen import RpcClient, RpcClientError, make_transactions
from repro.serve.server import RpcServer
from repro.storage import StorageConfig, attach, codec
from repro.storage.wal import scan_wal
from repro.trie import decode_witness

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
        storage=StorageConfig(fsync="never", snapshot_interval_blocks=4),
        replication_port=0,
    )
    node = Node(state=deployment.state.copy(), emit_witness=True)
    server = RpcServer(node=node, config=config)
    await server.start()
    return server


async def _start_witness_replica(deployment, writer):
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
    return server, replica


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


def _committed_records(deployment, blocks=1, count=4):
    """A durable witness-emitting writer's chain and its WAL records
    (each block with its witness), read back off the log."""
    writer = Node(state=deployment.state.copy(), emit_witness=True)
    txs = make_transactions(deployment, blocks * count, seed=3)
    with tempfile.TemporaryDirectory() as data_dir:
        attach(writer, data_dir, StorageConfig(fsync="never"))
        for start in range(0, blocks * count, count):
            for tx in txs[start:start + count]:
                writer.hear(tx)
            writer.execute_block(
                writer.propose_block(max_transactions=count)
            )
        records = [
            codec.decode_wal_record(payload)
            for payload in scan_wal(writer.store.wal_path).records
        ]
        writer.store.close()
    return writer, records


def _committed_record(deployment, count=4):
    writer, (record,) = _committed_records(deployment, count=count)
    return writer, record


def test_witness_apply_advances_root_chain_without_state(deployment):
    writer, record = _committed_record(deployment)
    replica = _witness_replica(deployment)
    receipts = replica._apply_block(record)
    assert len(receipts) == len(record.block.transactions)
    assert replica.node.height == 1
    assert replica.node.state_root == writer.state_root
    assert replica.node.chain == [record.block]
    assert replica.node.receipts[record.block.hash()] == receipts
    # The replica's state holds the witnessed accounts only, not the
    # genesis it was built with.
    witnessed = {
        entry.address for entry in decode_witness(record.witness).accounts
    }
    held = set(replica.node.state.addresses())
    assert held <= witnessed
    assert len(held) < len(deployment.state.addresses())


def test_witness_mode_demands_a_witness(deployment):
    writer, record = _committed_record(deployment)
    replica = _witness_replica(deployment)
    bare = codec.WalRecord(record.block)
    with pytest.raises(StreamProtocolError) as err:
        replica._apply_block(bare)
    assert "--emit-witness" in str(err.value)


def test_corrupted_witness_is_divergence(deployment):
    writer, record = _committed_record(deployment)
    replica = _witness_replica(deployment)
    mutated = bytearray(record.witness)
    mutated[len(mutated) // 2] ^= 0xFF
    bad = codec.WalRecord(record.block, witness=bytes(mutated))
    with pytest.raises(ReplicaDivergenceError) as err:
        replica._apply_block(bad)
    assert err.value.height == 1
    assert replica.node.height == 0  # nothing committed


def test_failed_witness_block_changes_nothing(deployment):
    writer, (first, second) = _committed_records(deployment, blocks=2)
    block = first.block
    mutated = bytearray(first.witness)
    mutated[len(mutated) // 2] ^= 0xFF
    forged = dataclasses.replace(
        block,
        header=dataclasses.replace(block.header, state_root=b"\x13" * 32),
    )
    honest = codec.WalRecord(block, witness=first.witness)
    bad_inputs = {
        "corrupted witness": codec.WalRecord(block, witness=bytes(mutated)),
        "forged header root": codec.WalRecord(forged, first.witness),
        "witness for the wrong tip": codec.WalRecord(block, second.witness),
        "corrupt_replica_state": honest,
    }
    replica = _witness_replica(deployment)
    node = replica.node
    for name, record in bad_inputs.items():
        replica.fault_injector = None
        if name == "corrupt_replica_state":
            replica.fault_injector = FaultInjector(FaultPlan(
                seed=3, network=NetworkFault(corrupt_at_height=1)
            ))
        before = (
            list(node.chain), dict(node.receipts), dict(node.tx_index),
            node.height,
            node.state_root, replica.stats()["blocksApplied"],
        )
        with pytest.raises(ReplicaDivergenceError) as err:
            replica._apply_block(record)
        assert err.value.height == 1, name
        after = (
            list(node.chain), dict(node.receipts), dict(node.tx_index),
            node.height,
            node.state_root, replica.stats()["blocksApplied"],
        )
        assert after == before, name
    assert replica.fault_injector.injected["replica_state_corrupted"] == 1
    # Nothing stuck: both honest blocks still apply in order.
    replica._apply_block(honest)
    replica._apply_block(second)
    assert node.state_root == writer.state_root
    assert replica.node.height == 2


def test_witness_replica_follows_writer_end_to_end(
    deployment, tmp_path
):
    async def run():
        writer = await _start_witness_writer(deployment, tmp_path)
        server, replica = await _start_witness_replica(deployment, writer)
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 8, seed=5
            )
            await eventually(
                lambda: replica.node.height == len(writer.node.chain)
                and len(writer.node.chain) > 0,
                desc="witness replica caught up",
            )
            assert replica.node.state_root == writer.node.state_root
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


def test_witness_replica_health_claims_the_verified_root(
    deployment, tmp_path
):
    async def run():
        writer = await _start_witness_writer(deployment, tmp_path)
        server, replica = await _start_witness_replica(deployment, writer)
        try:
            await send_transfers(deployment, writer.config.port, 16, seed=7)
            await eventually(
                lambda: replica.node.height == len(writer.node.chain) >= 2,
                desc="witness replica caught up",
            )
            client = await RpcClient.connect(
                "127.0.0.1", server.config.port
            )
            try:
                health = await client.call("repro_health")
            finally:
                await client.close()
            assert health["height"] == len(writer.node.chain)
            assert health["stateRoot"] == writer.node.state_root.hex()
        finally:
            await stop_replica(server, replica)
            await writer.shutdown()

    asyncio.run(run())


def test_proxy_reads_past_a_witness_replica(deployment, tmp_path):
    async def run():
        writer = await _start_witness_writer(deployment, tmp_path)
        server, replica = await _start_witness_replica(deployment, writer)
        proxy = ReadProxy(
            writer_addr=("127.0.0.1", writer.config.port),
            replica_addrs=[("127.0.0.1", server.config.port)],
            config=fast_replication(),
        )
        await proxy.start()
        try:
            txs = await send_transfers(
                deployment, writer.config.port, 16, seed=9
            )
            await eventually(
                lambda: replica.node.height == len(writer.node.chain) > 0
                and proxy.replicas[0].healthy,
                desc="witness replica caught up and healthy",
            )
            addresses = sorted(
                {tx.sender for tx in txs} | {tx.to for tx in txs}
            )
            with writer.builder.state_lock:
                expected = [
                    writer.node.state.get_balance(a) for a in addresses
                ]
            client = await RpcClient.connect("127.0.0.1", proxy.port)
            try:
                balances = [
                    await client.call(
                        "repro_getBalance", {"address": hex(address)}
                    )
                    for address in addresses
                ]
            finally:
                await client.close()
            assert balances == expected
            assert proxy.replicas[0].healthy  # refused, not ejected
            client = await RpcClient.connect(
                "127.0.0.1", server.config.port
            )
            try:
                for method in ("repro_getBalance", "repro_getProof"):
                    with pytest.raises(RpcClientError) as err:
                        await client.call(
                            method, {"address": hex(addresses[0])}
                        )
                    assert err.value.code == STATE_UNAVAILABLE
                    assert err.value.data == {"reason": "stateless"}
            finally:
                await client.close()
        finally:
            await proxy.stop()
            await stop_replica(server, replica)
            await writer.shutdown()

    asyncio.run(run())
