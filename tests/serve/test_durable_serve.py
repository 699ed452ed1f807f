"""Durable serving: acked-means-durable, restart resume, drain spill."""

import asyncio
import dataclasses
import os

import pytest

from repro.chain.node import Node
from repro.serve import RpcClient, RpcServer, ServeConfig
from repro.serve import protocol
from repro.serve.errors import EXECUTION_FAILED
from repro.serve.loadgen import RpcClientError, make_transactions
from repro.storage import StorageConfig, recover, verify_store
from repro.storage.codec import state_digest_bytes
from repro.storage.wal import scan_wal
from repro.trie import StateTrie
from tests.conftest import refuse_next_append


def make_config(data_dir, **overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        block_size_target=4,
        block_interval_ms=25.0,
        executor="sequential",
        data_dir=str(data_dir),
        storage=StorageConfig(fsync="never", snapshot_interval_blocks=2),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def make_server(deployment, config):
    node = Node(state=deployment.state.copy())
    return RpcServer(node=node, config=config)


async def send_all(client, txs):
    receipts = []
    for tx in txs:
        receipts.append(await client.call(
            "repro_sendTransaction", {"tx": protocol.tx_to_wire(tx)}
        ))
    return receipts


def test_durable_serve_round_trip(deployment, tmp_path):
    async def run():
        server = make_server(deployment, make_config(tmp_path))
        await server.start()
        client = await RpcClient.connect(server.config.host,
                                         server.config.port)
        try:
            txs = make_transactions(deployment, 6, seed=3)
            receipts = await send_all(client, txs)
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return receipts, stats

    receipts, stats = asyncio.run(run())
    assert all(r["success"] for r in receipts)
    assert stats["durable"] is True
    assert stats["walRecords"] == stats["chainHeight"] >= 1
    # Every committed block is on disk, and the store audits clean.
    scan = scan_wal(str(tmp_path / "wal.log"))
    assert scan.clean
    assert len(scan.records) == stats["chainHeight"]
    assert verify_store(str(tmp_path)).ok


@pytest.mark.parametrize("half_written", [False, True])
def test_failed_append_fails_the_block_and_nothing_else(
    deployment, tmp_path, half_written
):
    """A full disk under one block: its clients are told it failed, and
    that is all that happened — the block is in neither the chain nor
    the state, it was not run a second time, the log holds no part of
    it, and what is served, sealed and recovered afterwards agree."""
    config = make_config(tmp_path, block_interval_ms=500.0)
    txs = make_transactions(deployment, 8, seed=3)

    async def send_block(client, block_txs):
        return await asyncio.gather(*(
            client.call(
                "repro_sendTransaction", {"tx": protocol.tx_to_wire(tx)}
            )
            for tx in block_txs
        ), return_exceptions=True)

    async def run():
        server = make_server(deployment, config)
        refuse_next_append(server.node.store, half_written=half_written)
        await server.start()
        client = await RpcClient.connect(server.config.host,
                                         server.config.port)
        try:
            refused = await send_block(client, txs[:4])
            served = await send_block(client, txs[4:])
            node = server.node
            live = (node.state_root, StateTrie.rebuild_root(node.state),
                    state_digest_bytes(node.state))
            resubmitted = await send_block(client, txs[:4])
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return refused, served, live, resubmitted, stats, server

    refused, served, live, resubmitted, stats, server = asyncio.run(run())
    assert [type(r) for r in refused] == [RpcClientError] * 4
    assert {r.code for r in refused} == {EXECUTION_FAILED}
    assert [r["blockHeight"] for r in served] == [1] * 4
    # "Safe to resubmit" is true: the refused transfers were nowhere.
    assert [r["blockHeight"] for r in resubmitted] == [2] * 4
    assert all(r["success"] for r in served + resubmitted)
    assert server.stats()["sequentialFallbacks"] == 0
    assert stats["walRecords"] == stats["chainHeight"] == 2

    # Served root == root of the served state == what a fresh node
    # computes from block 1 alone: nothing of the refused block stayed.
    node = server.node
    live_root, rebuilt_root, live_digest = live
    reference = Node(state=deployment.state.copy())
    first = node.chain[0]
    assert [tx.hash() for tx in first.transactions] == [
        tx.hash() for tx in txs[4:]
    ]
    reference.execute_block(dataclasses.replace(
        first,
        header=dataclasses.replace(first.header, state_root=b""),
    ))
    assert (live_root == rebuilt_root == first.header.state_root
            == reference.state_root)
    assert live_digest == state_digest_bytes(reference.state)

    scan = scan_wal(str(tmp_path / "wal.log"))
    assert scan.clean and len(scan.records) == 2
    assert verify_store(str(tmp_path)).ok
    result = recover(str(tmp_path))
    assert result.height == 2
    assert result.state_digest == state_digest_bytes(node.state)


def test_restart_resumes_and_serves_old_receipts(deployment, tmp_path):
    config = make_config(tmp_path)

    async def first_run():
        server = make_server(deployment, config)
        await server.start()
        client = await RpcClient.connect(config.host, config.port)
        try:
            txs = make_transactions(deployment, 5, seed=7)
            await send_all(client, txs)
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return txs, stats

    txs, stats = asyncio.run(first_run())
    height = stats["chainHeight"]

    async def second_run():
        server = make_server(deployment, make_config(tmp_path))
        await server.start()
        client = await RpcClient.connect(server.config.host,
                                         server.config.port)
        try:
            fetched = [
                await client.call(
                    "repro_getReceipt", {"txHash": tx.hash().hex()}
                )
                for tx in txs
            ]
            # Resubmitting a committed transaction stays idempotent
            # across the restart: seed_committed() restored the dedup
            # index, so the original receipt comes back unre-executed.
            resubmitted = await client.call(
                "repro_sendTransaction",
                {"tx": protocol.tx_to_wire(txs[0])},
            )
            assert resubmitted == fetched[0]
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return fetched, stats, server.recovery

    fetched, stats2, recovery = asyncio.run(second_run())
    assert recovery is not None and recovery.height == height
    assert stats2["recoveredHeight"] == height
    assert all(r is not None and r["success"] for r in fetched)
    # New blocks appended after restart extend, not rewrite, the WAL.
    assert stats2["chainHeight"] == height


def test_shutdown_spills_pending_and_restart_readmits(
    deployment, tmp_path
):
    config = make_config(tmp_path)

    async def run_spill():
        server = make_server(deployment, config)
        # Never started: the builder loop is not running, so hears stay
        # pending — exactly the shape of a drain that could not finish.
        txs = make_transactions(deployment, 3, seed=9)
        for tx in txs:
            server.node.hear(tx)
        await server.shutdown()
        return txs

    txs = asyncio.run(run_spill())
    assert os.path.exists(tmp_path / "mempool.rlp")

    async def run_restart():
        server = make_server(deployment, make_config(tmp_path))
        await server.start()
        try:
            # The respilled transactions are in the mempool before any
            # new traffic arrives.
            pending = {
                tx.hash() for tx in server.node.mempool.pending()
            }
        finally:
            await server.shutdown()
        return pending

    pending = asyncio.run(run_restart())
    assert {tx.hash() for tx in txs} <= pending
    assert not os.path.exists(tmp_path / "mempool.rlp")
