"""Access blooms are derived on first use, not at admission.

FIFO serving never reads a bloom, so it never derives one — until a
drain spills what is still pooled. The conflict-aware builder reads
them in ``take_packed`` on the event loop, without ``state_lock``, so
it derives each one inside ``submit``'s locked section instead.
"""

import asyncio

import pytest

from repro.chain import mempool as mempool_module
from repro.chain.bloom import AccessBloom
from repro.chain.node import Node
from repro.serve import RpcClient, RpcServer, ServeConfig
from repro.serve import protocol
from repro.serve.loadgen import make_transactions
from repro.storage import StorageConfig
from repro.storage.store import ChainStore


def make_config(**overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        block_size_target=4,
        gas_target=None,
        block_interval_ms=25.0,
        executor="sequential",
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def make_server(deployment, config):
    node = Node(state=deployment.state.copy())
    return RpcServer(node=node, config=config)


async def send_all(server, txs):
    client = await RpcClient.connect("127.0.0.1", server.config.port)
    try:
        return await asyncio.gather(*(
            client.call(
                "repro_sendTransaction", {"tx": protocol.tx_to_wire(tx)}
            )
            for tx in txs
        ))
    finally:
        await client.close()


@pytest.fixture()
def derivations(monkeypatch):
    """Every ``bloom_for_transaction`` call the mempool makes, with the
    context it was made in (filled in by the tests)."""
    calls = []
    derive = mempool_module.bloom_for_transaction

    def recording(tx, **kwargs):
        calls.append(tx.hash())
        return derive(tx, **kwargs)

    monkeypatch.setattr(
        mempool_module, "bloom_for_transaction", recording
    )
    return calls


def test_fifo_serving_derives_no_bloom(deployment, monkeypatch):
    """FIFO serving runs no line of the packed path: no derivation, no
    ``AccessBloom`` built by any route, no packed cut."""
    def refuse(*args, **kwargs):
        raise AssertionError("FIFO serving entered the packed path")

    monkeypatch.setattr(mempool_module, "bloom_for_transaction", refuse)
    monkeypatch.setattr(AccessBloom, "__init__", refuse)
    monkeypatch.setattr(mempool_module.Mempool, "take_packed", refuse)

    async def run():
        server = make_server(deployment, make_config())
        await server.start()
        try:
            return await send_all(
                server, make_transactions(deployment, 16)
            )
        finally:
            await server.shutdown()

    receipts = asyncio.run(run())
    assert len(receipts) == 16 and all(r["success"] for r in receipts)


def test_drain_spill_derives_then_restart_reuses(
    deployment, derivations, tmp_path
):
    config = dict(data_dir=str(tmp_path), storage=StorageConfig(fsync="never"))
    txs = make_transactions(deployment, 3, seed=9)

    async def run_spill():
        server = make_server(deployment, make_config(**config))
        # Never started: the hears stay pooled — the shape of a drain
        # that could not finish.
        for tx in txs:
            server.node.hear(tx)
        assert derivations == []
        await server.shutdown()

    asyncio.run(run_spill())
    # The spill is the first use: one bloom per entry, on disk.
    assert derivations == [tx.hash() for tx in txs]
    store = ChainStore(str(tmp_path))
    try:
        spilled = store.load_mempool(delete=False)
    finally:
        store.close()
    assert [tx.hash() for tx, _ in spilled] == [tx.hash() for tx in txs]
    for _tx, blob in spilled:
        bloom = AccessBloom.from_bytes(blob)
        assert not bloom.is_opaque

    del derivations[:]

    async def run_restart():
        server = make_server(deployment, make_config(**config))
        await server.start()
        try:
            pool = server.node.mempool
            return [pool.bloom_of(tx).to_bytes() for tx in pool.pending()]
        finally:
            await server.shutdown()

    readmitted = asyncio.run(run_restart())
    # Readmitted with the spilled blooms, verbatim: nothing re-derived.
    assert readmitted[:3] == [blob for _tx, blob in spilled]
    assert derivations == []


def test_packing_derives_at_submit_under_the_state_lock(
    deployment, derivations, monkeypatch
):
    config = make_config(
        packing="conflict_aware", block_size_target=8,  # 4 lanes of 2
    )
    contexts = []

    async def run():
        server = make_server(deployment, config)
        lock = server.builder.state_lock
        packing = [False]
        derive = mempool_module.bloom_for_transaction
        take_packed = mempool_module.Mempool.take_packed

        def observing(tx, **kwargs):
            contexts.append((lock.locked(), packing[0]))
            return derive(tx, **kwargs)

        def flagged_take_packed(self, *args, **kwargs):
            packing[0] = True
            try:
                return take_packed(self, *args, **kwargs)
            finally:
                packing[0] = False

        monkeypatch.setattr(
            mempool_module, "bloom_for_transaction", observing
        )
        monkeypatch.setattr(
            mempool_module.Mempool, "take_packed", flagged_take_packed
        )
        await server.start()
        try:
            receipts = await send_all(
                server,
                make_transactions(deployment, 48, workload="hotburst"),
            )
            return receipts, server.stats()
        finally:
            await server.shutdown()

    receipts, stats = asyncio.run(run())
    assert len(receipts) == 48 and all(r["success"] for r in receipts)
    assert stats["packedBlocks"] >= 6
    # One derivation per admitted transaction, each with the lock held
    # and none from inside the cut.
    assert len(derivations) == len(set(derivations)) == 48
    assert contexts == [(True, False)] * 48
