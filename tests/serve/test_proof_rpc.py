"""Authenticated-state RPC: repro_getProof / getStorageProof / getBlock."""

import asyncio

import pytest

from repro.chain.node import Node
from repro.serve import RpcClient, RpcClientError, RpcServer, ServeConfig
from repro.serve import protocol
from repro.serve.errors import PROOF_UNAVAILABLE
from repro.serve.loadgen import make_transactions
from repro.trie import verify_proof_blob


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


async def booted(deployment, config, **node_kwargs):
    node = Node(state=deployment.state.copy(), **node_kwargs)
    server = RpcServer(node=node, config=config)
    await server.start()
    client = await RpcClient.connect(config.host, config.port)
    return server, client


def test_account_proof_verifies_against_served_root(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        tx = make_transactions(deployment, 1)[0]
        try:
            await client.call(
                "repro_sendTransaction", {"tx": protocol.tx_to_wire(tx)}
            )
            proof = await client.call(
                "repro_getProof", {"address": hex(tx.sender)}
            )
            balance = await client.call(
                "repro_getBalance", {"address": hex(tx.sender)}
            )
            block = await client.call(
                "repro_getBlock", {"height": "latest"}
            )
        finally:
            await client.close()
            await server.shutdown()
        return proof, balance, block

    proof, balance, block = asyncio.run(run())
    root = bytes.fromhex(proof["stateRoot"])
    decoded, ok = verify_proof_blob(bytes.fromhex(proof["proof"]), root)
    assert ok
    assert decoded.balance == balance == proof["balance"]
    # The proof's anchor is the served tip's sealed header root.
    assert block["stateRoot"] == proof["stateRoot"]
    assert block["height"] == 1
    assert not verify_proof_blob(
        bytes.fromhex(proof["proof"]), bytes(32)
    )[1]


def test_storage_proof_verifies_and_binds_value(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        try:
            # Pick a contract account with nonzero storage from genesis.
            target = None
            with server.builder.state_lock:
                for address, account in server.node.state._accounts.items():
                    slots = {s: v for s, v in account.storage.items() if v}
                    if not account.is_empty and slots:
                        target = (address, *next(iter(slots.items())))
                        break
            assert target is not None, "deployment has no storage"
            address, slot, value = target
            proof = await client.call(
                "repro_getStorageProof",
                {"address": hex(address), "slot": hex(slot)},
            )
        finally:
            await client.close()
            await server.shutdown()
        return proof, value

    proof, value = asyncio.run(run())
    assert proof["value"] == value
    root = bytes.fromhex(proof["stateRoot"])
    decoded, ok = verify_proof_blob(bytes.fromhex(proof["proof"]), root)
    assert ok
    assert decoded.value == value


def test_absent_account_is_typed_proof_unavailable(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        try:
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_getProof", {"address": hex(0xDEAD_BEEF_0042)}
                )
        finally:
            await client.close()
            await server.shutdown()
        return err.value

    err = asyncio.run(run())
    assert err.code == PROOF_UNAVAILABLE
    assert err.data["reason"] == "absent"


def test_trie_less_node_cannot_be_served(deployment):
    """There is no un-Merkleized serving mode: no config field for it,
    and a reference node built without a trie is refused up front
    instead of answering proofs with a "not Merkleizing" error."""
    import dataclasses

    assert "merkleize" not in {
        field.name for field in dataclasses.fields(ServeConfig)
    }
    with pytest.raises(TypeError):
        make_config(merkleize=False)
    node = Node(state=deployment.state.copy(), merkleize=False)
    with pytest.raises(ValueError, match="Merkleize"):
        RpcServer(node=node, config=make_config())


def test_get_block_unknown_height_is_null(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        try:
            return await client.call("repro_getBlock", {"height": 999})
        finally:
            await client.close()
            await server.shutdown()

    assert asyncio.run(run()) is None
