"""Socket-level RPC server tests: typed refusals, deadlines, drain."""

import asyncio

import pytest

from repro.chain.node import Node
from repro.serve import (
    ADMISSION_REJECTED,
    BUSY,
    DEADLINE_EXCEEDED,
    RATE_LIMITED,
    SHUTTING_DOWN,
    RpcClient,
    RpcClientError,
    RpcServer,
    ServeConfig,
)
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.errors import INVALID_PARAMS, METHOD_NOT_FOUND
from repro.serve.loadgen import make_transactions


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


async def booted(deployment, config):
    server = make_server(deployment, config)
    await server.start()
    client = await RpcClient.connect(config.host, config.port)
    return server, client


def send_params(tx, **extra):
    return {"tx": protocol.tx_to_wire(tx), **extra}


def test_send_transaction_round_trip(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        tx = make_transactions(deployment, 1)[0]
        try:
            receipt = await client.call(
                "repro_sendTransaction", send_params(tx)
            )
            fetched = await client.call(
                "repro_getReceipt", {"txHash": tx.hash().hex()}
            )
            balance = await client.call(
                "repro_getBalance", {"address": hex(tx.sender)}
            )
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return receipt, fetched, balance, stats

    receipt, fetched, balance, stats = asyncio.run(run())
    assert receipt["success"] is True
    assert receipt["blockHeight"] == 1 and receipt["txIndex"] == 0
    assert fetched == receipt
    assert isinstance(balance, int)
    assert stats["txsCommitted"] == 1
    assert stats["blocksBuilt"] == 1


def test_unknown_receipt_is_null(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        try:
            return await client.call(
                "repro_getReceipt", {"txHash": "ab" * 32}
            )
        finally:
            await client.close()
            await server.shutdown()

    assert asyncio.run(run()) is None


def test_saturated_ingress_gets_typed_busy(deployment):
    config = make_config(
        max_pending=2, block_size_target=100,
        block_interval_ms=10_000.0,
    )

    async def run():
        server, client = await booted(deployment, config)
        txs = make_transactions(deployment, 3)
        try:
            for tx in txs[:2]:
                await client.call(
                    "repro_sendTransaction",
                    send_params(tx, wait=False),
                )
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_sendTransaction", send_params(txs[2])
                )
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return err.value, stats

    err, stats = asyncio.run(run())
    assert err.code == BUSY
    assert err.data["max_pending"] == 2
    assert stats["busyRejects"] == 1
    assert stats["queueDepth"] == 2  # the refused tx was never buffered


def test_rate_limit_enforced_per_client(deployment, monkeypatch):
    monkeypatch.setattr(server_module, "RATE_BURST", 2)
    config = make_config(
        rate_limit=0.001,
        block_size_target=100, block_interval_ms=10_000.0,
    )

    async def run():
        server, client = await booted(deployment, config)
        txs = make_transactions(deployment, 3)
        try:
            for tx in txs[:2]:
                await client.call(
                    "repro_sendTransaction",
                    send_params(tx, wait=False),
                )
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_sendTransaction",
                    send_params(txs[2], wait=False),
                )
            stats = await client.call("repro_stats")
        finally:
            await client.close()
            await server.shutdown()
        return err.value, stats

    err, stats = asyncio.run(run())
    assert err.code == RATE_LIMITED
    assert err.data["retry_after_s"] > 0
    assert stats["rateLimitRejects"] == 1


def test_deadline_cancels_wait_not_transaction(deployment):
    config = make_config(
        block_size_target=100, block_interval_ms=10_000.0
    )

    async def run():
        server, client = await booted(deployment, config)
        tx = make_transactions(deployment, 1)[0]
        try:
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_sendTransaction",
                    send_params(tx, deadline_ms=50),
                )
            # The wait died; the transaction must still be admitted.
            assert server.builder.depth == 1
            unresolved = await client.call(
                "repro_getReceipt", {"txHash": tx.hash().hex()}
            )
        finally:
            await client.close()
            await server.shutdown()
        # Drain committed it; the receipt is now fetchable server-side.
        committed = server.builder.committed.get(tx.hash())
        return err.value, unresolved, committed, server.stats()

    err, unresolved, committed, stats = asyncio.run(run())
    assert err.code == DEADLINE_EXCEEDED
    assert unresolved is None
    assert committed is not None and committed.receipt.success
    assert stats["deadlineMisses"] == 1


def test_shutdown_drains_inflight_waits(deployment):
    config = make_config(
        block_size_target=100, block_interval_ms=10_000.0
    )

    async def run():
        server, client = await booted(deployment, config)
        txs = make_transactions(deployment, 4)
        waits = [
            asyncio.ensure_future(client.call(
                "repro_sendTransaction", send_params(tx)
            ))
            for tx in txs
        ]
        await asyncio.sleep(0.05)  # let all four reach the builder
        assert server.builder.depth == 4
        await server.shutdown()
        # Drain must have flushed the partial block and answered
        # every in-flight wait before the transports closed.
        receipts = await asyncio.wait_for(
            asyncio.gather(*waits), timeout=5.0
        )
        await client.close()
        return receipts, server.stats()

    receipts, stats = asyncio.run(run())
    assert len(receipts) == 4
    assert all(r["success"] for r in receipts)
    assert stats["txsCommitted"] == 4
    assert stats["queueDepth"] == 0


def test_draining_server_refuses_new_transactions(deployment):
    config = make_config(
        block_size_target=100, block_interval_ms=10_000.0
    )

    async def run():
        server, client = await booted(deployment, config)
        server._shutting_down = True  # drain announced, listener open
        tx = make_transactions(deployment, 1)[0]
        try:
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_sendTransaction", send_params(tx)
                )
        finally:
            await client.close()
            await server.shutdown()
        return err.value

    assert asyncio.run(run()).code == SHUTTING_DOWN


def test_duplicate_resubmission_serves_committed_receipt(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        tx = make_transactions(deployment, 1)[0]
        try:
            first = await client.call(
                "repro_sendTransaction", send_params(tx)
            )
            # Retrying a committed transaction is idempotent.
            second = await client.call(
                "repro_sendTransaction", send_params(tx)
            )
        finally:
            await client.close()
            await server.shutdown()
        return first, second

    first, second = asyncio.run(run())
    assert first == second


def test_duplicate_while_pending_attaches_to_wait(deployment):
    config = make_config(
        block_size_target=2, block_interval_ms=10_000.0
    )

    async def run():
        server, client = await booted(deployment, config)
        txs = make_transactions(deployment, 2)
        try:
            await client.call(
                "repro_sendTransaction", send_params(txs[0], wait=False)
            )
            # Same hash again, this time waiting: it must attach to the
            # pending future, and resolve once tx #2 completes the block.
            wait = asyncio.ensure_future(client.call(
                "repro_sendTransaction", send_params(txs[0])
            ))
            await asyncio.sleep(0.05)
            assert not wait.done()
            await client.call(
                "repro_sendTransaction", send_params(txs[1])
            )
            receipt = await asyncio.wait_for(wait, timeout=5.0)
        finally:
            await client.close()
            await server.shutdown()
        return receipt

    receipt = asyncio.run(run())
    assert receipt["success"] and receipt["blockHeight"] == 1


def test_duplicate_without_wait_is_admission_rejected(deployment):
    config = make_config(
        block_size_target=100, block_interval_ms=10_000.0
    )

    async def run():
        server, client = await booted(deployment, config)
        tx = make_transactions(deployment, 1)[0]
        try:
            await client.call(
                "repro_sendTransaction", send_params(tx, wait=False)
            )
            with pytest.raises(RpcClientError) as err:
                await client.call(
                    "repro_sendTransaction", send_params(tx, wait=False)
                )
        finally:
            await client.close()
            await server.shutdown()
        return err.value

    err = asyncio.run(run())
    assert err.code == ADMISSION_REJECTED
    assert err.data["reason"] == "DuplicateTransactionError"


def test_resubmission_of_in_flight_block_executes_once(deployment):
    """A retry while the tx is mid-block (the DEADLINE_EXCEEDED retry
    path) must attach to the existing wait, never re-admit and
    double-execute."""
    import threading

    config = make_config(block_size_target=1)

    async def run():
        server, client = await booted(deployment, config)
        tx = make_transactions(deployment, 1)[0]
        recipient = tx.to
        before = server.node.state._accounts[recipient].balance
        release = threading.Event()
        real = server.builder._build_and_execute

        def gated(txs, *args, **kwargs):
            release.wait(timeout=5.0)
            return real(txs, *args, **kwargs)

        server.builder._build_and_execute = gated
        try:
            await client.call(
                "repro_sendTransaction", send_params(tx, wait=False)
            )
            # Wait until the builder pulled the tx out of the mempool:
            # it is now in neither the pool nor `committed`.
            for _ in range(100):
                if len(server.node.mempool) == 0:
                    break
                await asyncio.sleep(0.01)
            assert server.builder._in_flight == 1
            retry = asyncio.ensure_future(client.call(
                "repro_sendTransaction", send_params(tx)
            ))
            await asyncio.sleep(0.05)
            assert not retry.done()  # attached, not re-admitted
            release.set()
            receipt = await asyncio.wait_for(retry, timeout=5.0)
            stats = await client.call("repro_stats")
            after = server.node.state._accounts[recipient].balance
        finally:
            release.set()
            await client.close()
            await server.shutdown()
        return receipt, stats, after - before

    receipt, stats, delta = asyncio.run(run())
    assert receipt["success"] is True
    # Executed exactly once: one block, one commit, value applied once.
    assert stats["txsCommitted"] == 1
    assert stats["blocksBuilt"] == 1
    assert stats["chainHeight"] == 1
    tx_value = make_transactions(deployment, 1)[0].value
    assert delta == tx_value


def test_slow_subscriber_is_dropped_not_buffered(deployment, monkeypatch):
    class FakeTransport:
        def __init__(self, size):
            self.size = size

        def get_write_buffer_size(self):
            return self.size

    class FakeWriter:
        def __init__(self, size):
            self.transport = FakeTransport(size)
            self.frames = []

        def is_closing(self):
            return False

        def write(self, frame):
            self.frames.append(frame)

    monkeypatch.setattr(server_module, "MAX_SUBSCRIBER_BUFFER", 1024)
    config = make_config()

    async def run():
        server, client = await booted(deployment, config)
        stalled = FakeWriter(size=4096)   # over the cap: must be dropped
        healthy = FakeWriter(size=0)
        server._subscriptions[101] = stalled
        server._subscriptions[102] = healthy
        tx = make_transactions(deployment, 1)[0]
        try:
            await client.call("repro_sendTransaction", send_params(tx))
            # Captured before shutdown() clears the subscription table.
            still_subscribed = set(server._subscriptions)
        finally:
            await client.close()
            await server.shutdown()
        return server, stalled, healthy, still_subscribed

    server, stalled, healthy, still_subscribed = asyncio.run(run())
    assert stalled.frames == []
    assert len(healthy.frames) == 1
    assert still_subscribed == {102}
    assert server.stats()["subscriptionDrops"] == 1


def test_subscribe_new_heads(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        tx = make_transactions(deployment, 1)[0]
        try:
            sub = await client.call(
                "repro_subscribe", {"topic": "newHeads"}
            )
            await client.call("repro_sendTransaction", send_params(tx))
            note = await client.next_notification(timeout=5.0)
        finally:
            await client.close()
            await server.shutdown()
        return sub, note

    sub, note = asyncio.run(run())
    assert sub["subscription"] == 1
    assert note["method"] == "repro_subscription"
    head = note["params"]["result"]
    assert head["height"] == 1 and head["transactions"] == 1


def test_protocol_errors_are_typed(deployment):
    async def run():
        server, client = await booted(deployment, make_config())
        try:
            errors = {}
            for name, method, params in [
                ("unknown", "repro_noSuchMethod", {}),
                ("bad_address", "repro_getBalance", {"address": "zz"}),
                ("bad_hash", "repro_getReceipt", {"txHash": 7}),
                ("bad_topic", "repro_subscribe", {"topic": "logs"}),
            ]:
                with pytest.raises(RpcClientError) as err:
                    await client.call(method, params)
                errors[name] = err.value.code
        finally:
            await client.close()
            await server.shutdown()
        return errors

    errors = asyncio.run(run())
    assert errors["unknown"] == METHOD_NOT_FOUND
    assert errors["bad_address"] == INVALID_PARAMS
    assert errors["bad_hash"] == INVALID_PARAMS
    assert errors["bad_topic"] == INVALID_PARAMS


def test_one_address_parser_behind_every_read(deployment):
    """``repro_getBalance`` used to carry a looser copy of the parser:
    ``{"address": -1}`` was answered ``0`` there and refused by the
    proof methods."""
    methods = ("repro_getBalance", "repro_getProof", "repro_getStorageProof")

    async def run():
        server, client = await booted(deployment, make_config())
        try:
            refusals = []  # per input: the distinct (code, message)s
            for params in ({"address": -1}, {"address": "zz"}, {}):
                answers = set()
                for method in methods:
                    with pytest.raises(RpcClientError) as err:
                        await client.call(method, params)
                    answers.add((err.value.code, str(err.value)))
                refusals.append(answers)
        finally:
            await client.close()
            await server.shutdown()
        return refusals

    for answers in asyncio.run(run()):
        assert len(answers) == 1, answers
        assert {code for code, _ in answers} == {INVALID_PARAMS}
