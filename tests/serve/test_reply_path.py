"""The per-transaction path: no task per request, one write per turn.

A waiting ``repro_sendTransaction`` is a waiter the block builder
settles in its pass over the committed block, plus a place on the
server's one deadline wheel; its reply goes through the connection's
outbox, which reaches the transport once per event-loop turn; a
connection whose peer does not read its replies stops being read.

The clients here are bare stream pairs (no reader task of their own),
so every task and every transport write counted is the server's.
"""

import asyncio
import json
import socket

from repro.chain.node import Node
from repro.serve import (
    BUSY,
    DEADLINE_EXCEEDED,
    RpcClient,
    RpcServer,
    ServeConfig,
)
from repro.serve import protocol
from repro.serve.errors import PARSE_ERROR, DeadlineExceededError
from repro.serve.loadgen import make_transactions
from repro.serve.server import DEADLINE_TICK_S, _DeadlineWheel


def parked(wheel) -> tuple:
    """(waits on the wheel, whether its sweep is armed)."""
    return sum(map(len, wheel._buckets.values())), wheel._timer is not None


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


async def boot(deployment, config):
    node = Node(state=deployment.state.copy())
    server = RpcServer(node=node, config=config)
    await server.start()
    return server


def send_frame(tx, request_id, **extra) -> bytes:
    return protocol.encode_frame(protocol.request(
        "repro_sendTransaction",
        {"tx": protocol.tx_to_wire(tx), **extra},
        request_id,
    ))


class Wire:
    """A bare pipelined connection: write frames, read lines."""

    def __init__(self, reader, writer, out):
        self.reader = reader
        self.writer = writer
        #: The server's outbox for this connection.
        self.out = out

    @classmethod
    async def open(cls, server) -> "Wire":
        before = set(server._connections)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.config.port, limit=1 << 20
        )
        while len(server._connections) == len(before):
            await asyncio.sleep(0.001)
        (out,) = set(server._connections) - before
        return cls(reader, writer, out)

    def send(self, *frames: bytes) -> None:
        self.writer.write(b"".join(frames))

    async def read(self, count: int, timeout: float = 10.0) -> list:
        async def lines():
            return [
                json.loads(await self.reader.readline())
                for _ in range(count)
            ]

        return await asyncio.wait_for(lines(), timeout)

    async def read_until_eof(self, timeout: float = 10.0) -> list:
        raw = await asyncio.wait_for(self.reader.read(), timeout)
        assert raw == b"" or raw.endswith(b"\n")  # whole frames only
        return [json.loads(line) for line in raw.splitlines()]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def count_transport_writes(out) -> list:
    """Record every ``transport.write`` the server makes on *out*."""
    writes = []
    write = out.transport.write

    def counting(data):
        writes.append(bytes(data))
        write(data)

    out.transport.write = counting
    return writes


def test_a_block_leaves_a_connection_in_one_write_and_no_tasks(deployment):
    config = make_config(
        block_size_target=128, block_interval_ms=10_000.0
    )

    async def run():
        server = await boot(deployment, config)
        wire = await Wire.open(server)
        txs = make_transactions(deployment, 128)
        writes = count_transport_writes(wire.out)
        loop = asyncio.get_running_loop()
        spawned = []
        create_task = loop.create_task

        def counting_create_task(coro, **kwargs):
            spawned.append(coro.__qualname__)
            return create_task(coro, **kwargs)

        loop.create_task = counting_create_task
        try:
            wire.send(*(send_frame(tx, i) for i, tx in enumerate(txs)))
            replies = await wire.read(128)
            stats = server.stats()
        finally:
            del loop.create_task
            await wire.close()
            await server.shutdown()
        return replies, writes, spawned, stats

    replies, writes, spawned, stats = asyncio.run(run())
    assert sorted(reply["id"] for reply in replies) == list(range(128))
    assert all(reply["result"]["blockHeight"] == 1 for reply in replies)
    # 128 receipts, one flush (two if they crossed the high-water mark).
    assert 1 <= len(writes) <= 2
    assert b"".join(writes).count(b"\n") == 128
    # wait_for wraps its coroutine in a task on Python < 3.12: this
    # client's read, and the builder's batching window (Event.wait, a
    # per-block cost). Nothing is spawned per request.
    assert [
        name for name in spawned
        if name != "Event.wait" and not name.startswith("Wire.")
    ] == []
    assert len(spawned) < 16
    assert stats["requestsServed"] == 128
    assert stats["socketWrites"] == len(writes)


def test_deadline_answers_once_and_the_commit_writes_nothing_more(
    deployment,
):
    config = make_config(block_size_target=2, block_interval_ms=10_000.0)

    async def run():
        server = await boot(deployment, config)
        wire = await Wire.open(server)
        first, second = make_transactions(deployment, 2)
        loop = asyncio.get_running_loop()
        try:
            sent = loop.time()
            wire.send(send_frame(first, 1, deadline_ms=30))
            (expired,) = await wire.read(1)
            elapsed = loop.time() - sent
            # The wait ended, and left the wheel disarmed; the
            # transaction did not end.
            assert parked(server._deadlines) == (0, False)
            assert server.builder.depth == 1
            assert server.builder.is_pending(first.hash())
            # The second transaction completes the block: its receipt is
            # the only frame the commit may write.
            wire.send(send_frame(second, 2))
            (receipt,) = await wire.read(1)
            wire.send(protocol.encode_frame(protocol.request(
                "repro_getReceipt", {"txHash": first.hash().hex()}, 3
            )))
            (fetched,) = await wire.read(1)
            stats = server.stats()
        finally:
            await wire.close()
            await server.shutdown()
        return expired, elapsed, receipt, fetched, stats

    expired, elapsed, receipt, fetched, stats = asyncio.run(run())
    assert expired == {
        "jsonrpc": "2.0", "id": 1,
        "error": DeadlineExceededError(30).to_obj(),
    }
    assert expired["error"]["code"] == DEADLINE_EXCEEDED
    # Never before the deadline; one tick late at most, plus what a
    # loaded host's loop and loopback add.
    assert 0.030 <= elapsed <= 0.030 + DEADLINE_TICK_S + 0.5
    assert receipt["id"] == 2 and receipt["result"]["txIndex"] == 1
    # Frame three is the getReceipt answer: no late reply for id 1
    # slipped in between.
    assert fetched["id"] == 3
    assert fetched["result"]["blockHeight"] == 1
    assert fetched["result"]["txIndex"] == 0
    assert stats["deadlineMisses"] == 1
    assert stats["requestsServed"] == 3


def test_disconnect_mid_wait_disarms_the_wait(deployment):
    config = make_config(block_size_target=2, block_interval_ms=10_000.0)

    async def run():
        server = await boot(deployment, config)
        gone = await Wire.open(server)
        other = await Wire.open(server)
        first, second = make_transactions(deployment, 2)
        writes = count_transport_writes(gone.out)
        try:
            gone.send(send_frame(first, 1, deadline_ms=150))
            while server.builder.depth < 1:
                await asyncio.sleep(0.001)
            await gone.close()
            while gone.out in server._connections:
                await asyncio.sleep(0.001)
            # Its one wait left the wheel, which disarmed, and the
            # builder holds no waiter for it.
            assert parked(server._deadlines) == (0, False)
            assert server.builder._waiters == {}
            # Past the deadline: a timer left armed would count a miss
            # and answer a connection that no longer exists.
            await asyncio.sleep(0.25)
            misses = server.stats()["deadlineMisses"]
            # Then the commit: the departed waiter's callback is gone.
            other.send(send_frame(second, 2))
            (receipt,) = await other.read(1)
            committed = server.node.receipt_of(first.hash())
            served = server.stats()["requestsServed"]
        finally:
            await other.close()
            await server.shutdown()
        return misses, receipt, committed, served, writes

    misses, receipt, committed, served, writes = asyncio.run(run())
    assert misses == 0
    assert receipt["result"]["blockHeight"] == 1
    assert committed is not None and committed.receipt.success
    assert served == 1  # only the live connection was ever answered
    assert writes == []


class _Clocked:
    """A wheel entry that records when it expired."""

    def __init__(self, wheel, delay_s, log):
        self.loop = asyncio.get_running_loop()
        self.deadline = self.loop.time() + delay_s
        self.log = log
        self.tick = wheel.add(self, delay_s)

    def expire(self):
        self.log.append((self, self.loop.time()))


def test_the_wheel_never_expires_early_and_at_most_one_tick_late():
    delays = [0.0, 0.001, 0.004, 0.005, 0.0051, 0.012, 0.03, 0.03, 0.047]

    async def run():
        wheel = _DeadlineWheel()
        log = []
        waits = [_Clocked(wheel, delay, log) for delay in delays]
        # One bucket per tick boundary, one timer for the earliest.
        assert parked(wheel) == (len(delays), True)
        while len(log) < len(waits):
            await asyncio.sleep(0.002)
        assert parked(wheel) == (0, False)
        return waits, log

    waits, log = asyncio.run(run())
    assert {id(wait) for wait, _ in log} == {id(wait) for wait in waits}
    for wait, expired_at in log:
        boundary = wait.tick * DEADLINE_TICK_S
        # The bucket is the first tick boundary past the deadline ...
        assert 0 < boundary - wait.deadline <= DEADLINE_TICK_S + 1e-9
        # ... and the sweep runs at or after it, never before the
        # deadline (after it only by the loop's own scheduling delay).
        assert wait.deadline <= boundary <= expired_at
    # Buckets expire in tick order.
    ticks = [wait.tick for wait, _ in log]
    assert ticks == sorted(ticks)


def test_a_resolved_wait_leaves_its_bucket_and_the_last_disarms():
    async def run():
        wheel = _DeadlineWheel()
        log = []
        early, late, shared = (
            _Clocked(wheel, delay, log) for delay in (0.05, 5.0, 5.0)
        )
        assert parked(wheel) == (3, True)
        wheel.discard(early)
        wheel.discard(early)  # a second discard is a no-op
        assert parked(wheel) == (2, True)
        # The timer armed for the emptied bucket finds nothing due and
        # re-arms for the next one.
        await asyncio.sleep(0.08)
        assert log == [] and parked(wheel) == (2, True)
        wheel.discard(late)
        assert parked(wheel) == (1, True)
        wheel.discard(shared)
        assert parked(wheel) == (0, False)
        early.tick = wheel.add(early, 0.01)
        assert parked(wheel) == (1, True)
        wheel.close()
        return log

    assert asyncio.run(run()) == []


def test_a_retry_attached_to_an_in_flight_hash_keeps_its_own_deadline(
    deployment,
):
    config = make_config(block_size_target=2, block_interval_ms=10_000.0)

    async def run():
        server = await boot(deployment, config)
        wire = await Wire.open(server)
        retry = await Wire.open(server)
        first, second = make_transactions(deployment, 2)
        try:
            wire.send(send_frame(first, 1, deadline_ms=60_000))
            while server.builder.depth < 1:
                await asyncio.sleep(0.001)
            retry.send(send_frame(first, 7, deadline_ms=30))
            (expired,) = await retry.read(1)
            # The retry's deadline passed; the original's did not.
            assert parked(server._deadlines) == (1, True)
            assert len(server.builder._waiters[first.hash()]) == 1
            wire.send(send_frame(second, 2))
            replies = await wire.read(2)
            wheel = parked(server._deadlines)
            stats = server.stats()
        finally:
            await wire.close()
            await retry.close()
            await server.shutdown()
        return expired, replies, wheel, stats

    expired, replies, wheel, stats = asyncio.run(run())
    assert expired["id"] == 7
    assert expired["error"]["code"] == DEADLINE_EXCEEDED
    by_id = {reply["id"]: reply for reply in replies}
    assert by_id[1]["result"]["txIndex"] == 0
    assert by_id[2]["result"]["txIndex"] == 1
    assert wheel == (0, False)
    assert stats["deadlineMisses"] == 1
    assert stats["txsCommitted"] == 2


def test_a_closed_loop_leaves_the_wheel_empty_and_disarmed(deployment):
    config = make_config(block_size_target=8, block_interval_ms=20.0)
    total, lanes = 48, 4

    async def run():
        server = await boot(deployment, config)
        wires = [await Wire.open(server) for _ in range(lanes)]
        txs = make_transactions(deployment, total)
        seen = []

        async def lane(index):
            wire = wires[index]
            replies = []
            for request_id in range(index, total, lanes):
                wire.send(send_frame(txs[request_id], request_id))
                replies += await wire.read(1)
            return replies

        async def watch():
            while True:
                seen.append(parked(server._deadlines)[0])
                await asyncio.sleep(0.001)

        watcher = asyncio.ensure_future(watch())
        try:
            replies = sum(
                await asyncio.gather(*(lane(i) for i in range(lanes))), []
            )
            watcher.cancel()
            after = (
                *parked(server._deadlines),
                dict(server.builder._waiters),
            )
        finally:
            for wire in wires:
                await wire.close()
            await server.shutdown()
        return replies, max(seen), after

    replies, peak, after = asyncio.run(run())
    assert sorted(reply["id"] for reply in replies) == list(range(total))
    assert all(reply["result"]["success"] for reply in replies)
    assert 1 <= peak <= lanes
    assert after == (0, False, {})


def test_retry_of_an_in_flight_hash_attaches_to_the_same_wait(deployment):
    config = make_config(block_size_target=2, block_interval_ms=10_000.0)

    async def run():
        server = await boot(deployment, config)
        wire = await Wire.open(server)
        retry = await Wire.open(server)
        first, second = make_transactions(deployment, 2)
        try:
            wire.send(send_frame(first, 1))
            while server.builder.depth < 1:
                await asyncio.sleep(0.001)
            (original_wait,) = server.builder._waiters[first.hash()]
            retry.send(send_frame(first, 7))
            await asyncio.sleep(0.05)
            # Attached, not re-admitted: still one transaction, still
            # pending, now with two waiters.
            assert server.builder.depth == 1
            assert server.builder.is_pending(first.hash())
            waiters = list(server.builder._waiters[first.hash()])
            assert len(waiters) == 2 and waiters[0] is original_wait
            wire.send(send_frame(second, 2))
            original = await wire.read(2)
            (attached,) = await retry.read(1)
            stats = server.stats()
        finally:
            await wire.close()
            await retry.close()
            await server.shutdown()
        return original, attached, stats

    original, attached, stats = asyncio.run(run())
    by_id = {reply["id"]: reply["result"] for reply in original}
    assert attached["id"] == 7
    assert attached["result"] == by_id[1]
    assert stats["txsCommitted"] == 2
    assert stats["admissionRejects"] == 0


def test_drain_delivers_every_admitted_receipt_before_closing(deployment):
    config = make_config(
        block_size_target=1000, block_interval_ms=10_000.0
    )

    async def run():
        server = await boot(deployment, config)
        wires = [await Wire.open(server) for _ in range(3)]
        txs = make_transactions(deployment, 90)
        for index, tx in enumerate(txs):
            wires[index % 3].send(send_frame(tx, index))
        while server.builder.depth < len(txs):
            await asyncio.sleep(0.001)
        shutdown = asyncio.ensure_future(server.shutdown())
        # Each connection gets all of its replies, then EOF.
        received = [await wire.read_until_eof() for wire in wires]
        await shutdown
        for wire in wires:
            await wire.close()
        return received, server.stats()

    received, stats = asyncio.run(run())
    for lane, replies in enumerate(received):
        assert sorted(r["id"] for r in replies) == list(range(lane, 90, 3))
        assert all(r["result"]["success"] for r in replies)
    assert stats["txsCommitted"] == 90
    # One block, three connections: three flushes carried 90 receipts.
    assert stats["socketWrites"] == 3


def test_pushes_and_replies_interleave_as_whole_frames(deployment):
    config = make_config(block_size_target=8, block_interval_ms=10_000.0)

    async def run():
        server = await boot(deployment, config)
        wire = await Wire.open(server)
        txs = make_transactions(deployment, 64)
        writes = count_transport_writes(wire.out)
        try:
            wire.send(protocol.encode_frame(protocol.request(
                "repro_subscribe", {"topic": "newHeads"}, 1000
            )))
            wire.send(*(send_frame(tx, i) for i, tx in enumerate(txs)))
            # 1 subscribe reply + 64 receipts + 8 heads.
            frames = await wire.read(1 + 64 + 8)
        finally:
            await wire.close()
            await server.shutdown()
        return frames, writes

    frames, writes = asyncio.run(run())
    heads = [f["params"]["result"] for f in frames if "method" in f]
    replies = {f["id"]: f["result"] for f in frames if "id" in f}
    assert [head["height"] for head in heads] == list(range(1, 9))
    assert sorted(replies) == [*range(64), 1000]
    assert all(replies[i]["blockHeight"] == i // 8 + 1 for i in range(64))
    # Every transport write is a run of complete frames.
    assert all(chunk.endswith(b"\n") for chunk in writes)
    for chunk in writes:
        for line in chunk.splitlines():
            json.loads(line)
    assert len(writes) < len(frames)


def test_a_peer_that_never_reads_stops_being_read(deployment):
    """The slow-reader bound: 10k pipelined sends, no reply taken."""
    total = 10_000
    config = make_config(
        block_size_target=128, max_pending=256, per_sender_cap=None
    )

    async def run():
        server = await boot(deployment, config)
        loop = asyncio.get_running_loop()
        txs = make_transactions(deployment, total)
        payload = b"".join(send_frame(tx, i) for i, tx in enumerate(txs))
        # Small kernel buffers on the stalled connection, so what the
        # peer does not read backs up into the server's transport
        # instead of disappearing into loopback's megabytes.
        before = set(server._connections)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await loop.sock_connect(sock, ("127.0.0.1", server.config.port))
        while len(server._connections) == len(before):
            await asyncio.sleep(0.001)
        (out,) = set(server._connections) - before
        out.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
        )
        healthy = await RpcClient.connect("127.0.0.1", server.config.port)
        sender = asyncio.ensure_future(loop.sock_sendall(sock, payload))
        peak_buffer = peak_tasks = 0
        try:
            # Let the stall settle: the server stops answering the
            # silent peer once its replies back up.
            served = -1
            while served != server.stats()["requestsServed"]:
                served = server.stats()["requestsServed"]
                for _ in range(30):
                    await asyncio.sleep(0.01)
                    peak_buffer = max(
                        peak_buffer, out.transport.get_write_buffer_size()
                    )
                    peak_tasks = max(peak_tasks, len(asyncio.all_tasks()))
            stalled_at = served
            # Everyone else is still served, promptly.
            account = deployment.accounts[0]
            for _ in range(20):
                balance = await asyncio.wait_for(
                    healthy.call("repro_getBalance", {"address": account}),
                    timeout=5.0,
                )
                assert isinstance(balance, int)
            # The peer starts reading: every frame is answered once.
            reader, writer = await asyncio.open_connection(
                sock=sock, limit=1 << 20
            )
            replies = []
            while len(replies) < total:
                line = await asyncio.wait_for(reader.readline(), 30.0)
                assert line
                replies.append(json.loads(line))
            await sender
            writer.close()
        finally:
            await healthy.close()
            await server.shutdown()
        return stalled_at, peak_buffer, peak_tasks, out.high_water, replies

    stalled_at, peak_buffer, peak_tasks, high_water, replies = (
        asyncio.run(run())
    )
    # The server stopped reading long before the 10k-th frame …
    assert stalled_at < total // 2
    # … so what it buffers is bounded by the high-water mark, one
    # flush that crossed it, and the replies of what was already
    # admitted (max_pending of them) — not by what the peer sent.
    assert peak_buffer <= 3 * high_water + 256 * 512
    # No per-request task is parked behind the stalled socket.
    assert peak_tasks < 32
    assert sorted(reply["id"] for reply in replies) == list(range(total))
    codes = {
        reply["error"]["code"] for reply in replies if "error" in reply
    }
    assert codes <= {BUSY}
    assert sum(1 for reply in replies if "result" in reply) >= 256


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_non_finite_id_is_answered_in_json(deployment):
    async def run():
        server = await boot(deployment, make_config())
        wire = await Wire.open(server)
        try:
            wire.send(
                b'{"jsonrpc":"2.0","id":NaN,"method":"repro_health"}\n',
                b'{"jsonrpc":"2.0","id":1e400,"method":"repro_health"}\n',
            )
            return [
                json.loads(await asyncio.wait_for(wire.reader.readline(), 10),
                           parse_constant=_refuse_constant)
                for _ in range(2)
            ]
        finally:
            await wire.close()
            await server.shutdown()

    for reply in asyncio.run(run()):
        assert reply["id"] is None
        assert reply["error"]["code"] == PARSE_ERROR
