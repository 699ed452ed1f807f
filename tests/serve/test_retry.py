"""Client-side resilience: typed-backoff retries and reconnects.

Uses small scripted asyncio servers so every retry path is
deterministic: which responses come back, when connections drop, and
how many connections were ever made.
"""

import asyncio
import json
import random
import time

import pytest

from repro.serve import (
    BUSY,
    LoadResult,
    RetryPolicy,
    RpcClient,
    RpcClientError,
)


def test_retry_policy_honors_server_hint():
    policy = RetryPolicy(base_delay_s=0.01, jitter=0.0)
    rng = random.Random(0)
    # The hint is a floor, never undercut...
    assert policy.delay(0, 0.5, rng) == 0.5
    # ...and exponential backoff takes over past it.
    assert policy.delay(0, None, rng) == 0.01
    assert policy.delay(3, None, rng) == 0.08
    # The cap bounds runaway exponents.
    assert policy.delay(50, None, rng) == policy.max_delay_s


async def _scripted_server(handler):
    async def closing(reader, writer):
        # A script that just returns must not leak its transport.
        try:
            await handler(reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(closing, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _reply(obj, result):
    return (
        json.dumps(
            {"jsonrpc": "2.0", "id": obj["id"], "result": result}
        ).encode()
        + b"\n"
    )


def _error(obj, code, message, data=None):
    err = {"code": code, "message": message}
    if data is not None:
        err["data"] = data
    return (
        json.dumps(
            {"jsonrpc": "2.0", "id": obj["id"], "error": err}
        ).encode()
        + b"\n"
    )


def test_busy_retried_with_backoff_honoring_hint():
    request_times: list[float] = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                return
            obj = json.loads(line)
            request_times.append(time.monotonic())
            if len(request_times) == 1:
                writer.write(_error(
                    obj, BUSY, "busy", {"retry_after_s": 0.2}
                ))
            else:
                writer.write(_reply(obj, "ok"))
            await writer.drain()

    async def run():
        server, port = await _scripted_server(handle)
        client = await RpcClient.connect(
            "127.0.0.1", port,
            retry_policy=RetryPolicy(base_delay_s=0.01, jitter=0.0),
        )
        try:
            return await client.call("repro_stats"), client.retries
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    result, retries = asyncio.run(run())
    assert result == "ok"
    assert retries == 1
    assert len(request_times) == 2
    # The server asked for 0.2s; the client's own base backoff is 10ms,
    # so honoring the hint is observable on the wire.
    assert request_times[1] - request_times[0] >= 0.2


def test_busy_gives_up_after_max_attempts():
    requests = 0

    async def handle(reader, writer):
        nonlocal requests
        while True:
            line = await reader.readline()
            if not line:
                return
            obj = json.loads(line)
            requests += 1
            writer.write(_error(obj, BUSY, "busy"))
            await writer.drain()

    async def run():
        server, port = await _scripted_server(handle)
        client = await RpcClient.connect(
            "127.0.0.1", port,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.005, jitter=0.0
            ),
        )
        try:
            with pytest.raises(RpcClientError) as err:
                await client.call("repro_stats")
            return err.value, client.retries
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    err, retries = asyncio.run(run())
    assert err.code == BUSY
    assert retries == 2
    assert requests == 3  # the original try plus two retries


def test_idempotent_read_survives_dropped_connection():
    connections = 0

    async def handle(reader, writer):
        nonlocal connections
        connections += 1
        if connections == 1:
            await reader.readline()
            writer.close()  # slam the door mid-request
            return
        while True:
            line = await reader.readline()
            if not line:
                return
            obj = json.loads(line)
            writer.write(_reply(obj, 42))
            await writer.drain()

    async def run():
        server, port = await _scripted_server(handle)
        client = await RpcClient.connect(
            "127.0.0.1", port,
            retry_policy=RetryPolicy(base_delay_s=0.01, jitter=0.0),
        )
        try:
            return await client.call(
                "repro_getBalance",
                {"address": "0x1"},
                idempotent=True,
            ), client.retries
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    result, retries = asyncio.run(run())
    assert result == 42
    assert retries >= 1
    assert connections == 2


def test_non_idempotent_request_not_retried_on_drop():
    connections = 0

    async def handle(reader, writer):
        nonlocal connections
        connections += 1
        await reader.readline()
        writer.close()

    async def run():
        server, port = await _scripted_server(handle)
        client = await RpcClient.connect(
            "127.0.0.1", port,
            retry_policy=RetryPolicy(base_delay_s=0.01, jitter=0.0),
        )
        try:
            with pytest.raises(ConnectionError):
                await client.call(
                    "repro_sendTransaction", {"tx": "00"}
                )
            return client.retries
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    retries = asyncio.run(run())
    # A sendTransaction interrupted mid-flight may have committed:
    # reconnect-and-resend is not safe, so the drop surfaces instead.
    assert retries == 0
    assert connections == 1


def test_load_result_counts_retries_separately():
    result = LoadResult(mode="closed", requested=10, ok=10, retries=3)
    encoded = result.to_dict()
    assert encoded["retries"] == 3
    assert encoded["ok"] == 10
    assert encoded["unanswered"] == 0
