"""Load generation over real sockets: closed- and open-loop drivers.

The client half of the serving layer: an asyncio JSON-RPC client with
response pipelining (requests on one connection are answered out of
order; an id → future table routes them), plus a workload driver that
turns :mod:`repro.workload` traffic into ``sendTransaction`` streams.

* **closed loop** — each of N concurrent clients keeps exactly one
  request in flight, so offered load adapts to the server's speed; the
  measured quantity is end-to-end latency at the server's natural
  throughput.
* **open loop** — transactions are fired on a fixed schedule regardless
  of completions, so the server's admission control (BUSY / RATE_LIMITED
  rejects) is what's being measured.

Every request is accounted for: ``LoadResult.unanswered`` counts
requests that never got a response (the acceptance gate requires zero).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from ..chain.transaction import Transaction
from ..contracts.registry import Deployment, build_deployment
from ..obs.report import LatencyReport
from . import protocol
from .errors import BUSY, RATE_LIMITED, RpcError


class RpcClientError(Exception):
    """A JSON-RPC error response, surfaced with its typed code."""

    def __init__(self, code: int, message: str, data=None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.data = data


@dataclass
class RetryPolicy:
    """Client-side resilience: when and how hard to retry.

    BUSY and RATE_LIMITED are the server *telling* the client to come
    back later — honoring its ``retry_after_s`` hint (never retrying
    sooner than asked) with jittered exponential backoff on top.
    Dropped connections are retried only for requests the caller marks
    idempotent: reads can safely repeat; a sendTransaction interrupted
    mid-flight may have committed.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.02
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int, hint_s: float | None, rng) -> float:
        raw = min(
            self.max_delay_s,
            self.base_delay_s * (self.multiplier ** max(0, attempt)),
        )
        if hint_s is not None:
            raw = max(raw, float(hint_s))
        if self.jitter <= 0:
            return raw
        return raw * (1.0 + rng.uniform(-self.jitter, self.jitter))


class RpcClient:
    """Pipelined newline-delimited JSON-RPC client.

    With a :class:`RetryPolicy` attached, BUSY/RATE_LIMITED responses
    are retried with backoff, and idempotent calls survive a dropped
    connection by transparently reconnecting (requires construction via
    :meth:`connect` so the endpoint is known). ``retries`` counts every
    retry attempt, separately from failures.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 retry_policy: "RetryPolicy | None" = None):
        self._reader = reader
        self._writer = writer
        self._host: str | None = None
        self._port: int | None = None
        self._next_id = 1
        self._inflight: dict[int, asyncio.Future] = {}
        self._notifications: asyncio.Queue = asyncio.Queue()
        self._pump = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(
            retry_policy.seed if retry_policy is not None else 0
        )
        #: Retries performed (BUSY/RATE_LIMITED backoffs + reconnects).
        self.retries = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        retry_policy: "RetryPolicy | None" = None,
    ) -> "RpcClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        client = cls(reader, writer, retry_policy=retry_policy)
        client._host = host
        client._port = port
        return client

    async def _reconnect(self) -> None:
        if self._host is None:
            raise ConnectionError("no endpoint to reconnect to")
        self._pump.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=protocol.MAX_LINE_BYTES
        )
        self._pump = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                obj = protocol.decode_frame(line)
                if "id" in obj and obj["id"] in self._inflight:
                    future = self._inflight.pop(obj["id"])
                    if not future.done():
                        future.set_result(obj)
                else:
                    self._notifications.put_nowait(obj)
        except (asyncio.CancelledError, ConnectionError):
            pass
        except RpcError:
            # An undecodable reply: the stream cannot be trusted past
            # it, so the connection is closed, as a dropped one would be.
            self._writer.close()
        finally:
            for future in self._inflight.values():
                if not future.done():
                    future.set_exception(ConnectionError("closed"))
            self._inflight.clear()

    async def call(self, method: str, params: dict | None = None,
                   idempotent: bool = False):
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                return await self._call_once(method, params)
            except RpcClientError as err:
                if (
                    policy is None
                    or err.code not in (BUSY, RATE_LIMITED)
                    or attempt >= policy.max_attempts
                ):
                    raise
                hint = None
                if isinstance(err.data, dict):
                    hint = err.data.get("retry_after_s")
                delay = policy.delay(attempt, hint, self._retry_rng)
            except ConnectionError:
                if (
                    policy is None
                    or not idempotent
                    or self._host is None
                    or attempt >= policy.max_attempts
                ):
                    raise
                delay = policy.delay(attempt, None, self._retry_rng)
            attempt += 1
            self.retries += 1
            await asyncio.sleep(delay)
            if self._writer.is_closing() or self._pump.done():
                try:
                    await self._reconnect()
                except OSError:
                    continue  # endpoint still down: next backoff round

    async def _call_once(self, method: str, params: dict | None):
        if self._pump.done():
            # The peer closed (or was SIGKILLed): a half-open socket would
            # still take the write, and nothing is left to route a reply.
            raise ConnectionError("closed")
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._inflight[request_id] = future
        try:
            self._writer.write(protocol.encode_frame(
                protocol.request(method, params, request_id)
            ))
            await self._writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            self._inflight.pop(request_id, None)
            raise ConnectionError(str(exc)) from None
        reply = await future
        if "error" in reply:
            err = reply["error"]
            raise RpcClientError(
                err.get("code", 0), err.get("message", ""), err.get("data")
            )
        return reply.get("result")

    async def next_notification(self, timeout: float | None = None):
        if timeout is None:
            return await self._notifications.get()
        return await asyncio.wait_for(
            self._notifications.get(), timeout=timeout
        )

    async def close(self) -> None:
        self._pump.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass


# -- workload --------------------------------------------------------------
def make_transactions(
    deployment: Deployment,
    count: int,
    workload: str = "transfer",
    seed: int = 0,
) -> list[Transaction]:
    """*count* unique transactions valid against *deployment*'s genesis.

    ``transfer`` is plain value movement between funded accounts (the
    cheapest traffic, for throughput ceilings); ``hotburst`` is the
    conflict-heavy packing workload — bursts of transfers all crediting
    one hot account, separated by independent transfers, so FIFO blocks
    carry long serial conflict chains that conflict-aware packing
    spreads across lanes; ``erc20`` and ``mixed`` route through
    :class:`~repro.workload.actions.ActionLibrary` for contract-heavy
    traffic. Per-sender nonces make every hash unique.
    """
    import random

    from ..workload.actions import ActionLibrary
    from ..workload.zipf import ZipfSampler
    from ..contracts.registry import TOP8_NAMES

    rng = random.Random(seed)
    accounts = deployment.accounts
    nonces: dict[int, int] = {}

    def next_nonce(sender: int) -> int:
        nonces[sender] = nonces.get(sender, 0) + 1
        return nonces[sender]

    txs: list[Transaction] = []
    if workload == "transfer":
        for i in range(count):
            sender = accounts[i % len(accounts)]
            recipient = accounts[(i * 7 + 3) % len(accounts)]
            txs.append(Transaction(
                sender=sender, to=recipient,
                nonce=next_nonce(sender),
                value=rng.randint(1, 1000), gas_limit=50_000,
            ))
        return txs

    if workload == "hotburst":
        # Locally bursty, globally sustainable: 16-transfer bursts all
        # crediting one hot account (alternating between two), separated
        # by 48 independent transfers. A FIFO cut of ~32 carries one
        # 16-long serial chain; a packed cut caps chains at lane_depth
        # and backfills from the independent tail.
        burst, gap = 16, 48
        hot = [0xB0057_0000 + k for k in range(2)]
        burst_index = 0
        for i in range(count):
            sender = accounts[i % len(accounts)]
            phase = i % (burst + gap)
            if phase == 0:
                burst_index += 1
            if phase < burst:
                recipient = hot[burst_index % len(hot)]
            else:
                recipient = 0xC01D_0000 + i
            txs.append(Transaction(
                sender=sender, to=recipient,
                nonce=next_nonce(sender),
                value=rng.randint(1, 1000), gas_limit=50_000,
            ))
        return txs

    library = ActionLibrary(deployment, rng)
    if workload == "dynamic":
        # Dynamic-storage-key traffic (path swaps, delegatecall proxy
        # swaps, batch airdrops): no declarable access sets — the
        # proposer's pre-execution discovers them.
        dynamic_names = ["AirdropDistributor", "AirdropDistributor",
                         "PathRouter", "RouterProxy"]
        for i in range(count):
            sender = accounts[i % len(accounts)]
            call = library.plan(dynamic_names[i % len(dynamic_names)],
                                sender=sender)
            tx = library.to_transaction(call)
            txs.append(Transaction(
                sender=tx.sender, to=tx.to, nonce=next_nonce(tx.sender),
                gas_limit=tx.gas_limit, gas_price=tx.gas_price,
                value=tx.value, data=tx.data,
            ))
        return txs

    names = list(TOP8_NAMES)
    sampler = ZipfSampler(len(names), 1.0)
    for i in range(count):
        if workload == "mixed" and rng.random() < 0.4:
            sender = accounts[i % len(accounts)]
            txs.append(Transaction(
                sender=sender, to=rng.choice(accounts),
                nonce=next_nonce(sender),
                value=rng.randint(1, 1000), gas_limit=50_000,
            ))
            continue
        call = library.plan(names[sampler.sample(rng)])
        tx = library.to_transaction(call)
        # Re-stamp with a per-sender nonce so repeated identical calls
        # still hash uniquely on the wire.
        txs.append(Transaction(
            sender=tx.sender, to=tx.to, nonce=next_nonce(tx.sender),
            gas_limit=tx.gas_limit, gas_price=tx.gas_price,
            value=tx.value, data=tx.data,
        ))
    return txs


# -- results ---------------------------------------------------------------
@dataclass
class LoadResult:
    """What one load-generation run measured."""

    mode: str
    requested: int = 0
    ok: int = 0
    #: JSON-RPC error code -> count (BUSY, RATE_LIMITED, ...).
    errors: dict = field(default_factory=dict)
    #: Requests that never received any response.
    unanswered: int = 0
    #: Retry attempts (client-side backoff/reconnects) — counted
    #: separately from failures: a request that succeeded on its third
    #: try is one ``ok`` and two ``retries``.
    retries: int = 0
    wall_seconds: float = 0.0
    latency: LatencyReport | None = None
    #: Closed loop only: the transactions whose receipt was acknowledged
    #: (what a crash drill asks a restarted server for). Not in
    #: :meth:`to_dict`.
    acked: list = field(default_factory=list)

    @property
    def tx_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.ok / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "requested": self.requested,
            "ok": self.ok,
            "errors": dict(self.errors),
            "unanswered": self.unanswered,
            "retries": self.retries,
            "wall_seconds": self.wall_seconds,
            "tx_per_second": self.tx_per_second,
            "latency": (
                self.latency.to_dict() if self.latency is not None else None
            ),
        }


class LoadGenerator:
    """Drives a running server with generated traffic."""

    def __init__(
        self,
        host: str,
        port: int,
        deployment: Deployment | None = None,
        num_accounts: int = 64,
    ) -> None:
        self.host = host
        self.port = port
        #: Must mirror the server's genesis; `build_deployment` is
        #: deterministic, so both sides just build the same one.
        self.deployment = deployment or build_deployment(
            num_accounts=num_accounts
        )

    async def run_closed_loop(
        self,
        total: int,
        clients: int = 4,
        workload: str = "transfer",
        seed: int = 0,
        retry_policy: RetryPolicy | None = None,
    ) -> LoadResult:
        """N clients, one request in flight each, until *total* sent."""
        txs = make_transactions(
            self.deployment, total, workload=workload, seed=seed
        )
        queue: asyncio.Queue = asyncio.Queue()
        for tx in txs:
            queue.put_nowait(tx)
        result = LoadResult(mode="closed", requested=total)
        samples: list[float] = []

        async def worker() -> None:
            client = await RpcClient.connect(
                self.host, self.port, retry_policy=retry_policy
            )
            try:
                while True:
                    try:
                        tx = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    params = {"tx": protocol.tx_to_wire(tx)}
                    started = time.monotonic()
                    try:
                        await client.call(
                            "repro_sendTransaction", params
                        )
                    except RpcClientError as err:
                        result.errors[err.code] = (
                            result.errors.get(err.code, 0) + 1
                        )
                    except ConnectionError:
                        result.unanswered += 1
                    else:
                        result.ok += 1
                        result.acked.append(tx)
                        samples.append(
                            (time.monotonic() - started) * 1000.0
                        )
            finally:
                result.retries += client.retries
                await client.close()

        started = time.monotonic()
        await asyncio.gather(*(worker() for _ in range(clients)))
        result.wall_seconds = time.monotonic() - started
        result.latency = LatencyReport.from_samples(
            f"closed-loop x{clients}", samples
        )
        return result

    async def run_open_loop(
        self,
        rate: float,
        duration_s: float,
        clients: int = 4,
        workload: str = "transfer",
        seed: int = 0,
        retry_policy: RetryPolicy | None = None,
    ) -> LoadResult:
        """Fire at *rate* tx/s for *duration_s*, regardless of replies."""
        total = max(1, int(rate * duration_s))
        txs = make_transactions(
            self.deployment, total, workload=workload, seed=seed
        )
        result = LoadResult(mode="open", requested=total)
        samples: list[float] = []
        connections = [
            await RpcClient.connect(
                self.host, self.port, retry_policy=retry_policy
            )
            for _ in range(clients)
        ]
        interval = 1.0 / rate if rate > 0 else 0.0

        async def fire(client: RpcClient, tx) -> None:
            params = {"tx": protocol.tx_to_wire(tx)}
            started = time.monotonic()
            try:
                await client.call("repro_sendTransaction", params)
            except RpcClientError as err:
                result.errors[err.code] = (
                    result.errors.get(err.code, 0) + 1
                )
            except ConnectionError:
                result.unanswered += 1
            else:
                result.ok += 1
                samples.append((time.monotonic() - started) * 1000.0)

        started = time.monotonic()
        tasks = []
        try:
            for index, tx in enumerate(txs):
                target = started + index * interval
                delay = target - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(
                    fire(connections[index % clients], tx)
                ))
            await asyncio.gather(*tasks)
        finally:
            for client in connections:
                result.retries += client.retries
                await client.close()
        result.wall_seconds = time.monotonic() - started
        result.latency = LatencyReport.from_samples(
            f"open-loop {rate:g}tx/s", samples
        )
        return result
