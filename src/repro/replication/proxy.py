"""The read proxy: one endpoint, many replicas, reads never stop.

A :class:`ReadProxy` listens on its own JSON-RPC port and routes:

* ``repro_getBalance`` / ``repro_getReceipt`` — round-robin across
  *healthy* replicas; a replica that fails or times out is ejected on
  the spot and the request retries on the next backend, falling back to
  the writer so a read is answered as long as *anything* is alive. A
  witness replica refuses state reads (``STATE_UNAVAILABLE``); those
  pass on to the next backend without an eject.
* ``repro_subscribe`` (newHeads) — a dedicated upstream subscription
  per downstream subscriber; when its replica dies, the pump fails
  over to another backend and re-subscribes, deduplicating heads by
  height across the switch.
* ``repro_sendTransaction`` — always forwarded to the writer (replicas
  are read-only by construction).

Health is actively probed: every ``health_interval_s`` the proxy calls
the ``repro_health`` RPC on every backend. A replica is healthy when it
answers in time and its height is within ``max_lag_blocks`` of the
writer's; ejected replicas rejoin automatically on their next good
probe — no operator in the loop.
"""

from __future__ import annotations

import asyncio
import contextlib

from ..obs import MetricsRegistry
from ..serve import protocol
from ..serve.errors import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    STATE_UNAVAILABLE,
    RpcError,
)
from ..serve.loadgen import RpcClient, RpcClientError
from ..serve.outbox import Outbox
from .config import ReplicationConfig

#: Read methods that are safe to serve from any healthy replica.
#: Proofs round-robin too: any replica at the same height serves the
#: same state root, so a proof verifies no matter who cut it.
_READ_METHODS = (
    "repro_getBalance",
    "repro_getReceipt",
    "repro_getProof",
    "repro_getStorageProof",
    "repro_getBlock",
)


class _Backend:
    """One upstream server (a replica, or the writer)."""

    def __init__(self, host: str, port: int, is_writer: bool = False):
        self.host = host
        self.port = port
        self.is_writer = is_writer
        self.client: RpcClient | None = None
        self.healthy = is_writer  # replicas must prove themselves first
        self.height = 0
        self.last_error = ""

    @property
    def name(self) -> str:
        role = "writer" if self.is_writer else "replica"
        return f"{role}@{self.host}:{self.port}"

    async def call(self, method: str, params, timeout: float):
        if self.client is None or self.client._pump.done():
            self.client = await asyncio.wait_for(
                RpcClient.connect(self.host, self.port), timeout=timeout
            )
        return await asyncio.wait_for(
            self.client.call(method, params), timeout=timeout
        )

    async def fail(self, reason: str) -> None:
        self.healthy = False
        self.last_error = reason
        if self.client is not None:
            client, self.client = self.client, None
            with contextlib.suppress(Exception):
                await client.close()


class ReadProxy:
    """Round-robin read router over a writer and N replicas."""

    def __init__(
        self,
        writer_addr: tuple[str, int],
        replica_addrs: list[tuple[str, int]],
        config: ReplicationConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.config = config or ReplicationConfig()
        self.host = host
        self.port = port
        self.writer = _Backend(*writer_addr, is_writer=True)
        self.replicas = [_Backend(h, p) for h, p in replica_addrs]
        self._server: asyncio.base_events.Server | None = None
        self._health_task: asyncio.Task | None = None
        self._sub_tasks: set[asyncio.Task] = set()
        self._rr = 0
        self._next_subscription = 1
        self._stopping = False
        #: The proxy process's books; :meth:`stats` is a view of them.
        self.metrics = MetricsRegistry()
        counter = self.metrics.counter
        self._m_reads = counter("replication.proxy_reads")
        self._m_fallback_reads = counter("replication.proxy_fallback_reads")
        self._m_writes = counter("replication.proxy_writes")
        self._m_failovers = counter("replication.proxy_failovers")
        self._m_ejects = counter("replication.proxy_ejects")
        self._m_probes = counter("replication.proxy_probes")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        # Probe once before accepting traffic so the first reads already
        # know which replicas are alive.
        await self._probe_all()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="proxy-health"
        )

    async def stop(self) -> None:
        self._stopping = True
        for task in (self._health_task, *self._sub_tasks):
            if task is not None:
                task.cancel()
        for task in (self._health_task, *list(self._sub_tasks)):
            if task is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._health_task = None
        self._sub_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for backend in (self.writer, *self.replicas):
            await backend.fail("proxy stopped")

    # -- health ------------------------------------------------------------
    async def _health_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.health_interval_s)
            await self._probe_all()

    async def _probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe(b) for b in (self.writer, *self.replicas))
        )

    async def _probe(self, backend: _Backend) -> None:
        self._m_probes.inc()
        try:
            health = await backend.call(
                "repro_health", None, self.config.backend_timeout_s
            )
            backend.height = int(health.get("height", 0))
        except (
            RpcClientError,
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
        ) as exc:
            if backend.healthy:
                self._m_ejects.inc()
            await backend.fail(repr(exc))
            return
        was_healthy = backend.healthy
        if backend.is_writer:
            backend.healthy = True
        else:
            lag = max(0, self.writer.height - backend.height)
            backend.healthy = lag <= self.config.max_lag_blocks
            if was_healthy and not backend.healthy:
                self._m_ejects.inc()

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        out = Outbox(writer)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                # A task per request: unlike the server's, every proxied
                # call awaits an upstream backend.
                task = asyncio.ensure_future(self._handle_line(line, out))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                if out.backlogged:
                    await out.drain()
        except ConnectionError:
            pass  # reset while parked in drain()
        finally:
            for task in tasks:
                task.cancel()
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_line(self, line: bytes, out: Outbox) -> None:
        request_id = None
        try:
            obj = protocol.decode_frame(line)
            request_id = obj.get("id")
            result = await self._dispatch(obj, out)
            reply = protocol.response(request_id, result)
        except RpcError as err:
            reply = protocol.error_response(request_id, err)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            reply = protocol.error_response(
                request_id, RpcError(INTERNAL_ERROR, repr(exc))
            )
        out.write(protocol.encode_frame(reply))

    # -- routing -------------------------------------------------------------
    async def _dispatch(self, obj: dict, out: Outbox) -> object:
        method = obj.get("method")
        params = obj.get("params") or {}
        if method in _READ_METHODS:
            return await self._read(method, params)
        if method == "repro_sendTransaction":
            return await self._forward_write(params)
        if method == "repro_subscribe":
            return self._subscribe(params, out)
        if method == "repro_stats":
            return self.stats()
        if method == "repro_health":
            return self.health()
        raise RpcError(
            INVALID_PARAMS, f"proxy does not route {method!r}"
        )

    def _read_order(self) -> list[_Backend]:
        healthy = [b for b in self.replicas if b.healthy]
        if healthy:
            pivot = self._rr % len(healthy)
            self._rr += 1
            healthy = healthy[pivot:] + healthy[:pivot]
        # The writer is always the last resort: reads never stop while
        # anything is alive.
        return [*healthy, self.writer]

    async def _read(self, method: str, params) -> object:
        for backend in self._read_order():
            try:
                result = await backend.call(
                    method, params, self.config.backend_timeout_s
                )
            except RpcClientError as err:
                if err.code == STATE_UNAVAILABLE and not backend.is_writer:
                    # A witness replica holds no state to read: ask the
                    # next backend. It is alive, so no eject.
                    continue
                # Any other typed RPC refusal is a real answer from a
                # live backend (bad params etc.) — surface it, don't
                # fail over past it.
                raise RpcError(err.code, str(err), err.data) from None
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if backend.healthy and not backend.is_writer:
                    self._m_ejects.inc()
                await backend.fail("read failed")
                self._m_failovers.inc()
                continue
            self._m_reads.inc()
            if backend.is_writer:
                self._m_fallback_reads.inc()
            return result
        raise RpcError(INTERNAL_ERROR, "no backend answered the read")

    async def _forward_write(self, params) -> object:
        try:
            result = await self.writer.call(
                "repro_sendTransaction", params, None
            )
        except RpcClientError as err:
            raise RpcError(err.code, str(err), err.data) from None
        except (ConnectionError, OSError) as exc:
            raise RpcError(
                INTERNAL_ERROR, f"writer unreachable: {exc!r}"
            ) from None
        self._m_writes.inc()
        return result

    # -- subscriptions ---------------------------------------------------------
    def _subscribe(self, params: dict, out: Outbox) -> dict:
        topic = params.get("topic", "newHeads")
        if topic != "newHeads":
            raise RpcError(INVALID_PARAMS, f"unknown topic {topic!r}")
        sub_id = self._next_subscription
        self._next_subscription += 1
        task = asyncio.ensure_future(self._run_subscription(out, sub_id))
        self._sub_tasks.add(task)
        task.add_done_callback(self._sub_tasks.discard)
        return {"subscription": sub_id}

    async def _run_subscription(self, down: Outbox, sub_id) -> None:
        """Pump upstream newHeads to one downstream subscriber.

        Each subscription owns its own upstream connection, so a dying
        replica only forces *this* pump to fail over; heads are deduped
        by height across the switch.
        """
        last_height = 0
        while not self._stopping and not down.is_closing():
            backend = self._read_order()[0]
            client = None
            try:
                client = await RpcClient.connect(
                    backend.host, backend.port
                )
                await client.call(
                    "repro_subscribe", {"topic": "newHeads"}
                )
                while not down.is_closing():
                    try:
                        note = await client.next_notification(
                            timeout=0.5
                        )
                    except asyncio.TimeoutError:
                        if client._pump.done():
                            raise ConnectionError("upstream closed")
                        continue
                    head = (note.get("params") or {}).get("result") or {}
                    height = int(head.get("height", 0))
                    if height <= last_height:
                        continue  # replayed across a failover
                    last_height = height
                    frame = protocol.encode_frame(
                        protocol.notification(
                            "repro_subscription",
                            {
                                "topic": "newHeads",
                                "subscription": sub_id,
                                "result": head,
                            },
                        )
                    )
                    down.write(frame)
                    if down.backlogged:
                        with contextlib.suppress(ConnectionError):
                            await down.drain()
            except asyncio.CancelledError:
                raise
            except Exception:
                self._m_failovers.inc()
                await asyncio.sleep(self.config.health_interval_s)
            finally:
                if client is not None:
                    with contextlib.suppress(Exception):
                        await client.close()

    # -- introspection -----------------------------------------------------
    def health(self) -> dict:
        return {
            "role": "proxy",
            "writerHeight": self.writer.height,
            "backends": [
                {
                    "name": b.name,
                    "healthy": b.healthy,
                    "height": b.height,
                    "lastError": b.last_error,
                }
                for b in (self.writer, *self.replicas)
            ],
        }

    def stats(self) -> dict:
        value = self.metrics.value
        return {
            "role": "proxy",
            "readsProxied": value("replication.proxy_reads"),
            "writerFallbackReads": value("replication.proxy_fallback_reads"),
            "writesForwarded": value("replication.proxy_writes"),
            "failovers": value("replication.proxy_failovers"),
            "ejects": value("replication.proxy_ejects"),
            "healthProbes": value("replication.proxy_probes"),
            "healthyReplicas": sum(
                1 for b in self.replicas if b.healthy
            ),
            "metrics": self.metrics.snapshot(),
        }
