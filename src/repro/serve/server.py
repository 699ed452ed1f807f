"""The asyncio JSON-RPC node front-end.

Newline-delimited JSON-RPC 2.0 over plain TCP (stdlib asyncio streams,
no dependencies). Methods:

* ``repro_sendTransaction`` — admit a hex-RLP transaction; with
  ``wait`` (default) the response is the committed receipt, otherwise
  the transaction hash. ``deadline_ms`` bounds the wait.
* ``repro_getReceipt`` — look a committed receipt up by hash.
* ``repro_getBalance`` — read an account balance (a witness replica,
  holding no full state, refuses it and the proofs: STATE_UNAVAILABLE).
* ``repro_subscribe`` — ``newHeads`` push notifications per block.
* ``repro_stats`` — server counters (loadgen/drills consume this).

Production behaviors are first-class: admission is bounded
(``max_pending`` → typed BUSY errors), per-client token buckets police
request rates, deadlines cancel abandoned waits, and shutdown drains the
block builder before the listener closes. Every refusal is a *typed*
error — a saturated server answers quickly and cheaply; it never hangs a
client or buffers without bound.

A request costs one pass on the way in and a share of one socket write
on the way out. Each connection's reader handles its lines inline: reads
answer at once, and a waiting ``repro_sendTransaction`` leaves a
:class:`_ReceiptWait` instead of a task: a waiter the block builder
answers in its one pass over the committed block, and a place on the
server's one :class:`_DeadlineWheel` (tick buckets swept by a single
timer) instead of a timer per request. Replies queue on the connection's
:class:`~repro.serve.outbox.Outbox`, flushed once per loop turn, and the
reader stops reading a connection whose transport is over its
write-buffer high-water mark.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

from ..chain.mempool import AdmissionError
from ..chain.node import Node
from ..obs import MetricsRegistry, get_registry
from ..storage import codec as storage_codec
from . import protocol
from .batcher import DRAIN_TIMEOUT_S, BlockBuilder
from .config import ServeConfig
from ..trie import encode_proof
from .outbox import Outbox
from .errors import (
    ADMISSION_REJECTED,
    INTERNAL_ERROR,
    INVALID_PARAMS,
    METHOD_NOT_FOUND,
    PROOF_UNAVAILABLE,
    STATE_UNAVAILABLE,
    BusyError,
    DeadlineExceededError,
    RateLimitedError,
    ReadOnlyError,
    RpcError,
    ShuttingDownError,
)
from .ratelimit import RateLimiter

#: ``_dispatch``'s result for a request whose reply comes later, from a
#: :class:`_ReceiptWait`.
_DEFERRED = object()
#: sendTransaction's wait deadline when the request names none.
DEFAULT_DEADLINE_MS = 30_000.0
#: The deadline wheel's resolution: a wait expires within one tick
#: after its deadline.
DEADLINE_TICK_S = 0.005
#: Drop a newHeads subscription whose transport write buffer exceeds
#: this many bytes: a stalled subscriber must not buffer without bound.
MAX_SUBSCRIBER_BUFFER = 1 << 20
#: Token-bucket burst size under ``ServeConfig.rate_limit``.
RATE_BURST = 64


def _failure(request_id, exc: BaseException) -> bytes:
    """The error frame for *exc*: typed errors as they are, anything
    else as INTERNAL_ERROR — a traceback never reaches the wire."""
    if isinstance(exc, asyncio.CancelledError):
        # The drain timed out and cancelled the wait.
        exc = ShuttingDownError()
    elif not isinstance(exc, RpcError):
        exc = RpcError(INTERNAL_ERROR, repr(exc))
    return protocol.encode_frame(protocol.error_response(request_id, exc))


class _DeadlineWheel:
    """Every parked wait's deadline, in buckets of one tick, swept by one
    timer.

    A wait joins the bucket of the first tick boundary past its
    deadline, so it never expires early and expires at most one tick
    (:data:`DEADLINE_TICK_S`) late. One ``call_at`` timer is armed for
    the earliest bucket; it expires everything due, then re-arms for
    the next (a bucket that emptied under it costs one early wake-up).
    A wait that is answered or cancelled leaves its bucket in O(1), and
    the timer is cancelled when the last one leaves — an idle server
    holds no handle.
    """

    __slots__ = ("_buckets", "_timer")

    def __init__(self) -> None:
        #: tick -> the waits expiring at it (a dict as an ordered set).
        self._buckets: dict[int, dict[_ReceiptWait, None]] = {}
        #: The one sweep; None while no wait is parked.
        self._timer: asyncio.TimerHandle | None = None

    def add(self, wait: _ReceiptWait, delay_s: float) -> int:
        """Park *wait* to expire *delay_s* from now; returns its tick."""
        loop = asyncio.get_running_loop()
        tick = int((loop.time() + delay_s) // DEADLINE_TICK_S) + 1
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = self._buckets[tick] = {}
            timer = self._timer
            if timer is None or tick * DEADLINE_TICK_S < timer.when():
                self._arm(loop, tick)
        bucket[wait] = None
        return tick

    def discard(self, wait: _ReceiptWait) -> None:
        bucket = self._buckets.get(wait.tick)
        if bucket is None or wait not in bucket:
            return
        del bucket[wait]
        if not bucket:
            del self._buckets[wait.tick]
            if not self._buckets:
                self.close()

    def close(self) -> None:
        """Disarm the sweep (no wait is left, or the server is shutting
        down); a later :meth:`add` arms it again."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self, loop: asyncio.AbstractEventLoop, tick: int) -> None:
        self.close()
        self._timer = loop.call_at(tick * DEADLINE_TICK_S, self._sweep)

    def _sweep(self) -> None:
        self._timer = None
        loop = asyncio.get_running_loop()
        now = loop.time()
        due = sorted(
            tick for tick in self._buckets if tick * DEADLINE_TICK_S <= now
        )
        for tick in due:
            for wait in self._buckets.pop(tick):
                wait.expire()
        if self._buckets:
            self._arm(loop, min(self._buckets))


class _ReceiptWait:
    """One ``repro_sendTransaction`` waiting for its receipt.

    A waiter the builder settles (:meth:`BlockBuilder.attach`) and a
    place on the server's :class:`_DeadlineWheel`; whichever comes first
    answers the request, exactly once, and disarms the other. Several
    waits may hang off one transaction (a retry of an in-flight hash
    attaches to it), each with its own deadline. The transaction itself
    is never affected: past the deadline it stays admitted, commits, and
    is served by ``repro_getReceipt``.
    """

    __slots__ = (
        "server", "out", "waits", "request_id", "tx_hash", "deadline_ms",
        "tick",
    )

    def __init__(self, server, out, waits, request_id, tx_hash,
                 deadline_ms) -> None:
        self.server = server
        self.out = out
        #: The connection's live waits; the reader cancels them all
        #: when the connection goes away.
        self.waits = waits
        self.request_id = request_id
        self.tx_hash = tx_hash
        self.deadline_ms = deadline_ms
        #: The wheel bucket this wait expires in.
        self.tick = server._deadlines.add(self, deadline_ms / 1000.0)
        server.builder.attach(tx_hash, self)
        waits.add(self)

    def settle(self, committed, exc: BaseException | None) -> None:
        """The transaction's block committed (*committed*) or failed
        (*exc*); called by the builder, in its pass over the block."""
        self.server._deadlines.discard(self)
        self.waits.discard(self)
        if exc is None:
            try:
                frame = protocol.receipt_frame(self.request_id, *committed)
            except Exception as err:
                frame = _failure(self.request_id, err)
        else:
            frame = _failure(self.request_id, exc)
        self.server._reply(self.out, frame)

    def expire(self) -> None:
        """The deadline passed (the wheel has already let go of it)."""
        server = self.server
        server.builder.detach(self.tx_hash, self)
        self.waits.discard(self)
        server._m_deadline_misses.inc()
        server._reply(
            self.out,
            _failure(self.request_id, DeadlineExceededError(self.deadline_ms)),
        )

    def cancel(self) -> None:
        """The connection is gone: nobody is left to answer."""
        self.server._deadlines.discard(self)
        self.server.builder.detach(self.tx_hash, self)


class RpcServer:
    """One node's serving front-end."""

    def __init__(
        self,
        node: Node,
        config: ServeConfig | None = None,
        fault_injector=None,
    ) -> None:
        self.config = config or ServeConfig()
        self._fault_injector = fault_injector
        self.node = node
        if node.trie is None:
            raise ValueError(
                "a served node must Merkleize: headers are sealed with "
                "the trie's state_root and proofs are cut from it"
            )
        # Before recovery, which re-admits spilled transactions.
        node.mempool.per_sender_cap = self.config.per_sender_cap
        #: :class:`repro.storage.RecoveryResult` when startup recovered
        #: an existing data directory, else None.
        self.recovery = None
        if self.config.data_dir is not None:
            from ..storage import attach

            self.recovery = attach(
                node,
                self.config.data_dir,
                self.config.storage,
                receipt_history_blocks=self.config.receipt_history_blocks,
                fault_injector=fault_injector,
            )
        #: This process's one set of books — owned, not installed: the
        #: builder, the streamer :meth:`start` creates and the replica
        #: attached to the builder count each event once, here, and
        #: :meth:`stats` / :meth:`health` are views of it. The
        #: process-wide registry of ``repro.obs`` stays the null one in
        #: a live server; the node's own twins (``evm.*``,
        #: ``ChainStore.wal_records`` / ``storage.*``) belong to it and
        #: are not moved here (ROADMAP item 7).
        self.metrics = MetricsRegistry()
        self.builder = BlockBuilder(
            self.node, self.config, fault_injector=fault_injector,
            metrics=self.metrics,
        )
        self.limiter = (
            RateLimiter(self.config.rate_limit, RATE_BURST)
            if self.config.rate_limit is not None
            else None
        )
        #: The writer-side :class:`repro.replication.WalStreamer` when
        #: ``config.replication_port`` is set (started with the server).
        self.streamer = None
        #: The :class:`repro.replication.Replica` feeding a replica-role
        #: server, attached by whoever wires the two together; the
        #: health RPC and stats report through it when present.
        self.replication = None
        self._server: asyncio.base_events.Server | None = None
        #: One outbox per open connection; it is the connection's
        #: identity everywhere below.
        self._connections: set[Outbox] = set()
        #: Per-connection last-activity clock readings (idle reaping).
        self._last_activity: dict[Outbox, float] = {}
        #: Injectable for fake-clock idle-timeout tests.
        self._clock = time.monotonic
        self._started_at = time.monotonic()
        self._reaper: asyncio.Task | None = None
        #: subscription id -> the subscriber's outbox.
        self._subscriptions: dict[int, Outbox] = {}
        self._next_subscription = 1
        self._shutting_down = False
        #: Every parked sendTransaction's deadline, on one timer.
        self._deadlines = _DeadlineWheel()
        self.builder.on_new_head.append(self._publish_new_head)
        # Handles for every series with a fixed name, taken once: the
        # request path increments, it never looks a series up. (An
        # admission refusal is ``serve.rejected{reason=<error type>}``,
        # looked up when it happens.)
        counter = self.metrics.counter
        self._m_requests = counter("serve.requests_served")
        #: Transport writes across all connections; with
        #: ``serve.requests_served`` it gives frames per write.
        self._m_socket_writes = counter("serve.socket_writes")
        self._m_busy = counter("serve.rejected", reason="busy")
        self._m_rate_limited = counter("serve.rejected", reason="rate_limited")
        self._m_deadline_misses = counter("serve.deadline_misses")
        self._m_subscription_drops = counter("serve.subscription_drops")
        self._m_health_checks = counter("serve.health_checks")
        self._m_idle_drops = counter("serve.idle_drops")
        self._m_read_only_rejects = counter("serve.read_only_rejects")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the block builder.

        A replica-role server starts no builder loop (blocks arrive
        over the replication stream, not from a mempool); a writer with
        ``replication_port`` set additionally starts the WAL streamer
        and wires it to the builder's commit callback.
        """
        self._started_at = time.monotonic()
        if self.config.role == "writer":
            self.builder.start()
        if (
            self.config.role == "writer"
            and self.config.replication_port is not None
        ):
            from ..replication import ReplicationConfig, WalStreamer

            self.streamer = WalStreamer(
                self.config.data_dir,
                ReplicationConfig(
                    host=self.config.host,
                    stream_port=self.config.replication_port,
                ),
                fault_injector=self._fault_injector,
                metrics=self.metrics,
            )
            await self.streamer.start()
            self.config.replication_port = (
                self.streamer.config.stream_port
            )
            self.builder.on_new_head.append(self.streamer.notify_commit)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        # Ephemeral-port runs (tests, drills) read the bound port back.
        self.config.port = self._server.sockets[0].getsockname()[1]
        if self.config.idle_timeout_s is not None:
            self._reaper = asyncio.get_running_loop().create_task(
                self._reap_idle_forever(), name="idle-reaper"
            )

    async def shutdown(self) -> None:
        """Graceful drain-then-stop.

        New transactions are refused with SHUTTING_DOWN immediately; the
        block builder finishes everything already admitted; then the
        listener and all connections close.
        """
        self._shutting_down = True
        if self._reaper is not None:
            self._reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper
            self._reaper = None
        if self.streamer is not None:
            await self.streamer.stop()
        await self.builder.drain_and_stop()
        # The drain answered (or, past its timeout, cancelled) every
        # wait; every reply still in an outbox goes to its transport
        # below, which close() flushes before it closes.
        self._deadlines.close()
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        for out in connections:
            out.flush()
            out.writer.close()
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(out.writer.wait_closed() for out in connections),
                    return_exceptions=True,
                ),
                timeout=DRAIN_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            # A peer that never reads its replies cannot hold the
            # shutdown hostage.
            for out in connections:
                out.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._connections.clear()
        self._subscriptions.clear()
        if self.node.store is not None:
            # Anything still pooled (the drain timed out, or wait=False
            # admissions never cut) would silently vanish with the
            # process — spill it so the next start re-admits it.
            with self.builder.state_lock:
                leftover = self.node.mempool.spill_entries()
            if leftover:
                self.node.store.spill_mempool(leftover)
            self.node.store.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling -----------------------------------------------
    def _client_id(self, out: Outbox) -> str:
        peer = out.transport.get_extra_info("peername")
        return peer[0] if peer else "unknown"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        out = Outbox(writer, on_write=self._m_socket_writes.inc)
        self._connections.add(out)
        self._last_activity[out] = self._clock()
        #: This connection's sendTransaction calls awaiting a receipt.
        waits: set[_ReceiptWait] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break  # oversized frame: drop the connection
                if not line:
                    break
                self._last_activity[out] = self._clock()
                if line.strip() == b"":
                    continue
                # Inline, never awaiting: a sendTransaction wait parks
                # a _ReceiptWait and returns, so the next pipelined
                # request is read at once.
                self._handle_request(line, out, waits)
                if out.backlogged:
                    # The peer is not taking its replies: stop reading
                    # its requests until it does, instead of buffering
                    # answers without bound.
                    await out.drain()
        except ConnectionError:
            pass  # reset while parked in drain()
        finally:
            for wait in waits:
                wait.cancel()
            self._drop_connection(out)

    def _drop_connection(self, out: Outbox) -> None:
        self._connections.discard(out)
        self._last_activity.pop(out, None)
        for sub_id, subscriber in list(self._subscriptions.items()):
            if subscriber is out:
                del self._subscriptions[sub_id]
        with contextlib.suppress(Exception):
            out.writer.close()

    # -- idle reaping --------------------------------------------------------
    async def _reap_idle_forever(self) -> None:
        interval = max(0.01, self.config.idle_timeout_s / 4.0)
        while True:
            await asyncio.sleep(interval)
            self._reap_idle()

    def _reap_idle(self) -> int:
        """Drop every non-subscriber silent beyond ``idle_timeout_s``.

        Factored out of the reaper task (and driven by the injectable
        ``self._clock``) so tests can advance a fake clock and call this
        directly instead of sleeping.
        """
        if self.config.idle_timeout_s is None:
            return 0
        cutoff = self._clock() - self.config.idle_timeout_s
        subscribed = set(self._subscriptions.values())
        reaped = 0
        for out, last in list(self._last_activity.items()):
            if out in subscribed:
                continue  # push traffic is the point; never reap
            if last < cutoff:
                self._drop_connection(out)
                reaped += 1
        self._m_idle_drops.inc(reaped)
        return reaped

    def _reply(self, out: Outbox, frame: bytes) -> None:
        self._m_requests.inc()
        out.write(frame)

    def _handle_request(
        self, line: bytes, out: Outbox, waits: set
    ) -> None:
        request_id = None
        try:
            obj = protocol.decode_frame(line)
            request_id = obj.get("id")
            result = self._dispatch(obj, request_id, out, waits)
            if result is _DEFERRED:
                return
            if result.__class__ is not bytes:
                result = protocol.encode_frame(
                    protocol.response(request_id, result)
                )
        except Exception as exc:
            result = _failure(request_id, exc)
        self._reply(out, result)

    # -- dispatch ----------------------------------------------------------
    def _dispatch(
        self, obj: dict, request_id, out: Outbox, waits: set
    ) -> object:
        """The request's result, a ready reply frame (``bytes``, a
        receipt), or :data:`_DEFERRED`."""
        method = obj.get("method")
        params = obj.get("params") or {}
        if not isinstance(params, dict):
            raise RpcError(INVALID_PARAMS, "params must be an object")
        if method == "repro_sendTransaction":
            return self._send_transaction(params, request_id, out, waits)
        if method == "repro_getReceipt":
            return self._get_receipt(params, request_id)
        if method == "repro_getBalance":
            return self._get_balance(params)
        if method == "repro_getProof":
            return self._get_proof(params)
        if method == "repro_getStorageProof":
            return self._get_storage_proof(params)
        if method == "repro_getBlock":
            return self._get_block(params)
        if method == "repro_subscribe":
            return self._subscribe(params, out)
        if method == "repro_health":
            return self.health()
        if method == "repro_stats":
            return self.stats()
        raise RpcError(METHOD_NOT_FOUND, f"unknown method {method!r}")

    def _send_transaction(
        self, params: dict, request_id, out: Outbox, waits: set
    ) -> object:
        """Admit a transaction; the receipt's frame, the hash (``wait``
        false) or :data:`_DEFERRED` with a :class:`_ReceiptWait`
        parked."""
        if self.config.role != "writer":
            self._m_read_only_rejects.inc()
            raise ReadOnlyError()
        if self._shutting_down or self.builder.draining:
            raise ShuttingDownError()
        if self.limiter is not None:
            client = self._client_id(out)
            if not self.limiter.try_acquire(client):
                self._m_rate_limited.inc()
                raise RateLimitedError(self.limiter.retry_after(client))
        tx = protocol.tx_from_wire(params.get("tx", ""))
        wait = params.get("wait", True)
        deadline_ms = params.get("deadline_ms", DEFAULT_DEADLINE_MS)
        if not isinstance(deadline_ms, (int, float)):
            raise RpcError(INVALID_PARAMS, "deadline_ms must be a number")
        tx_hash = tx.hash()
        # Idempotent resubmission: a hash that already committed must
        # never re-execute — serve its receipt instead.
        committed = self.node.receipt_of(tx_hash)
        if committed is not None:
            return protocol.receipt_frame(request_id, *committed)
        # A retry of an in-flight hash — pooled or mid-block, e.g. after
        # a DEADLINE_EXCEEDED — attaches to the existing wait. It must
        # never be re-admitted: that would orphan the original waiters
        # and execute the transaction a second time.
        if self.builder.is_pending(tx_hash):
            if not wait:
                self.metrics.counter(
                    "serve.rejected", reason="DuplicateTransactionError"
                ).inc()
                raise RpcError(
                    ADMISSION_REJECTED,
                    f"transaction {tx_hash.hex()[:16]}… already pending",
                    {"reason": "DuplicateTransactionError"},
                )
            _ReceiptWait(self, out, waits, request_id, tx_hash, deadline_ms)
            return _DEFERRED
        if self.builder.depth >= self.config.max_pending:
            self._m_busy.inc()
            raise BusyError(self.builder.depth, self.config.max_pending)
        try:
            self.builder.submit(tx)
        except AdmissionError as err:
            # Includes mempool-level duplicates (a hash heard via gossip
            # but never submitted over RPC is not pending here).
            self.metrics.counter(
                "serve.rejected", reason=type(err).__name__
            ).inc()
            raise RpcError(
                ADMISSION_REJECTED, str(err),
                {"reason": type(err).__name__},
            ) from None
        if not wait:
            return {"txHash": tx_hash.hex()}
        _ReceiptWait(self, out, waits, request_id, tx_hash, deadline_ms)
        return _DEFERRED

    def _get_receipt(self, params: dict, request_id) -> object:
        tx_hash_hex = params.get("txHash")
        if not isinstance(tx_hash_hex, str):
            raise RpcError(INVALID_PARAMS, "txHash (hex string) required")
        try:
            tx_hash = bytes.fromhex(tx_hash_hex)
        except ValueError:
            raise RpcError(INVALID_PARAMS, "txHash is not hex") from None
        committed = self.node.receipt_of(tx_hash)
        if committed is None:
            return None
        return protocol.receipt_frame(request_id, *committed)

    def _require_state(self) -> None:
        """Refuse a state read a witness replica would answer wrong: its
        state holds only the last block's witnessed accounts."""
        replica = self.replication
        if replica is not None and replica.mode == "witness":
            raise RpcError(
                STATE_UNAVAILABLE, "node holds no full state",
                {"reason": "stateless"},
            )

    def _get_balance(self, params: dict) -> int:
        address = self._parse_address(params)
        self._require_state()
        # The lock keeps this read consistent: block execution mutates
        # the same state (and its access-tracking attribute) on a worker
        # thread, so an unguarded read could observe a mid-transaction
        # balance.
        with self.builder.state_lock, self.node.state.untracked():
            return self.node.state.get_balance(address)

    @staticmethod
    def _parse_address(params: dict, key: str = "address") -> int:
        value = params.get(key)
        if isinstance(value, str):
            try:
                value = int(value, 16)
            except ValueError:
                raise RpcError(
                    INVALID_PARAMS, f"{key} is not hex"
                ) from None
        if not isinstance(value, int) or value < 0:
            raise RpcError(INVALID_PARAMS, f"{key} required")
        return value

    def _observe_proof(self, blob: bytes) -> None:
        # The process registry, beside the trie's own series (the null
        # one's histogram is a shared no-op): a histogram keeps every
        # sample, so it is not in self.metrics.
        get_registry().histogram("trie.proof_bytes").observe(len(blob))

    def _get_proof(self, params: dict) -> dict:
        """Inclusion proof binding an account to the current state root.

        Absence is not provable (no exclusion proofs); an account not in
        the trie gets a typed PROOF_UNAVAILABLE error instead.
        """
        address = self._parse_address(params)
        self._require_state()
        with self.builder.state_lock:
            trie = self.node.trie
            try:
                proof = trie.account_proof(address)
            except KeyError:
                raise RpcError(
                    PROOF_UNAVAILABLE,
                    f"account {address:#x} is not in the trie",
                    {"reason": "absent"},
                ) from None
            state_root = trie.root()
        blob = encode_proof(proof)
        self._observe_proof(blob)
        return {
            "address": f"{address:x}",
            "stateRoot": state_root.hex(),
            "balance": proof.balance,
            "nonce": proof.nonce,
            "proof": blob.hex(),
        }

    def _get_storage_proof(self, params: dict) -> dict:
        """Inclusion proof binding one storage slot to the state root."""
        address = self._parse_address(params)
        slot = self._parse_address(params, key="slot")
        self._require_state()
        with self.builder.state_lock:
            trie = self.node.trie
            with self.node.state.untracked():
                value = self.node.state.get_storage(address, slot)
            try:
                proof = trie.storage_proof(address, slot, value)
            except (KeyError, ValueError):
                raise RpcError(
                    PROOF_UNAVAILABLE,
                    f"slot {slot:#x} of {address:#x} is empty or the "
                    "account is not in the trie",
                    {"reason": "absent"},
                ) from None
            state_root = trie.root()
        blob = encode_proof(proof)
        self._observe_proof(blob)
        return {
            "address": f"{address:x}",
            "slot": f"{slot:x}",
            "value": value,
            "stateRoot": state_root.hex(),
            "proof": blob.hex(),
        }

    def _get_block(self, params: dict) -> object:
        """Header fields of one committed block (None when unknown).

        ``height`` is an integer or ``"latest"``. Replicas answer from
        their replicated chain, which may start past genesis after a
        snapshot resync — heights below the anchor return None.
        """
        height = params.get("height", "latest")
        if height == "latest":
            height = self.node.height
        elif not isinstance(height, int) or height < 0:
            raise RpcError(
                INVALID_PARAMS, 'height must be an integer or "latest"'
            )
        # No lock: the node's chain is read one list operation at a time.
        block = self.node.block_at(height)
        return None if block is None else protocol.header_to_wire(block)

    def _subscribe(self, params: dict, out: Outbox) -> dict:
        topic = params.get("topic", "newHeads")
        if topic != "newHeads":
            raise RpcError(INVALID_PARAMS, f"unknown topic {topic!r}")
        sub_id = self._next_subscription
        self._next_subscription += 1
        self._subscriptions[sub_id] = out
        return {"subscription": sub_id}

    def _publish_new_head(self, block, receipts) -> None:
        if not self._subscriptions:
            return
        frame = protocol.encode_frame(
            protocol.notification(
                "repro_subscription",
                {"topic": "newHeads",
                 "result": protocol.header_to_wire(block)},
            )
        )
        for sub_id, out in list(self._subscriptions.items()):
            if out.is_closing():
                del self._subscriptions[sub_id]
                continue
            # Fire-and-forget, but bounded: a subscriber that stops
            # reading would otherwise grow its transport write buffer
            # with every block, forever. Past the cap, the subscription
            # is dropped rather than buffered.
            if out.transport.get_write_buffer_size() > MAX_SUBSCRIBER_BUFFER:
                del self._subscriptions[sub_id]
                self._m_subscription_drops.inc()
                continue
            out.write(frame)

    # -- health ------------------------------------------------------------
    def health(self) -> dict:
        """Liveness + identity: what the read proxy routes on.

        ``stateRoot`` is the commitment headers, the WAL and the stream
        carry; ``stateDigest`` is the trie-independent flat digest,
        computed here on demand. Two healthy nodes at the same height
        answering with the same pair are serving bit-identical
        universes.
        """
        self._m_health_checks.inc()
        with self.builder.state_lock:
            digest = storage_codec.state_digest_bytes(self.node.state)
            height = self.node.height
        out = {
            "role": self.config.role,
            "height": height,
            "stateDigest": digest.hex(),
            "stateRoot": self.node.state_root.hex(),
            "mempoolDepth": len(self.node.mempool),
            "queueDepth": self.builder.depth,
            "uptimeSeconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "shuttingDown": self._shutting_down,
        }
        if self.replication is not None:
            out["replication"] = self.replication.stats()
        if self.streamer is not None:
            out["streaming"] = self.streamer.stats()
        return out

    # -- stats -------------------------------------------------------------
    def stats(self) -> dict:
        """A view of :attr:`metrics` under the names clients read, the
        node's and the store's own counts, and the registry itself."""
        value = self.metrics.value
        busy = value("serve.rejected", reason="busy")
        rate_limited = value("serve.rejected", reason="rate_limited")
        packed_blocks = value("serve.packed_blocks")
        return {
            "role": self.config.role,
            "requestsServed": value("serve.requests_served"),
            "socketWrites": value("serve.socket_writes"),
            "blocksBuilt": value("serve.blocks_built"),
            "txsCommitted": value("serve.txs_committed"),
            "queueDepth": self.builder.depth,
            "busyRejects": busy,
            "rateLimitRejects": rate_limited,
            "deadlineMisses": value("serve.deadline_misses"),
            # Every other reason: the mempool's AdmissionError types.
            "admissionRejects": (
                self.metrics.total("serve.rejected") - busy - rate_limited
            ),
            "subscriptionDrops": value("serve.subscription_drops"),
            "healthChecks": value("serve.health_checks"),
            "idleDrops": value("serve.idle_drops"),
            "readOnlyRejects": value("serve.read_only_rejects"),
            "sequentialFallbacks": value("serve.sequential_fallbacks"),
            "executionFailures": value("serve.execution_failures"),
            "packing": self.config.packing,
            "packedBlocks": packed_blocks,
            "packedDeferred": value("serve.packed_deferred"),
            "packedParallelism": (
                value("serve.packed_parallelism_sum") / packed_blocks
                if packed_blocks
                else 0.0
            ),
            "chainHeight": self.node.height,
            "shuttingDown": self._shutting_down,
            "durable": self.node.store is not None,
            "recoveredHeight": (
                self.recovery.height if self.recovery else 0
            ),
            "walRecords": (
                self.node.store.wal_records
                if self.node.store is not None
                else 0
            ),
            "snapshotsWritten": (
                self.node.store.snapshots_written
                if self.node.store is not None
                else 0
            ),
            "metrics": self.metrics.snapshot(),
        }
