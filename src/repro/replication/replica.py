"""The follower: connect, verify every block, resync on divergence.

A :class:`Replica` owns the client end of the replication stream. Its
loop is a small, explicit state machine:

    CONNECT → HELLO → (SNAPSHOT?) → APPLY* → torn? → BACKOFF → CONNECT

* **CONNECT/HELLO** — dial the writer's stream port and claim the
  applied height and state root. The writer decides incremental
  stream vs snapshot resync from that claim.
* **APPLY** — for each BLOCK message that links to the block below it:
  ``Node.execute_block`` (on a worker thread, under the builder's state
  lock so concurrent reads stay consistent) — the same call the writer
  and recovery make, its context read from the block's header, its
  compare-or-stamp check against the ``state_root`` the writer sealed.
  One apply path serves both modes: a ``witness`` replica first adopts
  the state its block's witness proves
  (:func:`~repro.trie.witness.witness_state`), an ``execute`` replica
  keeps its full state. A match commits and feeds the serve layer
  (getReceipt, newHeads subscribers); a mismatch — or execution that
  strayed outside the witness — comes back *rolled back* (a witness
  replica re-adopts the state it held before the block) and is
  re-raised as :class:`~repro.replication.errors.ReplicaDivergenceError`
  — diverged state is never committed and never served. The replica
  adds policy only: the lock, the fault hook, the typed error, its
  height.
* **BACKOFF** — any torn stream (connection error, timeout, protocol
  damage) reconnects with jittered exponential backoff. A divergence
  also reconnects, but with ``need_snapshot`` set: the only acceptable
  continuation of a diverged universe is a wholesale replacement from
  the writer's newest snapshot.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time

from ..chain import rlp
from ..evm.decoded import warm_state_codes
from ..storage import codec, snapshot
from ..storage.errors import StorageError
from ..trie import StateRootMismatchError, WitnessError, witness_state
from . import stream
from .config import ReplicationConfig
from .errors import ReplicaDivergenceError, StreamProtocolError


class Replica:
    """A verifying follower bound to one read-only serve stack."""

    def __init__(
        self,
        node,
        builder,
        writer_host: str,
        writer_stream_port: int,
        config: ReplicationConfig | None = None,
        fault_injector=None,
        mode: str = "execute",
    ) -> None:
        if mode not in ("execute", "witness"):
            raise ValueError(f"unknown replica mode {mode!r}")
        if node.trie is None:
            raise ValueError(
                "a replica must Merkleize: the sealed state_root is "
                "the stream's only commitment"
            )
        self.node = node
        self.builder = builder
        self.writer_host = writer_host
        self.writer_stream_port = writer_stream_port
        self.config = config or ReplicationConfig()
        self.fault_injector = fault_injector
        #: ``execute`` re-runs every block against full local state.
        #: ``witness``: each block must arrive with a witness, whose
        #: state the node adopts before running the block — so the
        #: state holds only the last block's witnessed accounts, and the
        #: server refuses state reads (``STATE_UNAVAILABLE``) while
        #: receipts, blocks and heads are served as usual. Both modes
        #: check the sealed header root the same way.
        self.mode = mode
        self._rng = random.Random(self.config.seed)
        #: Applied chain height. Decoupled from ``len(node.chain)``
        #: because a snapshot resync replaces state without replaying
        #: the blocks below the anchor.
        self.height = len(node.chain)
        self._need_snapshot = False
        self._stopping = False
        self._task: asyncio.Task | None = None
        self.connected = False
        #: The books of the serve stack this replica feeds (its
        #: builder's, which is its server's). Handles are taken here:
        #: the apply paths run on a worker thread and only increment.
        #: Lag is the last reading, two gauges — no sample is kept.
        self.metrics = builder.metrics
        counter = self.metrics.counter
        self._m_blocks_applied = counter("replication.blocks_applied")
        self._m_reconnects = counter("replication.reconnects")
        self._m_resyncs = counter("replication.resyncs")
        self._m_divergences = counter("replication.divergences")
        self._m_lag_seconds = self.metrics.gauge("replication.lag_seconds")
        self._m_lag_seconds.set(0.0)  # a float before the first block too
        self._m_lag_blocks = self.metrics.gauge("replication.lag_blocks")

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self.run(), name="replica-stream"
            )

    async def stop(self) -> None:
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    # -- the reconnect loop ------------------------------------------------
    async def run(self) -> None:
        attempt = 0
        while not self._stopping:
            try:
                if (
                    self.fault_injector is not None
                    and self.fault_injector.partitioned()
                ):
                    raise ConnectionError("injected partition")
                await self._session()
                attempt = 0
            except ReplicaDivergenceError:
                self._m_divergences.inc()
                self._need_snapshot = True
                attempt = 0  # resync is urgent: restart at base delay
            except (
                ConnectionError,
                StreamProtocolError,
                asyncio.TimeoutError,
                OSError,
            ):
                pass
            if self._stopping:
                return
            delay = self.config.backoff.delay(attempt, self._rng)
            attempt += 1
            self._m_reconnects.inc()
            await asyncio.sleep(delay)

    async def _session(self) -> None:
        reader, writer = await asyncio.open_connection(
            self.writer_host, self.writer_stream_port
        )
        self.connected = True
        try:
            with self.builder.state_lock:
                root = self.node.state_root
            writer.write(stream.encode_hello(
                self.height, root, self._need_snapshot
            ))
            await writer.drain()
            loop = asyncio.get_running_loop()
            while not self._stopping:
                msg_type, fields = await stream.read_message(
                    reader, timeout=self.config.stream_read_timeout_s
                )
                if msg_type == stream.MSG_SNAPSHOT:
                    payload, recent = fields
                    await loop.run_in_executor(
                        None, self._apply_snapshot, payload, recent
                    )
                elif msg_type == stream.MSG_BLOCK:
                    await self._handle_block(loop, fields)
                else:
                    raise StreamProtocolError(
                        "unexpected HELLO from writer"
                    )
        finally:
            self.connected = False
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_block(self, loop, fields) -> None:
        sent_at_us, writer_height, wal_payload = fields
        if self.fault_injector is not None:
            stall = self.fault_injector.stall_follower()
            if stall > 0:
                await asyncio.sleep(stall)
        try:
            record = codec.decode_wal_record(wal_payload)
        except (rlp.RLPDecodingError, StorageError) as exc:
            raise StreamProtocolError(f"undecodable block: {exc}") from None
        block = record.block
        height = block.header.height
        if height <= self.height:
            return  # reconnect overlap: already applied
        if height != self.height + 1:
            raise StreamProtocolError(
                f"stream gap: got block {height}, applied {self.height}"
            )
        parent = self.node.block_hash(height - 1)
        if parent is not None and block.header.parent_hash != parent:
            # Somebody else's parent: applied, the block would sit on
            # this chain under a hash the writer never sealed. Resync.
            raise ReplicaDivergenceError(
                height - 1, block.header.parent_hash, parent
            )
        receipts = await loop.run_in_executor(
            None, self._apply_block, record
        )
        # Feed the serve layer on the event loop (subscription writes
        # and receipt indexing are loop-thread affairs, exactly as the
        # writer's builder resolves there).
        self.builder._resolve(block, receipts)
        self._m_lag_seconds.set(max(0.0, time.time() - sent_at_us / 1e6))
        self._m_lag_blocks.set(max(0, writer_height - height))

    # -- apply paths (worker thread, under the state lock) -----------------
    def _apply_block(self, record):
        block = record.block
        height = block.header.height
        node = self.node
        witness = self.mode == "witness"
        if witness and not record.witness:
            raise StreamProtocolError(
                f"block {height} carries no witness; a witness-mode "
                "replica needs a writer running with --emit-witness"
            )
        with self.builder.state_lock:
            held = node.state, node.trie
            try:
                if witness:
                    node.adopt(*witness_state(
                        record.witness, node.state_root, self.height
                    ))
                if self.fault_injector is not None:
                    self.fault_injector.corrupt_replica_state(
                        node.state, height
                    )
                # Compare-or-stamp inside: the header the writer sealed
                # must re-seal bit-identically from our replayed state.
                receipts = node.execute_block(block)
            except (WitnessError, StateRootMismatchError) as exc:
                # Rolled back already, state and trie: until the resync
                # lands this replica answers from the last good root.
                if witness:
                    node.adopt(*held)
                raise ReplicaDivergenceError(
                    height, block.header.state_root,
                    getattr(exc, "actual", b""),
                ) from exc
            self.height = height
            self._m_blocks_applied.inc()
            return receipts

    def _apply_snapshot(
        self, payload: bytes, recent: list[tuple[int, bytes]]
    ) -> None:
        try:
            height, _, state, trie = snapshot.decode_snapshot(payload)
        except StorageError as exc:
            raise StreamProtocolError(
                f"unusable snapshot: {exc}"
            ) from None
        with self.builder.state_lock:
            self.node.adopt(state, trie)
            # A snapshot may carry contracts this replica never executed;
            # pre-decode them so post-resync blocks replay at full speed.
            warm_state_codes(state)
            self.node.chain = []
            # The BLOCKHASH window below the anchor: shipped, not replayed.
            self.node.ancestor_hashes = dict(recent)
            self.node.receipts = {}
            self.builder.committed.clear()
            self.builder._history.clear()
            self.height = height
        self._need_snapshot = False
        self._m_resyncs.inc()

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        value = self.metrics.value
        return {
            "height": self.height,
            "connected": self.connected,
            "blocksApplied": value("replication.blocks_applied"),
            "reconnects": value("replication.reconnects"),
            "resyncs": value("replication.resyncs"),
            "divergences": value("replication.divergences"),
            "lagSeconds": round(value("replication.lag_seconds"), 6),
            "lagBlocks": value("replication.lag_blocks"),
        }
