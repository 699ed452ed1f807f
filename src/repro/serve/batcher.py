"""The continuous block builder: queue → batch → execute → waiters.

The inference-stack continuous-batching shape applied to blocks: client
transactions stream into the node's mempool; the builder closes the
batching window as soon as a size target, a promised-gas target, or a
time budget is hit — what *could* fill a block; the proposer executes
the cut once, fills the block by the gas that execution measured and
returns what did not fit to the pool — what *does*; an in-order engine
commits that execution as it stands, any other runs the block
(``Node.execute_block``), on a worker thread; and each transaction's
waiters are settled the moment its receipt commits. Receipts and
``state_digest()`` are bit-identical to offline sequential execution —
every engine behind ``Node.execute_block`` guarantees it, and any
engine failure (e.g. every PU killed by an injected fault) degrades to
a clean sequential re-execution of the same block through the EVM
instead of wedging the loop. A *commit* failure (the store refused the
append) is not an engine failure: the node has put itself back where
the block found it, and the block's waiters fail without it running
again.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import deque

from ..chain.mempool import (  # noqa: F401  (AdmissionError re-export)
    AdmissionError,
    DuplicateTransactionError,
    PackedTake,
    PackingPolicy,
)
from ..chain.node import Node
from ..chain.receipt import Receipt
from ..evm.decoded import warm_state_codes
from ..obs import MetricsRegistry
from ..storage.errors import AppendFailedError
from .config import ServeConfig
from .errors import ExecutionFailedError

#: How long a drain may run before the builder cancels what is left.
DRAIN_TIMEOUT_S = 30.0


class CommittedReceipt:
    """A receipt plus its position in the chain."""

    __slots__ = ("receipt", "block_height", "tx_index")

    def __init__(self, receipt: Receipt, block_height: int, tx_index: int):
        self.receipt = receipt
        self.block_height = block_height
        self.tx_index = tx_index


class _FutureWaiter:
    """:meth:`BlockBuilder.attach`'s waiter that settles a future (a
    cancellation cancels it)."""

    __slots__ = ("future",)

    def __init__(self, future: asyncio.Future):
        self.future = future

    def settle(self, committed, exc) -> None:
        future = self.future
        if future.done():
            return
        if exc is None:
            future.set_result(committed)
        elif isinstance(exc, asyncio.CancelledError):
            future.cancel()
        else:
            future.set_exception(exc)


class BlockBuilder:
    """Owns the node and the build-execute-resolve loop."""

    def __init__(
        self,
        node: Node,
        config: ServeConfig | None = None,
        fault_injector=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.node = node
        self.config = config or ServeConfig()
        #: Optional :class:`repro.faults.FaultInjector` whose PU faults
        #: strike the MTPU engine (degradation, never divergence).
        self.fault_injector = fault_injector
        #: Hashes admitted and not yet settled, from admission until the
        #: receipt commits or the block fails.
        self._pending: set[bytes] = set()
        #: tx hash -> the waiters :meth:`attach` parked on it (a dict as
        #: an ordered set), settled in the pass that settles the hash.
        self._waiters: dict[bytes, dict] = {}
        #: tx hash -> committed receipt, for ``getReceipt`` lookups.
        #: Bounded to ``config.receipt_history_blocks`` recent blocks.
        self.committed: dict[bytes, CommittedReceipt] = {}
        #: (block hash, tx hashes) per retained block, oldest first —
        #: the eviction order for the receipt-retention window.
        self._history: deque[tuple[bytes, list[bytes]]] = deque()
        #: Serializes block execution (worker thread) against event-loop
        #: reads of the shared world state: getBalance and the mempool's
        #: balance-aware admission both peek at ``node.state`` and toggle
        #: its ``access`` attribute, which the executing EVM also
        #: save/restores — unsynchronized, a read could observe
        #: mid-transaction balances or corrupt access tracking.
        self.state_lock = threading.Lock()
        self._wake = asyncio.Event()
        self._draining = False
        self._in_flight = 0
        self._task: asyncio.Task | None = None
        #: Callbacks fired with (block, receipts) after each commit.
        self.on_new_head: list = []
        # Serve nodes start warm: pre-decode every contract already in
        # state so the first block never pays the AOT decode pass.
        warm_state_codes(node.state)
        #: The served process's one set of books: the server hands in
        #: its own, a builder built alone gets one. ``repro_stats`` is a
        #: view of it. Handles are taken here, so the event loop and the
        #: worker thread only ever increment — neither looks a series up.
        #: No histogram: one would keep a sample per block for ever
        #: (mean block size is ``txs_committed / blocks_built``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter = self.metrics.counter
        self._m_admitted = counter("serve.admitted")
        self._m_queue_depth = self.metrics.gauge("serve.queue_depth")
        self._m_blocks_built = counter("serve.blocks_built")
        self._m_txs_committed = counter("serve.txs_committed")
        self._m_sequential_fallbacks = counter("serve.sequential_fallbacks")
        self._m_execution_failures = counter("serve.execution_failures")
        self._m_packed_blocks = counter("serve.packed_blocks")
        self._m_packed_parallelism = counter("serve.packed_parallelism_sum")
        self._m_packed_deferred = counter("serve.packed_deferred")
        #: Lane-depth/aging policy under conflict-aware packing: a block
        #: is cut for ``num_workers`` lanes; the aging bound is
        #: :class:`PackingPolicy`'s own.
        self.packing_policy: PackingPolicy | None = None
        if self.config.packing == "conflict_aware":
            self.packing_policy = PackingPolicy(
                lane_depth=max(
                    1,
                    self.config.block_size_target // self.config.num_workers,
                ),
            )

    # -- ingress -----------------------------------------------------------
    @property
    def depth(self) -> int:
        """Admitted-but-uncommitted transactions (queue + in flight)."""
        return len(self.node.mempool) + self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    def submit(self, tx) -> bytes:
        """Admit *tx* and return its hash; :meth:`attach` (or
        :meth:`receipt_future`) waits for its committed receipt.

        Raises :class:`~repro.chain.mempool.AdmissionError` (including
        the duplicate/sender-cap subtypes) when the mempool refuses it;
        the caller maps that onto a typed RPC error. Backpressure and
        drain checks happen in the server *before* this call.
        """
        tx_hash = tx.hash()
        # The mempool forgets a hash the moment take() pulls it into a
        # block, so it cannot guard against resubmission of a
        # transaction that is mid-execution — _pending can (it holds the
        # hash from admission until the receipt resolves). Without this
        # check a retry would re-admit, orphan the original waiters and
        # execute the transaction a second time.
        if tx_hash in self._pending:
            raise DuplicateTransactionError(
                f"transaction {tx_hash.hex()[:16]}… already pending"
            )
        # Admission reads balances off the shared state; hold the lock so
        # a concurrently executing block can't interleave.
        mempool = self.node.mempool
        with self.state_lock:
            mempool.add(tx)
            if self.packing_policy is not None:
                # The bloom's code probe reads the same state, and
                # take_packed runs on the event loop without the lock:
                # derive it here so the cut only ever reads it. FIFO
                # cuts never look at blooms and skip the derivation.
                mempool.bloom_of(tx)
        self._pending.add(tx_hash)
        self._wake.set()
        self._m_admitted.inc()
        self._m_queue_depth.set(self.depth)
        return tx_hash

    def is_pending(self, tx_hash: bytes) -> bool:
        """Admitted and not yet settled (pooled or mid-block)."""
        return tx_hash in self._pending

    def receipt_future(self, tx_hash: bytes) -> asyncio.Future:
        """A future of the pending *tx_hash*'s :class:`CommittedReceipt`
        — for callers that await one; the served path attaches its
        waits directly."""
        future = asyncio.get_running_loop().create_future()
        self.attach(tx_hash, _FutureWaiter(future))
        return future

    def attach(self, tx_hash: bytes, waiter) -> None:
        """Settle *waiter* with the pending transaction *tx_hash*.

        ``waiter.settle(committed, exc)`` is called, and must not raise,
        inside the pass that resolves (a :class:`CommittedReceipt`) or
        fails (an exception) the transaction — a block's waiters are
        answered in one loop over the block, not one future callback
        hop each. Several waiters may share a hash (a retry attaches to
        an in-flight one).
        """
        self._waiters.setdefault(tx_hash, {})[waiter] = None

    def detach(self, tx_hash: bytes, waiter) -> None:
        """Forget *waiter*: nothing is left for it to answer."""
        waiters = self._waiters.get(tx_hash)
        if waiters is not None:
            waiters.pop(waiter, None)
            if not waiters:
                del self._waiters[tx_hash]

    def seed_committed(self) -> None:
        """Rebuild the receipt indexes from an already-populated node.

        After crash recovery the node carries a replayed chain and its
        receipts, but ``committed``/``_history`` (which back getReceipt
        and idempotent resubmission) live here. Seeding them restores
        both behaviors across a restart, bounded by the same retention
        window as live serving.
        """
        for block in self.node.chain:
            receipts = self.node.receipts.get(block.hash())
            if receipts is None:
                continue  # outside the recovered retention window
            height = block.header.height
            tx_hashes = [tx.hash() for tx in block.transactions]
            for index, (tx_hash, receipt) in enumerate(
                zip(tx_hashes, receipts)
            ):
                self.committed[tx_hash] = CommittedReceipt(
                    receipt, height, index
                )
            self._evict_history(block, tx_hashes)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="block-builder"
            )

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: finish pending work, then stop the loop."""
        self._draining = True
        self._wake.set()
        if self._task is None:
            return
        try:
            await asyncio.wait_for(
                self._task, timeout=DRAIN_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            self._task.cancel()
            for tx_hash in list(self._pending):
                self._settle(tx_hash, None, asyncio.CancelledError())
        self._task = None

    # -- the loop ----------------------------------------------------------
    async def _run(self) -> None:
        mempool = self.node.mempool
        config = self.config
        while True:
            while len(mempool) == 0:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
            # First transaction is pending: open the batching window.
            window_closes = (
                time.monotonic() + config.block_interval_ms / 1000.0
            )
            while (
                not self._draining
                and len(mempool) < config.block_size_target
                and not self._gas_target_met()
            ):
                remaining = window_closes - time.monotonic()
                if remaining <= 0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
            try:
                await self._cut_and_execute()
            except asyncio.CancelledError:
                raise
            except Exception:
                # Degrade, never wedge: _cut_and_execute already failed
                # the affected waiters; anything escaping it (a commit or
                # resolve bug) must still not kill the builder task —
                # a dead builder hangs every later wait forever.
                self._m_execution_failures.inc()

    def _gas_target_met(self) -> bool:
        """*Could* the pool fill a block? Promised gas (the limits)
        closes the window early; whether the block *is* full is decided
        by measured gas when it is proposed."""
        gas_target = self.config.gas_target
        return (
            gas_target is not None
            and self.node.mempool.pending_gas >= gas_target
        )

    async def _cut_and_execute(self) -> None:
        config = self.config
        # The cut reads only the pool and the blooms submit() derived
        # under state_lock — never the shared world state — so it is
        # safe here on the event loop without the lock.
        cut = self.node.cut(
            config.block_size_target, config.gas_target, config.packing,
            self.packing_policy,
        )
        txs = cut.transactions if isinstance(cut, PackedTake) else cut
        if not txs:
            return
        self._in_flight = len(txs)
        loop = asyncio.get_running_loop()
        try:
            block, receipts = await loop.run_in_executor(
                None, self._build_and_execute, cut
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Even the sequential fallback failed, or the store refused
            # the block. State was rolled back; fail exactly this
            # block's waiters with a typed error and keep the loop alive
            # for everything else.
            # Candidates the proposal put back are in the pool again
            # and will still execute: they are not this block's.
            self._in_flight = 0
            mempool = self.node.mempool
            self._fail(
                [tx for tx in txs if not mempool.contains(tx)], exc
            )
            return
        finally:
            self._in_flight = 0
        self._resolve(block, receipts)

    def _fail(self, txs, exc: Exception) -> None:
        self._m_execution_failures.inc()
        self._m_queue_depth.set(self.depth)
        err = ExecutionFailedError(repr(exc))
        for tx in txs:
            self._settle(tx.hash(), None, err)

    def _settle(self, tx_hash: bytes, committed, exc=None) -> None:
        """Answer every waiter attached to *tx_hash*: with *committed*,
        or with *exc*."""
        self._pending.discard(tx_hash)
        for waiter in self._waiters.pop(tx_hash, ()):
            waiter.settle(committed, exc)

    # -- execution (worker thread; one block at a time) --------------------
    def _build_and_execute(self, cut):
        # Propose and execute run inside one state_lock hold: between
        # them an in-order proposal is open (applied, uncommitted), and
        # no RPC read and no admission may ever see it.
        with self.state_lock:
            try:
                return self._build_and_execute_locked(cut)
            except Exception:
                # Nothing committed: a proposal still open is abandoned.
                self.node.abandon_proposal()
                raise

    def _build_and_execute_locked(self, cut):
        block = self.node.propose_block(
            transactions=cut,
            executor=self.config.executor,
            gas_target=self.config.gas_target,
        )
        # Candidates that did not fit are back in the pool, which counts
        # them: in flight is the block alone.
        self._in_flight = len(block.transactions)
        if block.packed_lanes is not None:
            self._m_packed_blocks.inc()
            self._m_packed_parallelism.inc(block.packed_parallelism)
            self._m_packed_deferred.inc(cut.deferred)
        try:
            receipts = self._execute(block)
        except AppendFailedError:
            # The block executed; its commit was refused. Running it
            # again would answer a full disk with a second execution.
            raise
        except Exception:
            # Degrade, never wedge: the node is back where the block (or
            # its proposal, abandoned here) found it — state, unsealed
            # header, trie — and the block re-executes sequentially,
            # through the EVM. If that dies too the node is back there
            # again; the caller fails the waiters.
            self.node.abandon_proposal()
            self._m_sequential_fallbacks.inc()
            receipts = self.node.execute_block(block)
        # The pre-execution dies with its block: once committed, nothing
        # downstream reads artifacts again, and left on node.chain they
        # are what every later full collection walks.
        block.artifacts = None
        return block, receipts

    def _execute(self, block) -> list[Receipt]:
        return self.node.execute_block(
            block,
            executor=self.config.executor,
            num_workers=self.config.num_workers,
            fault_injector=self.fault_injector,
        )

    # -- commit ------------------------------------------------------------
    def _resolve(self, block, receipts: list[Receipt]) -> None:
        height = block.header.height
        tx_hashes = [tx.hash() for tx in block.transactions]
        for index, (tx_hash, receipt) in enumerate(
            zip(tx_hashes, receipts)
        ):
            committed = CommittedReceipt(receipt, height, index)
            self.committed[tx_hash] = committed
            self._settle(tx_hash, committed)
        self._evict_history(block, tx_hashes)
        self._m_blocks_built.inc()
        self._m_txs_committed.inc(len(receipts))
        self._m_queue_depth.set(self.depth)
        for callback in list(self.on_new_head):
            with contextlib.suppress(Exception):
                # A broken head subscriber must not kill the builder.
                callback(block, receipts)

    def _evict_history(self, block, tx_hashes: list[bytes]) -> None:
        """Bound receipt retention to ``receipt_history_blocks`` blocks.

        Without a bound, ``committed`` (and ``Node.receipts``) grow
        linearly with every transaction ever served. Receipts older than
        the window stop being served — getReceipt returns null and
        resubmission of an ancient hash is no longer idempotent; run
        with ``receipt_history_blocks=None`` for archival behavior.
        """
        retain = self.config.receipt_history_blocks
        if retain is None:
            return
        self._history.append((block.hash(), tx_hashes))
        while len(self._history) > retain:
            old_block_hash, old_tx_hashes = self._history.popleft()
            self.node.receipts.pop(old_block_hash, None)
            for tx_hash in old_tx_hashes:
                self.committed.pop(tx_hash, None)
