"""The multicore parallel execution backend (coordinator side).

:class:`ParallelBlockExecutor` executes a block's transactions across a
persistent pool of worker processes, guided by the dependency DAG: a
transaction is dispatched the moment every predecessor has committed, so
independent transactions run concurrently while conflicting ones keep
their block-order serialization. The coordinator merges each returned
write journal into the authoritative state, validates the worker's
*actual* access set against the *declared* one, and falls back to plain
sequential re-execution on any mismatch — the final state digest and
receipts are always identical to sequential execution.

Journal merge is deterministic without any coordinator-side ordering:
two transactions that write the same key necessarily conflict, so the
DAG already serializes them; journals of concurrently-committed
transactions touch disjoint keys (the commutative coinbase fee delta is
the engineered exception). The fee/nonce bookkeeping the EVM performs
*outside* access tracking is covered by augmenting every transaction's
write set with its sender's balance/nonce before scheduling.

When the block comes with :class:`~repro.chain.journal.ExecutionArtifact`
pre-executions (the execute-once pipeline), fresh artifacts are replayed
by the coordinator — a read-value check plus a journal apply — and only
stale ones are re-executed, collapsing the 2× execute-twice cost of the
discover-then-execute pipeline to ~1×.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

from ..chain.journal import ExecutionArtifact, WriteJournal, replay_in_order
from ..chain.receipt import Receipt
from ..chain.state import BALANCE_KEY, NONCE_KEY
from ..chain.transaction import Transaction
from ..obs import get_registry
from . import worker as worker_mod


class AccessMismatch(Exception):
    """A transaction's actual accesses diverged from its declared set."""


@dataclass
class ParallelBlockResult:
    """Outcome and counters of one parallel block execution."""

    receipts: list[Receipt]
    num_workers: int
    backend: str
    #: Transactions replayed from fresh pre-execution artifacts.
    replayed: int = 0
    #: Transactions executed by pool workers.
    dispatched: int = 0
    #: Transactions executed inline by the coordinator (serial backend,
    #: or stale artifacts under the serial backend).
    executed_inline: int = 0
    #: Artifacts rejected by the read-value freshness check.
    stale_artifacts: int = 0
    #: True when the whole block degraded to sequential re-execution.
    fell_back: bool = False
    wall_seconds: float = 0.0
    mismatches: list[int] = field(default_factory=list)

    @property
    def tx_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.receipts) / self.wall_seconds


def _augmented_edges(
    transactions: list[Transaction],
    access_sets: list,
    edges: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Dependency edges plus the implicit fee/nonce conflicts.

    The EVM debits the sender's balance (gas fee) and bumps its nonce
    outside access tracking; treating ``(sender, balance)`` as a write of
    every transaction closes the gap between the tracked DAG and actual
    state mutations, so e.g. a transfer *to* an address that is also a
    fee-paying sender is ordered deterministically.
    """
    merged: set[tuple[int, int]] = set(edges)
    writers: dict[tuple, list[int]] = {}
    readers: dict[tuple, list[int]] = {}
    for index, (tx, access) in enumerate(zip(transactions, access_sets)):
        writes = set(access.writes)
        writes.add((tx.sender, BALANCE_KEY))
        writes.add((tx.sender, NONCE_KEY))
        for key in writes:
            writers.setdefault(key, []).append(index)
        for key in access.reads:
            readers.setdefault(key, []).append(index)
    for key, writer_list in writers.items():
        if len(writer_list) > 1:
            for a in range(len(writer_list)):
                for b in range(a + 1, len(writer_list)):
                    i, j = writer_list[a], writer_list[b]
                    merged.add((i, j) if i < j else (j, i))
        for w in writer_list:
            for r in readers.get(key, ()):
                if w != r:
                    merged.add((w, r) if w < r else (r, w))
    return sorted(merged)


class ParallelBlockExecutor(worker_mod.PoolHolder):
    """DAG-guided parallel execution of blocks over *state*.

    The worker pool (:class:`~repro.parallel.worker.PoolHolder`) is
    persistent across ``execute_block`` calls. The coordinator ships
    each task only the committed post-values of the keys the transaction
    declares, and invalidates the pool whenever the state diverges in a
    way overlays cannot express (sequential fallback, account deletion).
    """

    # -- execution ---------------------------------------------------------
    def execute_block(
        self,
        transactions: list[Transaction],
        edges: list[tuple[int, int]],
        access_sets: list,
        artifacts: list[ExecutionArtifact] | None = None,
    ) -> ParallelBlockResult:
        """Execute a block; *state* ends identical to sequential execution.

        *access_sets* are the declared per-transaction access sets (or
        artifacts — anything exposing ``reads``/``writes``); *edges* the
        block's dependency DAG over them. *artifacts* optionally carries
        the pre-execution results for the execute-once replay path.
        """
        start = time.perf_counter()
        result = ParallelBlockResult(
            receipts=[], num_workers=self.num_workers, backend=self.backend,
        )
        count = len(transactions)
        if count == 0:
            result.wall_seconds = time.perf_counter() - start
            return result

        # A read of the coinbase balance would observe fee credits whose
        # ordering the DAG deliberately does not constrain: serialize.
        coinbase_key = (self.block.coinbase, BALANCE_KEY)
        if any(coinbase_key in access.reads for access in access_sets):
            return self._fallback_sequential(transactions, result, start)

        token = self.state.snapshot()
        try:
            if self.backend == "serial":
                receipts = self._run_in_order(
                    transactions, access_sets, artifacts, result
                )
            else:
                receipts = self._run_dag(
                    transactions, edges, access_sets, artifacts, result
                )
        except AccessMismatch:
            self.state.revert(token)
            self._pool_dirty = True
            return self._fallback_sequential(transactions, result, start)
        result.receipts = receipts
        result.wall_seconds = time.perf_counter() - start
        self._publish_metrics(result)
        return result

    def _run_in_order(
        self,
        transactions: list[Transaction],
        access_sets: list,
        artifacts: list[ExecutionArtifact] | None,
        result: ParallelBlockResult,
    ) -> list[Receipt]:
        """The serial backend: nothing is dispatched, so the ready heap
        of :meth:`_run_dag` would pop 0, 1, 2, … (every predecessor has
        a lower index) — walk the block instead, with no edges, heap or
        pool overlay to keep."""
        from ..evm.interpreter import EVM

        state = self.state
        evm = EVM(state, block=self.block)

        def run(index: int, tx: Transaction) -> Receipt:
            saved_access = state.access
            access = state.begin_access_tracking()
            try:
                receipt = evm.execute_transaction(tx)
            finally:
                state.end_access_tracking()
                state.access = saved_access
            self._validate(index, access_sets[index], access, result)
            result.executed_inline += 1
            return receipt

        if artifacts is None:
            return [run(index, tx) for index, tx in enumerate(transactions)]
        receipts, result.replayed = replay_in_order(
            state, transactions, artifacts, run
        )
        result.stale_artifacts = result.executed_inline
        return receipts

    def _run_dag(
        self,
        transactions: list[Transaction],
        edges: list[tuple[int, int]],
        access_sets: list,
        artifacts: list[ExecutionArtifact] | None,
        result: ParallelBlockResult,
    ) -> list[Receipt]:
        count = len(transactions)
        merged = _augmented_edges(transactions, access_sets, edges)
        indegree = [0] * count
        successors: list[list[int]] = [[] for _ in range(count)]
        for i, j in merged:
            indegree[j] += 1
            successors[i].append(j)

        ready: list[int] = [i for i in range(count) if indegree[i] == 0]
        heapq.heapify(ready)
        receipts: list[Receipt | None] = [None] * count
        inflight: dict = {}
        done = 0

        def complete(index: int, receipt: Receipt,
                     journal: WriteJournal) -> None:
            nonlocal done
            receipts[index] = receipt
            journal.apply(self.state)
            if journal.has_delete:
                # Overlays cannot express deletion: stop trusting the
                # pool's base snapshot past this block.
                self._pool_dirty = True
            self._committed.update(journal.post_values())
            for succ in successors[index]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
            done += 1

        while done < count:
            progressed = True
            while progressed and ready:
                progressed = False
                deferred: list[int] = []
                while ready:
                    index = heapq.heappop(ready)
                    tx = transactions[index]
                    artifact = (
                        artifacts[index] if artifacts is not None else None
                    )
                    if artifact is not None and artifact.is_fresh(
                        self.state
                    ):
                        complete(index, artifact.receipt, artifact.journal)
                        result.replayed += 1
                        progressed = True
                        continue
                    if artifact is not None:
                        result.stale_artifacts += 1
                    if len(inflight) < self.num_workers:
                        overlay = self._overlay_for(tx, access_sets[index])
                        future = self._ensure_pool().submit(
                            worker_mod.execute_task, tx, overlay
                        )
                        inflight[future] = index
                        result.dispatched += 1
                        progressed = True
                    else:
                        deferred.append(index)
                        break
                for index in deferred:
                    heapq.heappush(ready, index)

            if not inflight:
                if done < count:
                    raise RuntimeError(
                        "parallel driver stalled "
                        f"({done}/{count} done; cyclic DAG?)"
                    )
                break
            finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in finished:
                index = inflight.pop(future)
                receipt, actual, ops, _ = future.result()
                self._validate(index, access_sets[index], actual, result)
                complete(index, receipt, WriteJournal(ops))

        return receipts  # type: ignore[return-value]

    def _validate(
        self, index: int, declared, actual, result: ParallelBlockResult
    ) -> None:
        if (actual.reads != declared.reads
                or actual.writes != declared.writes):
            result.mismatches.append(index)
            raise AccessMismatch(index)

    def _overlay_for(self, tx: Transaction, declared) -> dict:
        keys = set(declared.reads) | set(declared.writes)
        keys.add((tx.sender, BALANCE_KEY))
        keys.add((tx.sender, NONCE_KEY))
        committed = self._committed
        return {key: committed[key] for key in keys if key in committed}

    def _fallback_sequential(
        self,
        transactions: list[Transaction],
        result: ParallelBlockResult,
        start: float,
    ) -> ParallelBlockResult:
        from ..evm.interpreter import EVM

        evm = EVM(self.state, block=self.block)
        result.receipts = [
            evm.execute_transaction(tx) for tx in transactions
        ]
        result.fell_back = True
        self._pool_dirty = True
        result.wall_seconds = time.perf_counter() - start
        self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: ParallelBlockResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.gauge("parallel.workers").set(result.num_workers)
        registry.counter("parallel.replayed").inc(result.replayed)
        registry.counter("parallel.dispatched").inc(result.dispatched)
        registry.counter(
            "parallel.executed_inline"
        ).inc(result.executed_inline)
        registry.counter(
            "parallel.stale_artifacts"
        ).inc(result.stale_artifacts)
        if result.fell_back:
            registry.counter("parallel.fallbacks").inc()
        registry.gauge("block.wall_tps").set(result.tx_per_second)
