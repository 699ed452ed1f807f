"""Block-STM-shaped speculative execution: OCC without declared access sets.

Every other executor in the repo needs to be *told* what a transaction
will touch — declared access sets, discovered by pre-execution, feed the
DAG that serializes conflicts up front. This engine needs nothing: it
executes transactions optimistically, records what each one actually
read and wrote (the same :class:`~repro.chain.journal.ExecutionArtifact`
/ :class:`~repro.chain.journal.WriteJournal` machinery the execute-once
pipeline uses), validates read sets at commit time, and aborts/retries
only the transactions that actually conflicted. Dynamic-storage-key
contracts — delegatecall proxies, multi-hop AMM paths, batch airdrops —
that the declared-set model cannot schedule run here at full parallelism.

The shape follows Block-STM (Dickerson/Herlihy's "Adding Concurrency to
Smart Contracts" by way of the multicore-STM line of work):

* **Multi-version store** — per-``(address, slot)`` version chains of
  speculative post-values, indexed by transaction position. An aborted
  transaction's entries become **estimate markers**: "this key will be
  written by transaction *j*, value unknown". Retry overlays read
  through the chains (highest non-estimate writer below the reader).
* **Speculation rounds** — every pending transaction without a live
  artifact executes against a round-start view (a first attempt against
  the committed frontier alone — pure optimism, so a conflict-free block
  costs exactly one round).
* **Dependency-directed rescheduling** — a transaction whose last
  attempt read a key that is currently estimate-marked by a lower
  pending transaction is *deferred*, not re-executed: re-running it
  before its dependency commits would almost surely abort again.
* **Validation + strict in-order commit** — a transaction commits
  only when every earlier transaction has committed *and*
  :meth:`ExecutionArtifact.is_fresh` holds against the authoritative
  state, so the journal replays onto exactly its sequential pre-state.
  (Committing a fresh later transaction past a pending earlier one is
  unsound: the earlier one's re-execution would then observe the later
  one's writes — a serialization inversion that tight-balance workloads
  turn into a digest fork.) Receipts and ``state_digest`` are
  bit-identical to sequential execution by construction.
* **Bounded retry + guaranteed sequential fallback** — a transaction
  aborting more than ``max_retries`` times (or a fault/abort hook that
  keeps firing) reverts the whole block to its entry snapshot and
  re-executes sequentially. Degradation, never divergence.

Progress guarantee: the first pending transaction is never deferred
(its estimate writers would have to be lower *and* pending — a
contradiction) and always speculates against exactly the committed
frontier, so each round commits at least one transaction unless a hook
forces an abort, and the retry bound converts persistent forcing into
the sequential fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..chain.journal import ExecutionArtifact, execute_captured
from ..chain.receipt import Receipt
from ..chain.state import BALANCE_KEY, CODE_KEY, NONCE_KEY, WorldState
from ..chain.transaction import Transaction
from ..evm.context import BlockContext
from ..obs import get_registry

#: Version-chain marker: the writer aborted, its value is unknown until
#: it re-executes.
ESTIMATE = object()


class RetryBudgetExceeded(Exception):
    """A transaction aborted more than ``max_retries`` times."""


class MultiVersionStore:
    """Per-key version chains of speculative writes, by transaction index.

    Committed transactions leave the store (their post-values are in the
    authoritative state); pending transactions' latest execution
    results (or estimate markers, after an abort) live here.
    """

    def __init__(self) -> None:
        #: key -> {tx_index: value | ESTIMATE}
        self._chains: dict[tuple, dict[int, object]] = {}
        #: tx_index -> keys it currently has entries for
        self._written: dict[int, set[tuple]] = {}

    def record(self, index: int, post_values: dict[tuple, object]) -> None:
        """Install transaction *index*'s write set (replacing any prior)."""
        self.clear(index)
        if not post_values:
            return
        self._written[index] = set(post_values)
        for key, value in post_values.items():
            self._chains.setdefault(key, {})[index] = value

    def mark_estimates(self, index: int) -> None:
        """Convert *index*'s entries to estimate markers (it aborted)."""
        for key in self._written.get(index, ()):
            self._chains[key][index] = ESTIMATE

    def clear(self, index: int) -> None:
        """Drop *index*'s entries entirely (commit or re-execution)."""
        for key in self._written.pop(index, ()):
            chain = self._chains.get(key)
            if chain is not None:
                chain.pop(index, None)
                if not chain:
                    del self._chains[key]

    def view_below(self, index: int) -> dict[tuple, object]:
        """Best-effort read view for transaction *index*: per key, the
        highest non-estimate writer strictly below it. Used to build
        retry overlays — if the speculation it reads later changes, the
        commit-time validation catches it."""
        view: dict[tuple, object] = {}
        for key, chain in self._chains.items():
            best = -1
            value: object = None
            for writer, entry in chain.items():
                if best < writer < index and entry is not ESTIMATE:
                    best, value = writer, entry
            if best >= 0:
                view[key] = value
        return view

    def estimate_writers(self, keys, index: int) -> set[int]:
        """Indices < *index* holding estimate markers on any of *keys*."""
        writers: set[int] = set()
        for key in keys:
            chain = self._chains.get(key)
            if not chain:
                continue
            for writer, entry in chain.items():
                if writer < index and entry is ESTIMATE:
                    writers.add(writer)
        return writers


def apply_overlay(state: WorldState, overlay: dict) -> None:
    """Install speculative post-values onto *state* (journaled, untracked)."""
    with state.untracked():
        for (address, slot), value in overlay.items():
            if slot == BALANCE_KEY:
                state.set_balance(address, value)
            elif slot == NONCE_KEY:
                state.set_nonce(address, value)
            elif slot == CODE_KEY:
                state.set_code(address, value)
            else:
                state.set_storage(address, slot, value)


def speculate_on(
    state: WorldState, context, tx: Transaction, overlay: dict
) -> ExecutionArtifact:
    """One speculation on *state* ⊕ *overlay*: overlay under a snapshot,
    execute tracked, capture, revert. *state* is left as it was found."""
    token = state.snapshot()
    try:
        if overlay:
            apply_overlay(state, overlay)
        return execute_captured(state, tx, context)
    finally:
        state.revert(token)


@dataclass
class SpeculativeBlockResult:
    """Receipts plus the speculative engine's full accounting."""

    receipts: list[Receipt]
    #: Speculative executions performed (≥ len(receipts) unless fallen back).
    executions: int = 0
    #: Commit-time read-set validation failures (wasted executions).
    aborts: int = 0
    #: ``is_fresh`` checks performed.
    validations: int = 0
    #: Re-executions past each transaction's first attempt.
    retries: int = 0
    #: Speculations skipped because a dependency was estimate-marked.
    deferrals: int = 0
    #: Speculate/validate/commit rounds until the block drained.
    rounds: int = 0
    #: True when the block degraded to the sequential fallback.
    fell_back: bool = False
    wall_seconds: float = 0.0
    #: Per-transaction committed artifacts (actual access sets); the
    #: sequential fallback reads its receipts from them. Entries are
    #: None only on exotic fallback paths where capture was impossible.
    artifacts: list[ExecutionArtifact | None] = field(default_factory=list)

    @property
    def tx_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.receipts) / self.wall_seconds


class SpeculativeBlockExecutor:
    """Block-STM-style OCC execution of blocks over *state*.

    Speculation runs inline, one transaction at a time, which makes the
    engine exactly as deterministic as sequential execution — the
    property harness and the golden trace both pin that.

    *abort_hook(index, attempt)* — test/fault injection: force a
    validation abort for a fresh artifact. *fault_hook(index, attempt)*
    — simulate a PU dying mid-speculation: the execution's result is
    discarded before validation. Both count against ``max_retries``, so
    a persistently faulty transaction lands in the sequential fallback
    instead of wedging the block.
    """

    def __init__(
        self,
        state: WorldState,
        block=None,
        max_retries: int = 8,
        abort_hook=None,
        fault_hook=None,
    ) -> None:
        self.state = state
        self.block = block or BlockContext()
        self.max_retries = max_retries
        self.abort_hook = abort_hook
        self.fault_hook = fault_hook

    # -- execution ---------------------------------------------------------
    def execute_block(
        self, transactions: list[Transaction]
    ) -> SpeculativeBlockResult:
        """Execute one block speculatively; *state* ends committed,
        bit-identical to sequential execution."""
        start = time.perf_counter()
        count = len(transactions)
        result = SpeculativeBlockResult(
            receipts=[], artifacts=[None] * count,
        )
        if count == 0:
            result.wall_seconds = time.perf_counter() - start
            return result
        entry_token = self.state.snapshot()
        try:
            self._run(transactions, result)
        except RetryBudgetExceeded:
            self.state.revert(entry_token)
            self._fallback_sequential(transactions, result)
        result.wall_seconds = time.perf_counter() - start
        self._publish_metrics(result)
        return result

    def _run(
        self,
        transactions: list[Transaction],
        result: SpeculativeBlockResult,
    ) -> None:
        count = len(transactions)
        receipts: list[Receipt | None] = [None] * count
        artifacts: dict[int, ExecutionArtifact] = {}
        #: Last-known read set per transaction (dependency tracking).
        prev_reads: dict[int, set] = {}
        attempts = [0] * count
        pending = list(range(count))
        store = MultiVersionStore()
        #: Validation memo: the authoritative state only moves when a
        #: journal commits, so an artifact re-checks its read set only
        #: when a commit since its last full check touched one of its
        #: read keys. ``key_versions`` maps each committed key to the
        #: commit sequence number that last wrote it; ``checked_at``
        #: records the sequence number at an artifact's last fresh check.
        commit_seq = 0
        key_versions: dict[tuple, int] = {}
        checked_at: dict[int, int] = {}
        saved_access, self.state.access = self.state.access, None
        try:
            while pending:
                result.rounds += 1
                runnable: list[int] = []
                deferred: list[int] = []
                for index in pending:
                    if index in artifacts:
                        continue  # kept speculation: revalidate only
                    if store.estimate_writers(
                        prev_reads.get(index, ()), index
                    ):
                        deferred.append(index)
                    else:
                        runnable.append(index)
                if not runnable and not artifacts and deferred:
                    # Defensive: never stall. (Unreachable in practice —
                    # the first pending transaction cannot be deferred.)
                    runnable.append(deferred.pop(0))
                result.deferrals += len(deferred)

                executed = self._speculate(
                    transactions, runnable, attempts, store, result,
                )
                for index, artifact in executed:
                    artifacts[index] = artifact
                    prev_reads[index] = set(artifact.read_values)
                    store.record(index, artifact.journal.post_values())

                still_pending: list[int] = []
                for index in pending:
                    artifact = artifacts.get(index)
                    if artifact is None:
                        still_pending.append(index)  # deferred or faulted
                        continue
                    checked = checked_at.get(index)
                    if checked is None or any(
                        key_versions.get(key, -1) >= checked
                        for key in artifact.read_values
                    ):
                        result.validations += 1
                        fresh = artifact.is_fresh(self.state)
                        if fresh:
                            checked_at[index] = commit_seq
                    else:
                        fresh = True  # no commit touched its reads
                    forced = self.abort_hook is not None and self.abort_hook(
                        index, attempts[index]
                    )
                    if forced or not fresh:
                        still_pending.append(index)
                        del artifacts[index]
                        checked_at.pop(index, None)
                        store.mark_estimates(index)
                        result.aborts += 1
                        attempts[index] += 1
                        if attempts[index] > self.max_retries:
                            raise RetryBudgetExceeded(index)
                    elif still_pending:
                        still_pending.append(index)  # fresh but blocked
                    else:
                        post_values = artifact.journal.post_values()
                        artifact.journal.apply(self.state)
                        receipts[index] = artifact.receipt
                        for key in post_values:
                            key_versions[key] = commit_seq
                        commit_seq += 1
                        if artifact.journal.has_delete:
                            # The deleted keys may not appear in
                            # post_values: drop the validation memo.
                            checked_at.clear()
                        store.clear(index)
                        result.artifacts[index] = artifact
                        del artifacts[index]
                pending = still_pending
        finally:
            self.state.access = saved_access
        result.receipts = receipts  # type: ignore[assignment]

    def _speculate(
        self,
        transactions: list[Transaction],
        runnable: list[int],
        attempts: list[int],
        store: MultiVersionStore,
        result: SpeculativeBlockResult,
    ) -> list[tuple[int, ExecutionArtifact]]:
        """Execute *runnable* against round-start views; return artifacts.

        Results are collected *before* the store is updated: a first
        attempt reads the authoritative state alone, a retry also the
        version-chain view below it as the round found it.
        """
        executed: list[tuple[int, ExecutionArtifact]] = []
        for index in runnable:
            result.executions += 1
            if attempts[index] > 0:
                result.retries += 1
            view = store.view_below(index) if attempts[index] > 0 else {}
            artifact = speculate_on(
                self.state, self.block, transactions[index], view
            )
            if self.fault_hook is not None and self.fault_hook(
                index, attempts[index]
            ):
                # The PU died mid-speculation: result lost, attempt spent.
                attempts[index] += 1
                if attempts[index] > self.max_retries:
                    raise RetryBudgetExceeded(index)
                continue
            executed.append((index, artifact))
        return executed

    def _fallback_sequential(
        self,
        transactions: list[Transaction],
        result: SpeculativeBlockResult,
    ) -> None:
        """Guaranteed convergence path: plain in-order execution, with
        artifacts still captured (the receipts are read from them)."""
        state = self.state
        saved_access, state.access = state.access, None
        try:
            result.artifacts[:] = [
                execute_captured(state, tx, self.block)
                for tx in transactions
            ]
        finally:
            state.access = saved_access
        result.receipts = [a.receipt for a in result.artifacts]
        result.fell_back = True

    def _publish_metrics(self, result: SpeculativeBlockResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("speculate.executions").inc(result.executions)
        registry.counter("speculate.aborts").inc(result.aborts)
        registry.counter("speculate.validations").inc(result.validations)
        registry.counter("speculate.retries").inc(result.retries)
        registry.counter("speculate.deferrals").inc(result.deferrals)
        if result.fell_back:
            registry.counter("speculate.fallbacks").inc()
        registry.gauge("speculate.wall_tps").set(result.tx_per_second)
