"""Optimistic (OCC) block execution — the executor class FAFO packs for.

Block-STM-shaped optimistic concurrency control, reduced to its
cost model: every pending transaction executes *speculatively* against
the committed frontier, then commits in block order if its recorded
read values are still fresh (:meth:`ExecutionArtifact.is_fresh` — the
replay-soundness predicate the execute-once pipeline already uses).
A transaction whose reads went stale — an earlier transaction in the
same block wrote a key it read — **aborts** and re-executes in the next
round. The first pending transaction always commits (it executed
against exactly the committed frontier), so rounds terminate.

The point of the class is that its wall-clock cost is *order
sensitive*: total work is one execution per transaction **plus one per
abort**, and aborts are precisely intra-block conflicts. A
conflict-heavy FIFO block with a hot-key chain of length L costs
Θ(L²/2) executions; the same transactions spread across lanes and
blocks by conflict-aware packing cost Θ(N) — real single-threaded
wall time, portable across machines, unlike a core-count-dependent
parallel speedup.

Determinism: commits happen *strictly* in block order — a transaction
commits only after every earlier transaction in the block has, so the
frontier its journal replays onto is exactly its sequential pre-state.
(Committing a fresh later transaction past a pending earlier one is
unsound: the earlier one's re-execution would then observe the later
one's writes — a serialization inversion that tight-balance workloads
turn into a digest fork.) A fresh-but-blocked speculation is kept and
revalidated in later rounds without re-executing, so the cost model is
unchanged: executions = N + aborts, aborts = stale reads only. Receipts
and final state are bit-identical to sequential execution
(property-tested in ``tests/parallel/test_occ.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.journal import ExecutionArtifact, capture_artifact
from ..chain.receipt import Receipt
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..obs import get_registry


@dataclass
class OccBlockResult:
    """Receipts plus the optimistic executor's cost accounting."""

    receipts: list[Receipt]
    #: Speculative executions performed (≥ len(receipts)).
    executions: int
    #: Executions whose reads went stale before commit (wasted work).
    aborts: int
    #: Execute/validate rounds until every transaction committed.
    rounds: int


class OptimisticBlockExecutor:
    """Single-process OCC executor over the real EVM.

    Deliberately sequential: speculation happens one transaction at a
    time, so the measured cost is pure algorithmic work (executions +
    aborts) with no pool/IPC noise — and the executor is exactly as
    deterministic as :meth:`Node.execute_block`.
    """

    def __init__(self, state: WorldState, block=None) -> None:
        self.state = state
        self.block = block
        self.executions = 0
        self.aborts = 0

    def execute_block(
        self, transactions: list[Transaction]
    ) -> OccBlockResult:
        """Execute one block optimistically; state ends committed."""
        from ..evm.context import BlockContext
        from ..evm.interpreter import EVM

        context = self.block or BlockContext()
        receipts: list[Receipt | None] = [None] * len(transactions)
        pending = list(range(len(transactions)))
        executions = aborts = rounds = 0
        # Speculations carried across rounds; an entry survives a round
        # only while its read values stay fresh.
        artifacts: dict[int, ExecutionArtifact] = {}
        saved_access, self.state.access = self.state.access, None
        try:
            while pending:
                rounds += 1
                # Speculate: run every pending transaction that lacks a
                # live artifact against the committed frontier.
                for index in pending:
                    if index in artifacts:
                        continue
                    tx = transactions[index]
                    evm = EVM(self.state, block=context)
                    token = self.state.snapshot()
                    access = self.state.begin_access_tracking()
                    try:
                        receipt = evm.execute_transaction(tx)
                    finally:
                        self.state.end_access_tracking()
                    artifacts[index] = capture_artifact(
                        self.state, tx, receipt, access,
                        self.state.changes_since(token),
                        coinbase=context.coinbase,
                    )
                    self.state.access = None
                    self.state.revert(token)
                    executions += 1
                # Validate + commit strictly in block order. A fresh
                # speculation commits only once every earlier transaction
                # has committed: the frontier it replays onto must be its
                # sequential pre-state, otherwise a later transaction
                # could serialize ahead of an earlier aborted one. A
                # fresh-but-blocked speculation is *kept* — it revalidates
                # next round without re-executing; only stale reads abort.
                still_pending: list[int] = []
                for index in pending:
                    artifact = artifacts[index]
                    if not artifact.is_fresh(self.state):
                        still_pending.append(index)
                        del artifacts[index]
                        aborts += 1
                    elif still_pending:
                        still_pending.append(index)  # blocked, kept
                    else:
                        artifact.journal.apply(self.state)
                        receipts[index] = artifact.receipt
                        del artifacts[index]
                pending = still_pending
        finally:
            self.state.access = saved_access
        self.executions += executions
        self.aborts += aborts
        registry = get_registry()
        if registry.enabled:
            registry.counter("parallel.occ_executions").inc(executions)
            registry.counter("parallel.occ_aborts").inc(aborts)
        return OccBlockResult(
            receipts=list(receipts),
            executions=executions,
            aborts=aborts,
            rounds=rounds,
        )
