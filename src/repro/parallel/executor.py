"""The declared-access-set engine: replay, validate, fall back.

:class:`ParallelBlockExecutor` runs a block whose per-transaction access
sets were declared up front (discovered by pre-execution, the DAG built
over them). It walks the block in order. When the block comes with
:class:`~repro.chain.journal.ExecutionArtifact` pre-executions (the
execute-once pipeline), a fresh artifact is replayed — a read-value
check plus a journal apply — collapsing the 2× execute-twice cost of the
discover-then-execute pipeline to ~1×. Every other transaction runs
through the EVM with access tracking on, and its *actual* access set is
validated against the *declared* one; any mismatch degrades the block to
plain sequential re-execution, so the final state digest and receipts
are always identical to sequential execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..chain.journal import ExecutionArtifact, replay_in_order
from ..chain.receipt import Receipt
from ..chain.state import BALANCE_KEY, WorldState
from ..chain.transaction import Transaction
from ..evm.context import BlockContext
from ..evm.interpreter import EVM
from ..obs import get_registry


class AccessMismatch(Exception):
    """A transaction's actual accesses diverged from its declared set."""


@dataclass
class ParallelBlockResult:
    """Outcome and counters of one parallel block execution."""

    receipts: list[Receipt]
    #: Transactions replayed from fresh pre-execution artifacts.
    replayed: int = 0
    #: Transactions run through the EVM (no artifact, or a stale one).
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


class ParallelBlockExecutor:
    """Declared-access-set execution of blocks over *state*."""

    def __init__(self, state: WorldState, block=None) -> None:
        self.state = state
        self.block = block or BlockContext()

    def execute_block(
        self,
        transactions: list[Transaction],
        access_sets: list,
        artifacts: list[ExecutionArtifact] | None = None,
    ) -> ParallelBlockResult:
        """Execute a block; *state* ends identical to sequential execution.

        *access_sets* are the declared per-transaction access sets (or
        artifacts — anything exposing ``reads``/``writes``). *artifacts*
        optionally carries the pre-execution results for the
        execute-once replay path.
        """
        start = time.perf_counter()
        result = ParallelBlockResult(receipts=[])
        if not transactions:
            result.wall_seconds = time.perf_counter() - start
            return result

        # A read of the coinbase balance would observe fee credits whose
        # ordering the DAG deliberately does not constrain: serialize.
        coinbase_key = (self.block.coinbase, BALANCE_KEY)
        if any(coinbase_key in access.reads for access in access_sets):
            return self._fallback_sequential(transactions, result, start)

        token = self.state.snapshot()
        try:
            receipts = self._run_in_order(
                transactions, access_sets, artifacts, result
            )
        except AccessMismatch:
            self.state.revert(token)
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
        """Walk the block: replay what is fresh, execute and validate the
        rest."""
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

    def _validate(
        self, index: int, declared, actual, result: ParallelBlockResult
    ) -> None:
        if (actual.reads != declared.reads
                or actual.writes != declared.writes):
            result.mismatches.append(index)
            raise AccessMismatch(index)

    def _fallback_sequential(
        self,
        transactions: list[Transaction],
        result: ParallelBlockResult,
        start: float,
    ) -> ParallelBlockResult:
        evm = EVM(self.state, block=self.block)
        result.receipts = [
            evm.execute_transaction(tx) for tx in transactions
        ]
        result.fell_back = True
        result.wall_seconds = time.perf_counter() - start
        self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: ParallelBlockResult) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("parallel.replayed").inc(result.replayed)
        registry.counter(
            "parallel.executed_inline"
        ).inc(result.executed_inline)
        registry.counter(
            "parallel.stale_artifacts"
        ).inc(result.stale_artifacts)
        if result.fell_back:
            registry.counter("parallel.fallbacks").inc()
        registry.gauge("block.wall_tps").set(result.tx_per_second)
