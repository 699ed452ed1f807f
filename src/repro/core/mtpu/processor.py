"""MTPU top level: functional execution fused with PU timing.

The :class:`MTPUExecutor` is what schedulers drive: it executes a
transaction *functionally* (reference EVM, producing the receipt and the
dataflow trace) and *temporally* (replaying the trace through a PU's
pipeline/DB-cache model), returning both. The shared state buffer and the
per-PU DB caches / Call_Contract stacks persist across transactions, so
redundancy scheduled onto one PU compounds exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...chain.receipt import Receipt
from ...chain.state import CODE_KEY, WorldState
from ...chain.transaction import Transaction
from ...evm.context import BlockContext
from ...evm.interpreter import EVM
from ...evm.tracer import Tracer
from ...obs import get_registry, get_tracer
from .memory import StateBuffer
from .pu import PU, PUConfig, TraceTiming


@dataclass
class TxExecution:
    """Result of one transaction on one PU."""

    tx: Transaction
    receipt: Receipt
    pu_id: int
    context_cycles: int
    timing: TraceTiming
    hotspot_applied: bool = False
    #: Addresses whose code this transaction rewrote (stale-chunk
    #: bookkeeping; needed to undo tracking on retraction).
    code_writes: frozenset[int] = frozenset()

    @property
    def cycles(self) -> int:
        return self.context_cycles + self.timing.cycles

    @property
    def instructions(self) -> int:
        return self.timing.instructions


class MTPUExecutor:
    """A k-PU MTPU over one world state."""

    def __init__(
        self,
        state: WorldState,
        block: BlockContext | None = None,
        num_pus: int = 4,
        pu_config: PUConfig | None = None,
        hotspot_optimizer=None,
        artifacts: dict | None = None,
    ) -> None:
        self.state = state
        self.block = block or BlockContext()
        self.pu_config = pu_config or PUConfig()
        self.state_buffer = StateBuffer(
            self.pu_config.timing.state_buffer_entries
        )
        self.hotspot_optimizer = hotspot_optimizer
        self.pus = [
            PU(
                pu_id=i,
                config=self.pu_config,
                state_buffer=self.state_buffer,
                code_lookup=self._code_lookup,
            )
            for i in range(num_pus)
        ]
        self.executions: list[TxExecution] = []
        #: When False, the journal accumulates across transactions so a
        #: caller (fault-tolerant scheduler, the node's ``mtpu`` engine)
        #: can snapshot/revert; the caller owns clearing it.
        self.auto_clear_journal = True
        #: Addresses whose *code* was rewritten earlier in this block —
        #: pre-executed Compare/Check chunks reading that code are stale.
        self._code_written: set[int] = set()
        #: Pre-executed hotspot chunks discarded as stale this block.
        self.stale_chunks_discarded = 0
        #: tx hash -> :class:`~repro.chain.journal.ExecutionArtifact`
        #: from consensus-stage pre-execution (the execute-once
        #: pipeline). A fresh artifact is *replayed* — journal apply +
        #: trace-driven timing — instead of re-running the EVM
        #: (``evm.tx_reuses``; ``evm.tx_reexecutions`` when stale).
        self.artifacts = artifacts or {}

    def _code_lookup(self, address: int) -> bytes:
        # Bypass access tracking: timing-model code fetches must not
        # pollute the dependency analysis.
        saved = self.state.access
        self.state.access = None
        try:
            return self.state.get_code(address)
        finally:
            self.state.access = saved

    def execute_on(self, pu: PU, tx: Transaction) -> TxExecution:
        """Run one transaction functionally and time it on *pu*."""
        span_tracer = get_tracer()
        if not span_tracer.enabled:
            return self._execute_on(pu, tx)
        with span_tracer.span("tx.execute", pu=pu.pu_id) as span:
            execution = self._execute_on(pu, tx)
            span.set(
                contract=(
                    f"{tx.to:#x}" if tx.to is not None else None
                ),
                cycles=execution.cycles,
                instructions=execution.instructions,
                hotspot=execution.hotspot_applied,
            )
            return execution

    def _execute_on(self, pu: PU, tx: Transaction) -> TxExecution:
        if not self.pu_config.redundancy_reuse:
            # Without the redundancy optimization, every transaction
            # rebuilds its context and decoded-bytecode state from scratch.
            pu.db_cache.invalidate()
            pu.call_stack.clear()

        # Execute-once pipeline: a fresh consensus-stage artifact is
        # replayed (journal apply) instead of re-running the EVM. The
        # trace it carries still drives the full PU timing model below,
        # so cycle accounting is identical either way.
        artifact = self.artifacts.get(tx.hash()) if self.artifacts else None
        if artifact is not None and artifact.steps is not None:
            if artifact.is_fresh(self.state):
                artifact.journal.apply(self.state)
                if self.state.access is not None:
                    self.state.access.merge(artifact.access)
                receipt = artifact.receipt
                access = artifact.access
                steps = artifact.steps
                registry = get_registry()
                if registry.enabled:
                    registry.counter("evm.tx_reuses").inc()
            else:
                artifact = None
                registry = get_registry()
                if registry.enabled:
                    registry.counter("evm.tx_reexecutions").inc()
        else:
            artifact = None
        if artifact is None:
            tracer = Tracer()
            evm = EVM(self.state, block=self.block, tracer=tracer)
            saved_access = self.state.access
            access = self.state.begin_access_tracking()
            try:
                receipt = evm.execute_transaction(tx)
            finally:
                self.state.end_access_tracking()
                if saved_access is not None:
                    saved_access.merge(access)
                self.state.access = saved_access
            steps = tracer.steps
        if self.auto_clear_journal:
            self.state.clear_journal()
        code_writes = {
            address
            for address, slot in access.writes
            if slot == CODE_KEY
        }

        skip: set[int] | None = None
        prefetched = None
        on_path_fraction = 1.0
        hotspot_applied = False
        if self.hotspot_optimizer is not None and tx.to is not None:
            plan = self.hotspot_optimizer.plan_for(tx)
            if plan is not None and plan.preexecute and (
                tx.to in self._code_written
            ):
                # The callee's code was rewritten by an earlier
                # transaction in this block: the Compare/Check chunks
                # pre-executed against the old code are stale. Degrade
                # to a plan without pre-execution credit.
                plan = replace(plan, preexecute=False)
                self.stale_chunks_discarded += 1
                registry = get_registry()
                if registry.enabled:
                    registry.counter("hotspot.stale_chunks").inc()
            if plan is not None:
                skip = plan.skip_indices(steps)
                prefetched = plan.prefetched_predicate()
                on_path_fraction = plan.on_path_fraction
                hotspot_applied = True
                registry = get_registry()
                if registry.enabled:
                    registry.counter("hotspot.plans_applied").inc()
                    if plan.preexecute:
                        registry.counter("hotspot.preexec_txs").inc()
                    if skip:
                        registry.counter(
                            "hotspot.instructions_skipped"
                        ).inc(len(skip))
                # Give the PU the constant-eliminated decode views so the
                # fill unit packs the optimized instruction stream.
                for code_address in {
                    s.code_address for s in steps
                }:
                    view = self.hotspot_optimizer.code_view(code_address)
                    if view is not None:
                        pu.install_code_view(code_address, view)

        context_cycles = 0
        if tx.to is not None:
            context_cycles = pu.context_setup_cycles(
                tx.to, len(tx.data), on_path_fraction
            )
        timing = pu.time_trace(steps, prefetched, skip)

        pu.current_contract = tx.to
        pu.busy_cycles += context_cycles + timing.cycles
        pu.transactions_executed += 1
        self._code_written |= code_writes
        execution = TxExecution(
            tx=tx,
            receipt=receipt,
            pu_id=pu.pu_id,
            context_cycles=context_cycles,
            timing=timing,
            hotspot_applied=hotspot_applied,
            code_writes=frozenset(code_writes),
        )
        self.executions.append(execution)
        return execution

    def retract(self, execution: TxExecution, journal_token: int) -> None:
        """Undo a speculative execution whose PU failed mid-flight.

        Requires :attr:`auto_clear_journal` to be False so the state can
        be reverted to *journal_token* (taken just before the dispatch).
        The transaction will re-execute on a surviving PU later.
        """
        if self.auto_clear_journal:
            raise RuntimeError(
                "retract() needs auto_clear_journal=False to roll back"
            )
        self.state.revert(journal_token)
        self.executions.remove(execution)
        pu = self.pus[execution.pu_id]
        pu.busy_cycles -= execution.cycles
        pu.transactions_executed -= 1
        # Drop code-write tracking unless another (committed) execution
        # also rewrote the same address.
        still_written = {
            address
            for other in self.executions
            for address in other.code_writes
        }
        self._code_written &= still_written

    # -- aggregate metrics ------------------------------------------------
    def total_instructions(self) -> int:
        return sum(e.instructions for e in self.executions)

    def total_cycles_sequentialized(self) -> int:
        """Sum of per-transaction cycles (single-PU equivalent)."""
        return sum(e.cycles for e in self.executions)

    def receipts(self) -> list[Receipt]:
        return [e.receipt for e in self.executions]
