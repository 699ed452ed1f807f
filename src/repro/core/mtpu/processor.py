"""MTPU top level: the timing of a block that has already executed.

The block executes once, in block order, before the MTPU sees it
(:func:`~repro.chain.dag.discover_access_sets` with ``trace=True``).
The :class:`MTPUExecutor` is what schedulers drive: it takes that
execution's artifacts — each transaction's receipt, access set,
dataflow trace and the code the transaction left — and *times* a
transaction by replaying its trace through a PU's pipeline/DB-cache
model. It owns no state and writes none. The shared state buffer and the
per-PU DB caches / Call_Contract stacks persist across transactions, so
redundancy scheduled onto one PU compounds exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...chain.receipt import Receipt
from ...chain.state import CODE_KEY
from ...chain.transaction import Transaction
from ...obs import get_registry, get_tracer
from .memory import StateBuffer
from .pu import PU, PUConfig, TraceTiming


@dataclass
class TxExecution:
    """One transaction timed on one PU."""

    tx: Transaction
    receipt: Receipt
    #: The transaction's position in the block.
    index: int
    pu_id: int
    context_cycles: int
    timing: TraceTiming
    hotspot_applied: bool = False
    #: Addresses whose code this transaction rewrote (stale-chunk
    #: bookkeeping; needed to undo tracking on retraction).
    code_writes: frozenset[int] = frozenset()
    #: The cycles the schedule ran it between (set by the driver).
    start_cycle: int = 0
    end_cycle: int = 0

    @property
    def cycles(self) -> int:
        return self.context_cycles + self.timing.cycles

    @property
    def instructions(self) -> int:
        return self.timing.instructions


class MTPUExecutor:
    """A k-PU MTPU timing one block's traced artifacts (in block order)."""

    def __init__(
        self,
        artifacts: list,
        num_pus: int = 4,
        pu_config: PUConfig | None = None,
        hotspot_optimizer=None,
    ) -> None:
        self.artifacts = artifacts
        self.pu_config = pu_config or PUConfig()
        self.state_buffer = StateBuffer(
            self.pu_config.timing.state_buffer_entries
        )
        self.hotspot_optimizer = hotspot_optimizer
        #: The code the transaction being timed left (its artifact's
        #: ``code``): every code read of every PU is served from it.
        self._code: dict[int, bytes] = {}
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
        #: Addresses whose *code* was rewritten earlier in this block —
        #: pre-executed Compare/Check chunks reading that code are stale.
        self._code_written: set[int] = set()
        #: Pre-executed hotspot chunks discarded as stale this block.
        self.stale_chunks_discarded = 0

    def _code_lookup(self, address: int) -> bytes:
        return self._code[address]

    def time_on(self, pu: PU, index: int) -> TxExecution:
        """Time the block's *index*-th transaction on *pu*."""
        span_tracer = get_tracer()
        if not span_tracer.enabled:
            return self._time_on(pu, index)
        # The span keeps its name: golden traces and reports pin it.
        with span_tracer.span("tx.execute", pu=pu.pu_id) as span:
            execution = self._time_on(pu, index)
            tx = execution.tx
            span.set(
                contract=(
                    f"{tx.to:#x}" if tx.to is not None else None
                ),
                cycles=execution.cycles,
                instructions=execution.instructions,
                hotspot=execution.hotspot_applied,
            )
            return execution

    def _time_on(self, pu: PU, index: int) -> TxExecution:
        if not self.pu_config.redundancy_reuse:
            # Without the redundancy optimization, every transaction
            # rebuilds its context and decoded-bytecode state from scratch.
            pu.db_cache.invalidate()
            pu.call_stack.clear()

        artifact = self.artifacts[index]
        tx, steps = artifact.tx, artifact.steps
        self._code = artifact.code
        code_writes = {
            address
            for address, slot in artifact.access.writes
            if slot == CODE_KEY
        }

        skip: set[int] | None = None
        prefetched = None
        on_path_fraction = 1.0
        hotspot_applied = False
        if self.hotspot_optimizer is not None and tx.to is not None:
            plan = self.hotspot_optimizer.plan_for(tx, self._code[tx.to])
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
            receipt=artifact.receipt,
            index=index,
            pu_id=pu.pu_id,
            context_cycles=context_cycles,
            timing=timing,
            hotspot_applied=hotspot_applied,
            code_writes=frozenset(code_writes),
        )
        self.executions.append(execution)
        return execution

    def retract(self, execution: TxExecution) -> None:
        """Forget a timing whose PU failed mid-flight; the transaction
        is timed again on a surviving PU later."""
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
