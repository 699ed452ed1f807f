"""Event-driven execution of a block on a multi-PU MTPU.

Three drivers, matching the paper's evaluation configurations:

* :func:`run_sequential` — one PU, block order (the Fig. 14 baseline).
* :func:`run_synchronous` — k PUs with barrier rounds: each round takes a
  set of pairwise-independent ready transactions, executes them in
  parallel, and waits for the slowest ("synchronous execution of
  transactions", Fig. 14a).
* :func:`run_spatial_temporal` — the paper's asynchronous scheduler
  (Fig. 14b): PUs pick work the moment they go idle, guided by the
  Scheduling/Transaction tables.

The block has already executed once, in block order; the drivers only
*time* it, so they write no state. Each records when every transaction
ran (``TxExecution.start_cycle`` / ``end_cycle``), and
:func:`~repro.chain.dag.check_schedule_order` audits that no conflicting
pair of transactions overlapped or swapped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ...chain.receipt import Receipt
from ...chain.transaction import Transaction
from ...faults.plan import PU_DEAD
from ...obs import get_registry
from ..mtpu.processor import MTPUExecutor, TxExecution
from .composite_dag import CompositeDAG
from .spatial_temporal import SpatialTemporalScheduler

#: Cycles charged for one table-consultation selection step — the paper
#: bounds it to O(n) bit operations off the main execution path.
SELECTION_OVERHEAD_CYCLES = 2


@dataclass
class ScheduleResult:
    """Outcome and metrics of one scheduled block execution."""

    makespan_cycles: int
    executions: list[TxExecution]
    num_pus: int
    pu_busy_cycles: list[int] = field(default_factory=list)
    redundancy_hit_ratio: float = 0.0
    rounds: int = 0  # synchronous driver only
    #: Spatio-temporal scheduler counters (admitted/commits/aborts/...).
    scheduler_stats: dict = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Mean busy fraction across PUs (paper Fig. 15)."""
        if not self.makespan_cycles or not self.num_pus:
            return 0.0
        busy = sum(self.pu_busy_cycles)
        return busy / (self.makespan_cycles * self.num_pus)

    @property
    def total_instructions(self) -> int:
        return sum(e.instructions for e in self.executions)

    def receipts_in_block_order(
        self, transactions: list[Transaction]
    ) -> list[Receipt]:
        by_index = {e.index: e.receipt for e in self.executions}
        return [by_index[index] for index in range(len(transactions))]

    def speedup_over(self, baseline: "ScheduleResult") -> float:
        if self.makespan_cycles == 0:
            return float("inf")
        return baseline.makespan_cycles / self.makespan_cycles


def run_sequential(
    executor: MTPUExecutor, transactions: list[Transaction]
) -> ScheduleResult:
    """Block-order execution on PU0 — the paper's 1× reference."""
    pu = executor.pus[0]
    makespan = 0
    for index in range(len(transactions)):
        execution = executor.time_on(pu, index)
        execution.start_cycle = makespan
        makespan += execution.cycles
        execution.end_cycle = makespan
    return ScheduleResult(
        makespan_cycles=makespan,
        executions=list(executor.executions),
        num_pus=1,
        pu_busy_cycles=[makespan],
    )


def run_synchronous(
    executor: MTPUExecutor,
    transactions: list[Transaction],
    edges: list[tuple[int, int]],
) -> ScheduleResult:
    """Barrier-round parallel execution.

    Each round grabs up to k ready transactions in block order and
    barriers on the slowest — the classic concurrency-control execution
    model the paper compares against.
    """
    dag = CompositeDAG(transactions, edges)
    pus = executor.pus
    makespan = 0
    rounds = 0
    busy = [0] * len(pus)
    while not dag.done:
        ready = dag.ready_transactions()[: len(pus)]
        if not ready:
            raise RuntimeError("synchronous driver stalled (cyclic DAG?)")
        round_cycles = 0
        for pu, tx_index in zip(pus, ready):
            dag.start(tx_index)
            execution = executor.time_on(pu, tx_index)
            execution.start_cycle = makespan
            execution.end_cycle = makespan + execution.cycles
            busy[pu.pu_id] += execution.cycles
            round_cycles = max(round_cycles, execution.cycles)
        for tx_index in ready:
            dag.complete(tx_index)
        makespan += round_cycles
        rounds += 1
    return ScheduleResult(
        makespan_cycles=makespan,
        executions=list(executor.executions),
        num_pus=len(pus),
        pu_busy_cycles=busy,
        rounds=rounds,
    )


#: Event kinds in the simulation heap.
_COMPLETE = 0
_RESUME = 1


def run_spatial_temporal(
    executor: MTPUExecutor,
    transactions: list[Transaction],
    edges: list[tuple[int, int]],
    window_size: int | None = None,
    selection_overhead: int = SELECTION_OVERHEAD_CYCLES,
    fault_injector=None,
    report=None,
) -> ScheduleResult:
    """Asynchronous execution under the spatio-temporal scheduler.

    When a :class:`~repro.faults.FaultInjector` is supplied, its PU
    faults are enacted: a PU that dies (or stalls past its timeout) has
    its in-flight transaction's timing dropped and the transaction
    re-enqueued on surviving PUs, its Scheduling-Table column cleared,
    and the lost cycles recorded into *report* (a
    :class:`~repro.faults.DegradationReport`).
    """
    dag = CompositeDAG(transactions, edges)
    scheduler = SpatialTemporalScheduler(
        dag, num_pus=len(executor.pus), window_size=window_size
    )
    pus = executor.pus
    busy = [0] * len(pus)

    pending_faults = {}
    if fault_injector is not None:
        pending_faults = dict(fault_injector.pu_faults(len(pus)))

    #: (time, sequence, kind, pu_id, tx_index) events.
    events: list[tuple[int, int, int, int, int]] = []
    sequence = 0
    now = 0
    idle = set(range(len(pus)))
    dead: set[int] = set()
    makespan = 0

    def record(counter: str, amount: int = 1) -> None:
        # DegradationReport.count also publishes to the faults.* metric
        # series — the report and the registry stay one source of truth.
        if report is not None:
            report.count(counter, amount)
            return
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults." + counter).inc(amount)

    while not dag.done:
        progressed = True
        while progressed:
            progressed = False
            for pu_id in sorted(idle):
                fault = pending_faults.get(pu_id)
                if fault is not None and fault.at_cycle <= now:
                    # The PU fails before it can pick up new work.
                    pending_faults.pop(pu_id)
                    idle.discard(pu_id)
                    scheduler.on_pu_dead(pu_id)
                    if fault.kind == PU_DEAD:
                        dead.add(pu_id)
                        record("pu_failures_detected")
                    else:
                        record("pu_stalls_detected")
                        record("recovery_cycles", fault.stall_cycles)
                        sequence += 1
                        heapq.heappush(events, (
                            max(now, fault.at_cycle + fault.stall_cycles),
                            sequence, _RESUME, pu_id, -1,
                        ))
                    progressed = True
                    continue
                outcome = scheduler.select(pu_id)
                if outcome is None:
                    continue
                scheduler.on_start(pu_id, outcome)
                execution = executor.time_on(pus[pu_id], outcome.tx_index)
                duration = execution.cycles + selection_overhead
                fault = pending_faults.get(pu_id)
                if fault is not None and fault.at_cycle < now + duration:
                    # The PU dies/stalls mid-execution: drop its timing
                    # and re-enqueue the transaction on the survivors.
                    pending_faults.pop(pu_id)
                    fail_at = max(now, fault.at_cycle)
                    executor.retract(execution)
                    scheduler.on_abort(pu_id, outcome.tx_index)
                    wasted = fail_at - now
                    busy[pu_id] += wasted
                    idle.discard(pu_id)
                    record("txs_rescheduled")
                    record("recovery_cycles", wasted)
                    if fault.kind == PU_DEAD:
                        dead.add(pu_id)
                        record("pu_failures_detected")
                    else:
                        record("pu_stalls_detected")
                        record("recovery_cycles", fault.stall_cycles)
                        sequence += 1
                        heapq.heappush(events, (
                            fail_at + fault.stall_cycles,
                            sequence, _RESUME, pu_id, -1,
                        ))
                    progressed = True
                    continue
                busy[pu_id] += duration
                execution.start_cycle = now
                execution.end_cycle = now + duration
                sequence += 1
                heapq.heappush(
                    events,
                    (now + duration, sequence, _COMPLETE, pu_id,
                     outcome.tx_index),
                )
                idle.discard(pu_id)
                progressed = True

        if not events:
            if not dag.done:
                if len(dead) == len(pus):
                    raise RuntimeError(
                        "all PUs failed; no survivors to finish the block "
                        f"({len(dag.completed)}/{len(dag)} done)"
                    )
                raise RuntimeError(
                    "spatial-temporal driver stalled "
                    f"({len(dag.completed)}/{len(dag)} done)"
                )
            break
        end_time, _, kind, pu_id, tx_index = heapq.heappop(events)
        now = max(now, end_time)
        if kind == _COMPLETE:
            makespan = max(makespan, now)
            scheduler.on_complete(pu_id, tx_index)
        idle.add(pu_id)

    return ScheduleResult(
        makespan_cycles=makespan,
        executions=list(executor.executions),
        num_pus=len(pus),
        pu_busy_cycles=busy,
        redundancy_hit_ratio=scheduler.redundancy_hit_ratio,
        scheduler_stats=scheduler.stats(),
    )
