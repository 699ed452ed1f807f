"""An accelerated validator: the full co-design in one adoptable object.

Wires every subsystem into the node lifecycle the paper describes:

* transactions arrive into the mempool (**dissemination**), gated by the
  mempool's admission checks;
* between blocks, the :class:`~repro.core.hotspot.tracker.HotspotTracker`
  picks the current hotspots and the optimizer (re)profiles them within
  the :class:`~repro.chain.node.StageClock`'s idle budget (**the idle
  time slice**, paper section 2.2.4);
* incoming blocks execute on a k-PU MTPU under spatio-temporal
  scheduling, with pre-execution eligibility decided by the mempool's
  actual dissemination history (**execution**), and the result is
  verified against the block's claimed receipts digest.

Unlike the paper's trusting pipeline, :meth:`AcceleratedValidator.validate`
treats every block as adversarial: the embedded DAG is verified (and
rebuilt locally on mismatch) before scheduling, the whole block runs
against a journal snapshot so a failed verification commits nothing
(the node's rollback) and a verified one commits as any block does
(``Node.commit_block``), a receipts-root mismatch degrades to
sequential re-execution, and every fault seen / fallback taken is
counted in a per-block :class:`~repro.faults.DegradationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.block import Block
from ..chain.dag import DagVerification, checked_dag, discover_access_sets
from ..chain.mempool import AdmissionError
from ..chain.node import Node, StageClock
from ..chain.receipt import Receipt, receipts_root
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..evm.interpreter import EVM
from ..faults import DegradationReport
from ..obs import BlockPerfReport, get_registry, get_tracer
from .hotspot import HotspotOptimizer
from .hotspot.tracker import HotspotTracker
from .mtpu import MTPUExecutor, PUConfig
from .scheduler import ScheduleResult, run_spatial_temporal

#: Abstract profiling cost per sample transaction, in the StageClock's
#: time units — used to stay within the idle budget.
PROFILE_COST_PER_SAMPLE = 0.01


@dataclass
class ValidationOutcome:
    """Result of validating one block on the accelerated path."""

    block: Block
    receipts: list[Receipt]
    schedule: ScheduleResult
    verified: bool | None  # None when no claimed root was provided
    hotspots_optimized: list[int] = field(default_factory=list)
    #: False when the block was rejected (nothing committed).
    committed: bool = True
    #: Robustness counters for this block (faults seen, fallbacks taken).
    report: DegradationReport = field(default_factory=DegradationReport)
    #: Verdict on the block-embedded DAG (None when verification is off).
    dag_verification: DagVerification | None = None
    #: Per-block performance report, populated when a metrics registry is
    #: active (:func:`repro.obs.use_registry`); None otherwise.
    perf: BlockPerfReport | None = None

    @property
    def makespan_cycles(self) -> int:
        return self.schedule.makespan_cycles


class AcceleratedValidator:
    """A validating node whose execution stage runs on the MTPU."""

    def __init__(
        self,
        state: WorldState,
        num_pus: int = 4,
        pu_config: PUConfig | None = None,
        clock: StageClock | None = None,
        hotspot_top_k: int = 8,
        deployment=None,
        verify_dags: bool = True,
        mempool_capacity: int | None = None,
        fault_injector=None,
    ) -> None:
        self.node = Node(
            state=state, clock=clock or StageClock(),
            mempool_capacity=mempool_capacity,
        )
        self.num_pus = num_pus
        self.pu_config = pu_config or PUConfig()
        self.hotspot_top_k = hotspot_top_k
        self.tracker = HotspotTracker()
        self.optimizer = HotspotOptimizer(
            self.node.state, mempool=self.node.mempool,
            dissemination_cutoff=0,
        )
        #: Deployment handle for sampling hotspot contracts offline; when
        #: absent, profiling uses recently seen mempool transactions.
        self.deployment = deployment
        #: Distrust block-embedded DAGs: verify (and rebuild on mismatch)
        #: before scheduling. Costs one speculative pass per block.
        self.verify_dags = verify_dags
        #: Optional :class:`~repro.faults.FaultInjector` enacting PU
        #: faults inside this validator's MTPU (fault drills).
        self.fault_injector = fault_injector
        #: Lifetime sum of every per-block report.
        self.total_degradation = DegradationReport()
        self._optimized: set[int] = set()
        self._recent_by_contract: dict[int, list[Transaction]] = {}
        self._admission_rejections = 0

    # -- dissemination stage -------------------------------------------------
    def hear(self, tx: Transaction, at: int | None = None) -> bool:
        """Admit a disseminated transaction; False when it was refused.

        Admission failures (intrinsic-gas shortfall, unfunded value
        transfer, duplicate) are counted into the next block's
        :class:`~repro.faults.DegradationReport` rather than raised: a
        node on a hostile network drops garbage and moves on.
        """
        try:
            added = self.node.hear(tx, at=at)
        except AdmissionError:
            self._admission_rejections += 1
            return False
        if not added:
            self._admission_rejections += 1
            return False
        if tx.to is not None and tx.selector is not None:
            bucket = self._recent_by_contract.setdefault(tx.to, [])
            bucket.append(tx)
            del bucket[:-32]  # keep a bounded sample window
        return True

    # -- idle slice -----------------------------------------------------------
    def idle_slice(self) -> list[int]:
        """Run hotspot optimization within the clock's idle budget.

        Returns the contract addresses (re)profiled this interval.
        """
        budget = self.node.clock.idle_budget
        optimized: list[int] = []
        for address in self.tracker.current_hotspots(self.hotspot_top_k):
            if address in self._optimized:
                continue
            samples = self._samples_for(address)
            if not samples:
                continue
            cost = PROFILE_COST_PER_SAMPLE * len(samples)
            if cost > budget:
                break  # the slice is over; resume next interval
            budget -= cost
            self.optimizer.optimize_contract(address, samples)
            self._optimized.add(address)
            optimized.append(address)
        return optimized

    def _samples_for(self, address: int) -> list[Transaction]:
        if self.deployment is not None:
            deployed = self.deployment.by_address(address)
            if deployed is not None:
                from ..workload import all_entry_function_calls

                return all_entry_function_calls(
                    self.deployment, deployed.name, seed=address & 0xFFFF
                )
        return list(self._recent_by_contract.get(address, []))

    # -- consensus + execution stages ---------------------------------------------
    def propose_block(self, max_transactions: int = 200) -> Block:
        return self.node.propose_block(max_transactions)

    def execute_block(
        self, block: Block, claimed_root: bytes | None = None
    ) -> ValidationOutcome:
        """Alias of :meth:`validate` (the historical entry point)."""
        return self.validate(block, claimed_root)

    def validate(
        self, block: Block, claimed_root: bytes | None = None
    ) -> ValidationOutcome:
        """Execute a block on the MTPU, defensively, and advance the chain.

        Degradation paths, in order of engagement:

        1. the block-embedded DAG fails verification → rebuild locally;
        2. a PU dies/stalls mid-schedule → re-enqueue its work on the
           survivors (handled inside :func:`run_spatial_temporal`);
        3. the MTPU receipts root mismatches the claimed root → roll the
           block back and re-execute sequentially;
        4. sequential execution *also* mismatches → the claim is bogus:
           reject the block, committing nothing.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._validate(block, claimed_root)
        with tracer.span(
            "block.validate",
            height=block.header.height,
            txs=len(block.transactions),
        ) as span:
            outcome = self._validate(block, claimed_root)
            span.set(
                committed=outcome.committed,
                verified=outcome.verified,
                makespan_cycles=outcome.makespan_cycles,
            )
            return outcome

    def _validate(
        self, block: Block, claimed_root: bytes | None = None
    ) -> ValidationOutcome:
        report = DegradationReport()
        if self._admission_rejections:
            report.count(
                "admission_rejections", self._admission_rejections
            )
        self._admission_rejections = 0
        registry = get_registry()
        tracer = get_tracer()
        counters_before = (
            registry.counters_flat() if registry.enabled else None
        )

        # Everything heard before "now" was disseminated early enough to
        # pre-execute; the block's own arrival is the cutoff. Block
        # transactions the node never heard (the paper's 2-9% tail) are
        # simply absent from the mempool and not pre-executed.
        self.optimizer.dissemination_cutoff = self.node.mempool.clock
        context = self.node.block_context(block.header)
        self.optimizer.block = context

        edges = block.dag_edges
        dag_verdict: DagVerification | None = None
        artifacts: dict[bytes, object] = {}
        if self.verify_dags:
            with tracer.span("block.dag_verify") as dag_span:
                # trace=True: the speculative pass doubles as the block's
                # *only* functional execution — its artifacts (receipt,
                # trace, write journal) are replayed by the MTPU below
                # instead of re-running the EVM (execute-once pipeline).
                access = discover_access_sets(
                    block.transactions, self.node.state, context,
                    trace=True,
                )
                artifacts = {a.tx.hash(): a for a in access}
                edges, dag_verdict = checked_dag(
                    block.transactions, block.dag_edges, access
                )
                if not dag_verdict.ok:
                    report.count("dag_faults_detected")
                    report.count("dag_rebuilds")
                dag_span.set(ok=dag_verdict.ok)

        executor = MTPUExecutor(
            self.node.state, block=context, num_pus=self.num_pus,
            pu_config=self.pu_config,
            hotspot_optimizer=self.optimizer,
            artifacts=artifacts,
        )
        # The whole block runs against this snapshot so a failed
        # verification can roll everything back.
        executor.auto_clear_journal = False
        token = self.node.state.snapshot()
        stale_plans_before = self.optimizer.stale_plans_discarded

        with tracer.span("block.schedule") as sched_span:
            schedule = run_spatial_temporal(
                executor, block.transactions, edges,
                fault_injector=self.fault_injector, report=report,
            )
            sched_span.set(
                makespan_cycles=schedule.makespan_cycles,
                num_pus=schedule.num_pus,
            )
        receipts = schedule.receipts_in_block_order(block.transactions)
        if executor.stale_chunks_discarded:
            report.count(
                "stale_chunks_discarded", executor.stale_chunks_discarded
            )
        if executor.artifact_reexecutions:
            report.count(
                "artifact_reexecutions", executor.artifact_reexecutions
            )
        stale_plans = (
            self.optimizer.stale_plans_discarded - stale_plans_before
        )
        if stale_plans:
            report.count("stale_plans_discarded", stale_plans)
        # Contracts whose profiles went stale re-enter the optimization
        # queue for the next idle slice.
        self._optimized -= self.optimizer.take_stale_addresses()

        verified: bool | None = None
        committed = True
        if claimed_root is not None:
            verified = receipts_root(receipts) == claimed_root
            if not verified:
                report.count("root_mismatches")
                self.node.state.revert(token)
                report.count("sequential_fallbacks")
                sequential = self._execute_sequential(block, context)
                if receipts_root(sequential) == claimed_root:
                    # The MTPU result was wrong; the sequential path is
                    # authoritative and its state is already in place.
                    receipts = sequential
                    verified = True
                else:
                    # Even sequential execution disagrees: the claimed
                    # root itself is bogus. Commit nothing.
                    self.node.rollback_block(token)
                    report.count("blocks_rejected")
                    committed = False

        hotspots: list[int] = []
        if committed:
            # The node's one commit: witness, seal, WAL append when a
            # store is attached, chain, receipts, mempool. A sealed root
            # that does not reproduce raises out of it, rolled back.
            self.node.commit_block(block, receipts, token)
            self.tracker.observe_block(block.transactions)
            hotspots = self.idle_slice()
        self.total_degradation.merge(report)
        perf: BlockPerfReport | None = None
        if registry.enabled:
            perf = BlockPerfReport.from_execution(
                label=f"block@{block.header.height}",
                schedule=schedule,
                executor=executor,
                degradation=report,
                counters_before=counters_before,
            )
        return ValidationOutcome(
            block=block,
            receipts=receipts,
            schedule=schedule,
            verified=verified,
            hotspots_optimized=hotspots,
            committed=committed,
            report=report,
            dag_verification=dag_verdict,
            perf=perf,
        )

    def _execute_sequential(self, block: Block, context) -> list[Receipt]:
        """The degraded path: plain block-order re-execution."""
        evm = EVM(self.node.state, block=context)
        return [evm.execute_transaction(tx) for tx in block.transactions]

    # -- passthroughs --------------------------------------------------------------
    @property
    def state(self) -> WorldState:
        return self.node.state

    @property
    def chain(self) -> list[Block]:
        return self.node.chain
