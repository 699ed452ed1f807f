"""Processing-unit timing model: replaying traces through the pipeline.

A PU owns a DB cache and a Call_Contract Stack; it times a transaction by
walking its dataflow trace (from the functional EVM) and charging cycles
according to :class:`~repro.core.mtpu.timing.TimingConfig`:

* **Baseline path** (no DB cache, or a miss): each instruction pays
  issue + operand-fetch + unit latency + memory stalls — the sequential
  six-stage pipeline of paper Fig. 8(a), fully serialized by stack
  dependencies.
* **Hit path**: a DB-cache line issues all its instructions in one slot;
  the line's cost is ``1 + max(unit latency) + max(memory stall)`` and the
  line's summed gas is deducted once (the G field).

On a miss the fill unit constructs the line *off the critical path* (the
covered instructions run at baseline cost) and inserts it, so subsequent
redundant transactions on the same PU hit it — the paper's reuse effect
(section 3.3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ...evm.decoded import DECODE_CACHE
from ...evm.opcodes import Category
from ...evm.tracer import TraceStep
from ...obs import get_registry
from .db_cache import DBCache
from .fill_unit import DBCacheLine, FillConfig, build_line
from .memory import CallContractStack, ContextLoadModel, StateBuffer
from .timing import TimingConfig

#: Sentinel slots for non-storage state accesses in the state buffer.
_BALANCE_SLOT = -1
_CODE_SLOT = -2


@dataclass
class PUConfig:
    """Per-PU feature switches (the paper's Fig. 12 ablation axes)."""

    enable_db_cache: bool = True  # F&D: fill unit + DB cache
    enable_forwarding: bool = True  # DF: data forwarding
    enable_folding: bool = True  # IF: instruction folding
    perfect_cache: bool = False  # Fig. 12 upper bound: 100% hit rate
    cache_entries: int = 2048
    #: Redundancy optimization (paper Fig. 16a): keep the DB cache and the
    #: Call_Contract Stack warm across transactions on the same PU. When
    #: False (the Fig. 14 configurations), both are flushed per
    #: transaction, so each transaction pays its own fills and context
    #: loads.
    redundancy_reuse: bool = True
    #: Per-functional-unit line fields; None uses the fill unit's default
    #: (see fill_unit.DEFAULT_UNIT_CAPACITY). An empty dict models the
    #: paper's literal one-field-per-unit lines.
    unit_capacity: dict | None = None
    timing: TimingConfig = field(default_factory=TimingConfig)

    def fill_config(self) -> FillConfig:
        if self.unit_capacity is not None:
            return FillConfig(
                folding=self.enable_folding,
                forwarding=self.enable_forwarding,
                unit_capacity=dict(self.unit_capacity),
            )
        return FillConfig(
            folding=self.enable_folding,
            forwarding=self.enable_forwarding,
        )


@dataclass
class TraceTiming:
    """Cycle accounting for one timed trace."""

    cycles: int = 0
    instructions: int = 0  # executed original instructions
    issue_slots: int = 0  # lines + single issues
    line_hits: int = 0
    line_instructions: int = 0  # instructions issued from hit lines
    stall_cycles: int = 0  # memory-stall share of cycles
    prefetch_hits: int = 0  # accesses served by hotspot prefetch

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class PU:
    """One processing unit of the MTPU."""

    def __init__(
        self,
        pu_id: int,
        config: PUConfig,
        state_buffer: StateBuffer,
        code_lookup: Callable[[int], bytes],
    ) -> None:
        self.pu_id = pu_id
        self.config = config
        self.timing = config.timing
        self.state_buffer = state_buffer
        self.code_lookup = code_lookup
        self.db_cache = DBCache(config.cache_entries, pu_id=pu_id)
        self.call_stack = CallContractStack(
            config.timing.call_contract_stack_bytes
        )
        self.context_model = ContextLoadModel(config.timing)
        #: code address -> what the fill unit packs lines from.
        self._decoded: dict = {}
        #: Contract currently (last) executed — scheduler redundancy hint.
        self.current_contract: int | None = None
        self.busy_until: float = 0.0
        self.busy_cycles: int = 0
        self.transactions_executed: int = 0
        #: Per-trace accumulators (reset by :meth:`time_trace`).
        self._stall_cycles = 0
        self._prefetch_hits = 0

    # -- what the fill unit reads ---------------------------------------------
    def code_index(self, code_address: int):
        """The decoded code the fill unit packs *code_address*'s lines
        from: the code's :data:`~repro.evm.decoded.DECODE_CACHE` program,
        fetched on this PU's first line there, or the hotspot view
        installed since."""
        decoded = self._decoded.get(code_address)
        if decoded is None:
            decoded = DECODE_CACHE.get(self.code_lookup(code_address))
            self._decoded[code_address] = decoded
        return decoded

    def install_code_view(self, code_address: int, view) -> None:
        """Replace the decoded code with a hotspot view (the optimized
        instruction stream).

        Lines built from the previous one are dropped: a line whose pcs
        include eliminated instructions would never match an optimized
        trace again and would otherwise pin its slot forever.
        """
        if self._decoded.get(code_address) is view:
            return
        self._decoded[code_address] = view
        self.db_cache.invalidate_code(code_address)

    # -- memory stalls ----------------------------------------------------------
    def _memory_stall(
        self,
        step: TraceStep,
        prefetched: Callable[[TraceStep], bool] | None,
    ) -> int:
        timing = self.timing
        name = step.op.name
        if name == "SLOAD":
            if prefetched is not None and prefetched(step):
                self._prefetch_hits += 1
                return timing.prefetched_latency
            warm = self.state_buffer.access(
                step.extra.get("address", 0), step.extra.get("slot", 0)
            )
            return (
                timing.state_buffer_latency
                if warm
                else timing.main_memory_latency
            )
        if name == "SSTORE":
            self.state_buffer.warm(
                step.extra.get("address", 0), step.extra.get("slot", 0)
            )
            return timing.sstore_latency
        if step.op.category is Category.STATE_QUERY:
            if prefetched is not None and prefetched(step):
                self._prefetch_hits += 1
                return timing.prefetched_latency
            slot = _BALANCE_SLOT if name == "BALANCE" else _CODE_SLOT
            warm = self.state_buffer.access(
                step.extra.get("address", 0), slot
            )
            return (
                timing.state_buffer_latency
                if warm
                else timing.main_memory_latency
            )
        if step.op.category is Category.SHA:
            words = (step.extra.get("length", 0) + 31) // 32
            return timing.sha3_base + timing.sha3_per_word * words
        if step.op.category is Category.CONTEXT:
            stall = timing.call_overhead
            target = step.extra.get("target")
            if target is not None:
                code_size = len(self.code_lookup(target))
                loaded = self.call_stack.load(target, code_size)
                stall += timing.context_load_cycles(loaded)
            return stall
        if name.startswith("LOG"):
            return timing.log_latency
        return 0

    def _baseline_step_cycles(
        self,
        step: TraceStep,
        prefetched: Callable[[TraceStep], bool] | None,
    ) -> int:
        timing = self.timing
        cost = timing.issue_cycles
        if step.op.pops > 0:
            cost += timing.operand_fetch_cycles
        cost += timing.unit_extra(step.op.category, step.op.name)
        stall = self._memory_stall(step, prefetched)
        self._stall_cycles += stall
        return cost + stall

    # -- trace timing ------------------------------------------------------------
    def time_trace(
        self,
        steps: list[TraceStep],
        prefetched: Callable[[TraceStep], bool] | None = None,
        skip: set[int] | None = None,
    ) -> TraceTiming:
        """Cycle-count a trace through this PU's pipeline.

        *skip* contains trace indices removed by hotspot optimization
        (pre-executed chunks, constant-eliminated stack feeders); they
        cost nothing and are invisible to line matching.
        """
        timing_result = TraceTiming()
        config = self.config
        fill_config = config.fill_config()
        if skip:
            steps = [s for s in steps if s.index not in skip]
        timing_result.instructions = len(steps)
        self._stall_cycles = 0
        self._prefetch_hits = 0

        i = 0
        n = len(steps)
        while i < n:
            step = steps[i]
            if not config.enable_db_cache:
                timing_result.cycles += self._baseline_step_cycles(
                    step, prefetched
                )
                timing_result.issue_slots += 1
                i += 1
                continue

            line, hit = self._find_line(step, fill_config)
            covered = (
                self._match_line(line, steps, i) if (line and hit) else 0
            )
            if covered:
                # Hit: the whole line issues in one slot.
                cost = self.timing.issue_cycles
                max_unit = 0
                max_stall = 0
                for covered_step in steps[i : i + covered]:
                    max_unit = max(
                        max_unit,
                        self.timing.unit_extra(
                            covered_step.op.category, covered_step.op.name
                        ),
                    )
                    max_stall = max(
                        max_stall,
                        self._memory_stall(covered_step, prefetched),
                    )
                cost += max_unit + max_stall
                self._stall_cycles += max_stall
                timing_result.cycles += cost
                timing_result.issue_slots += 1
                timing_result.line_hits += 1
                timing_result.line_instructions += covered
                i += covered
            else:
                # Miss: run the covered span at baseline cost while the
                # fill unit builds the line off the critical path.
                span = len(line.pcs) if line else 1
                span = min(span, n - i)
                span = self._contiguous_span(line, steps, i, span)
                for covered_step in steps[i : i + span]:
                    timing_result.cycles += self._baseline_step_cycles(
                        covered_step, prefetched
                    )
                    timing_result.issue_slots += 1
                if line is not None and not config.perfect_cache:
                    self.db_cache.insert(line)
                i += span
        timing_result.stall_cycles = self._stall_cycles
        timing_result.prefetch_hits = self._prefetch_hits
        registry = get_registry()
        if registry.enabled:
            self._emit_trace_metrics(registry, timing_result)
        return timing_result

    def _emit_trace_metrics(
        self, registry, timing_result: TraceTiming
    ) -> None:
        """Publish one timed trace's aggregates as pu.* counters."""
        labels = {"pu": str(self.pu_id)}
        registry.counter("pu.traces", **labels).inc()
        registry.counter("pu.instructions", **labels).inc(
            timing_result.instructions
        )
        registry.counter("pu.cycles", **labels).inc(timing_result.cycles)
        registry.counter("pu.issue_slots", **labels).inc(
            timing_result.issue_slots
        )
        registry.counter("pu.line_hits", **labels).inc(
            timing_result.line_hits
        )
        registry.counter("pu.line_instructions", **labels).inc(
            timing_result.line_instructions
        )
        registry.counter("pu.stall_cycles", **labels).inc(
            timing_result.stall_cycles
        )
        registry.counter("pu.prefetch_hits", **labels).inc(
            timing_result.prefetch_hits
        )

    def _find_line(
        self, step: TraceStep, fill_config: FillConfig
    ) -> tuple[DBCacheLine | None, bool]:
        """(line, hit). On a miss the returned line is the one the fill
        unit just constructed (for insertion), not a usable hit."""
        if self.config.perfect_cache:
            # Upper-bound mode: every cacheable line is present.
            line = self.db_cache.peek(step.code_address, step.pc)
            if line is None:
                line = build_line(
                    step.code_address, self.code_index(step.code_address),
                    step.pc, fill_config,
                )
                if line is not None and line.cacheable:
                    self.db_cache.insert(line)
            if line is not None and line.cacheable:
                self.db_cache.note_hit()
                return line, True
            self.db_cache.note_miss()
            return line, False

        line = self.db_cache.lookup(step.code_address, step.pc)
        if line is not None:
            return line, True
        # Miss: fill unit constructs the candidate line.
        return (
            build_line(
                step.code_address, self.code_index(step.code_address),
                step.pc, fill_config,
            ),
            False,
        )

    @staticmethod
    def _match_line(
        line: DBCacheLine | None, steps: list[TraceStep], i: int
    ) -> int:
        """Steps covered if the trace follows the line exactly, else 0."""
        if line is None or not line.cacheable:
            return 0
        pcs = line.pcs
        if i + len(pcs) > len(steps):
            return 0
        for offset, pc in enumerate(pcs):
            step = steps[i + offset]
            if step.pc != pc or step.code_address != line.code_address:
                return 0
        return len(pcs)

    @staticmethod
    def _contiguous_span(
        line: DBCacheLine | None,
        steps: list[TraceStep],
        i: int,
        span: int,
    ) -> int:
        """Clamp a miss span to trace steps matching the line's pcs."""
        if line is None:
            return 1
        pcs = line.pcs
        count = 0
        for offset in range(min(span, len(pcs))):
            if i + offset >= len(steps):
                break
            step = steps[i + offset]
            if (
                step.pc != pcs[offset]
                or step.code_address != line.code_address
            ):
                break
            count += 1
        return max(count, 1)

    # -- per-transaction context ----------------------------------------------------
    def context_setup_cycles(
        self,
        contract_address: int,
        calldata_bytes: int,
        on_path_fraction: float = 1.0,
    ) -> int:
        """Cycles to build the execution context for a transaction."""
        code_size = len(self.code_lookup(contract_address))
        resident = self.call_stack.resident(contract_address)
        if not resident:
            self.call_stack.load(contract_address, code_size)
        return self.context_model.cycles(
            calldata_bytes=calldata_bytes,
            bytecode_bytes=code_size,
            bytecode_resident=resident,
            on_path_fraction=on_path_fraction,
        )
