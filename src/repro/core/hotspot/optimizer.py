"""The hotspot optimizer: offline optimization in the block interval.

Ties the pieces together (paper section 3.4):

1. **Profile** hotspot contracts by tracing sample transactions in the
   idle slice (collecting execution information, section 3.4.1).
2. **Chunk** traces and pre-execute Compare/Check for transactions that
   were disseminated early (sections 3.4.1–3.4.2). Whether a transaction
   was heard in time is decided deterministically from its hash with
   probability ``known_fraction`` (the paper cites 91.45%–98.15%).
3. **Eliminate** constant stack instructions (Constants Table) and build
   the optimized decode views the fill unit packs lines from
   (section 3.4.3).
4. **Prefetch** dynamic accesses with fixed keys (section 3.4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ...chain.state import WorldState
from ...chain.transaction import Transaction
from ...evm.code import Instruction
from ...evm.context import BlockContext
from ...evm.decoded import DECODE_CACHE
from ...evm.interpreter import EVM
from ...evm.tracer import TraceStep, Tracer
from ...obs import count, timed
from .chunking import find_chunks
from .profiler import ContractTable, ExecutionProfile


class CodeView(NamedTuple):
    """A contract's instruction stream with its constant-eliminated
    instructions dropped: the code's own ``Instruction`` objects, which
    the fill unit packs more densely (their dependencies through the
    eliminated stack ops are gone — the Constants Table supplies the
    operands instead)."""

    instructions: list[Instruction]
    index_of_pc: dict[int, int]


@dataclass
class HotspotPlan:
    """Execution-time optimization plan for one (contract, selector)."""

    profile: ExecutionProfile
    eliminated_pcs: frozenset[tuple[int, int]]
    prefetch_pcs: frozenset[tuple[int, int]]
    on_path_fraction: float
    preexecute: bool  # was this transaction known before the block?

    def skip_indices(self, steps: list[TraceStep]) -> set[int]:
        """Trace steps that cost nothing at execution time.

        Pre-executed Compare/Check chunk steps (when the transaction was
        disseminated early) plus constant-eliminated stack instructions.
        """
        skip: set[int] = set()
        if self.preexecute:
            spans = find_chunks(steps, self.profile.address)
            if spans.preexec_end >= 0:
                skip.update(range(spans.preexec_end + 1))
        if self.eliminated_pcs:
            for step in steps:
                if (step.code_address, step.pc) in self.eliminated_pcs:
                    skip.add(step.index)
        return skip

    def prefetched_predicate(self) -> Callable[[TraceStep], bool]:
        prefetch = self.prefetch_pcs

        def predicate(step: TraceStep) -> bool:
            return (step.code_address, step.pc) in prefetch

        return predicate


class HotspotOptimizer:
    """Offline optimizer run in the idle slice of the block interval."""

    def __init__(
        self,
        state: WorldState,
        block: BlockContext | None = None,
        known_fraction: float = 0.95,
        enable_preexecution: bool = True,
        enable_elimination: bool = True,
        enable_prefetch: bool = True,
        enable_chunk_loading: bool = True,
        mempool=None,
        dissemination_cutoff: int | None = None,
    ) -> None:
        self.state = state
        self.block = block or BlockContext()
        self.known_fraction = known_fraction
        #: When a mempool is attached, pre-execution eligibility is the
        #: *actual* dissemination history (paper: a transaction can be
        #: pre-executed iff it was heard before the block arrived) rather
        #: than the known_fraction coin flip.
        self.mempool = mempool
        self.dissemination_cutoff = dissemination_cutoff
        self.enable_preexecution = enable_preexecution
        self.enable_elimination = enable_elimination
        self.enable_prefetch = enable_prefetch
        self.enable_chunk_loading = enable_chunk_loading
        self.contract_table = ContractTable()
        #: Contract-level eliminations merged over every profiled selector.
        self._eliminated_by_code: dict[int, set[tuple[int, int]]] = {}
        self._blocked_by_code: dict[int, set[tuple[int, int]]] = {}
        self._views: dict[int, CodeView] = {}
        self.hotspot_addresses: set[int] = set()
        #: Code bytes at profile time, for stale-profile detection: a
        #: contract upgraded after pre-execution invalidates its plans.
        self._profiled_code: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # Offline profiling (the idle time slice)
    # ------------------------------------------------------------------
    def _code_lookup(self, address: int) -> bytes:
        saved = self.state.access
        self.state.access = None
        try:
            return self.state.get_code(address)
        finally:
            self.state.access = saved

    @timed("hotspot.optimize_contract")
    def optimize_contract(
        self, address: int, sample_transactions: list[Transaction]
    ) -> list[ExecutionProfile]:
        """Profile a hotspot contract from sample transactions.

        Samples run on a scratch copy of the state — offline optimization
        must not mutate the chain.
        """
        scratch = self.state.copy()
        evm_state = scratch
        profiles: list[ExecutionProfile] = []
        for tx in sample_transactions:
            if tx.to != address or tx.selector is None:
                continue
            tracer = Tracer()
            evm = EVM(evm_state, block=self.block, tracer=tracer)
            receipt = evm.execute_transaction(tx)
            evm_state.clear_journal()
            if not receipt.success:
                continue
            profile = self.contract_table.record(
                address, tx.selector, tracer.steps, self._code_lookup
            )
            profiles.append(profile)
        self.hotspot_addresses.add(address)
        self._profiled_code[address] = self._code_lookup(address)
        self._rebuild_views(address)
        count("hotspot.contracts_optimized")
        count("hotspot.profiles_recorded", len(profiles))
        return profiles

    def invalidate_contract(self, address: int) -> None:
        """Forget a contract's profiles (stale-profile recovery path).

        Transactions to the contract run unoptimized until the tracker
        re-selects it and a fresh profile is taken in a later idle slice.
        """
        self.contract_table.evict_contract(address)
        self.hotspot_addresses.discard(address)
        self._profiled_code.pop(address, None)
        self._eliminated_by_code.pop(address, None)
        self._blocked_by_code.pop(address, None)
        self._views.pop(address, None)

    def _rebuild_views(self, address: int) -> None:
        """Merge per-selector eliminations and rebuild code views."""
        eliminated: dict[int, set[tuple[int, int]]] = {}
        blocked: dict[int, set[tuple[int, int]]] = {}
        for profile in self.contract_table.entries():
            if profile.address != address:
                continue
            for key in profile.analysis.eliminable_pcs:
                eliminated.setdefault(key[0], set()).add(key)
            for key in profile.analysis.blocked_pcs:
                blocked.setdefault(key[0], set()).add(key)
        for code_address, keys in eliminated.items():
            keys -= blocked.get(code_address, set())
            self._eliminated_by_code.setdefault(code_address, set()).update(
                keys
            )
            self._blocked_by_code.setdefault(code_address, set()).update(
                blocked.get(code_address, set())
            )
            self._eliminated_by_code[code_address] -= self._blocked_by_code[
                code_address
            ]
            self._build_view(code_address)

    def _build_view(self, code_address: int) -> None:
        if not self.enable_elimination:
            return
        eliminated = self._eliminated_by_code.get(code_address, set())
        program = DECODE_CACHE.get(self._code_lookup(code_address))
        filtered = [
            instr
            for instr in program.instructions
            if (code_address, instr.pc) not in eliminated
        ]
        self._views[code_address] = CodeView(
            filtered, {instr.pc: i for i, instr in enumerate(filtered)}
        )

    # ------------------------------------------------------------------
    # Execution-time queries
    # ------------------------------------------------------------------
    def code_view(self, code_address: int) -> CodeView | None:
        """Optimized decode view, when elimination produced one."""
        return self._views.get(code_address)

    def eliminated_for(self, tx: Transaction) -> frozenset:
        if not self.enable_elimination or tx.to is None:
            return frozenset()
        merged: set[tuple[int, int]] = set()
        for keys in self._eliminated_by_code.values():
            merged |= keys
        return frozenset(merged)

    def _known_before_block(self, tx: Transaction) -> bool:
        """Was this transaction disseminated before the block arrived?

        With an attached mempool this is the real answer; otherwise a
        deterministic coin flip from the transaction hash models the
        paper's 91.45%-98.15% dissemination coverage.
        """
        if self.mempool is not None and self.dissemination_cutoff is not None:
            return self.mempool.known_before(
                tx, self.dissemination_cutoff
            )
        digest = tx.hash()
        value = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return value < self.known_fraction

    def plan_for(self, tx: Transaction) -> HotspotPlan | None:
        """The optimization plan for a transaction, or None."""
        if tx.to is None or tx.to not in self.hotspot_addresses:
            return None
        selector = tx.selector
        if selector is None:
            return None
        recorded = self._profiled_code.get(tx.to)
        if recorded is not None and recorded != self._code_lookup(tx.to):
            # The contract changed after profiling: every plan derived
            # from the old code (chunk boundaries, eliminated PCs,
            # prefetch keys) is stale. Degrade to unoptimized execution;
            # evicted, the contract is profiled afresh in a later slice.
            count("hotspot.stale_plans")
            self.invalidate_contract(tx.to)
            return None
        profile = self.contract_table.get(tx.to, selector)
        if profile is None:
            return None
        eliminated = (
            self.eliminated_for(tx) if self.enable_elimination
            else frozenset()
        )
        prefetch = (
            frozenset(profile.analysis.prefetch_pcs)
            if self.enable_prefetch
            else frozenset()
        )
        fraction = (
            profile.on_path_fraction if self.enable_chunk_loading else 1.0
        )
        preexecute = (
            self.enable_preexecution and self._known_before_block(tx)
        )
        return HotspotPlan(
            profile=profile,
            eliminated_pcs=eliminated,
            prefetch_pcs=prefetch,
            on_path_fraction=fraction,
            preexecute=preexecute,
        )
