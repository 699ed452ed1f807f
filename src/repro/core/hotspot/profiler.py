"""Execution-information collection: the Contract Table (paper Fig. 10a).

"The execution path of hotspot contracts is persisted to the Contract
Table. Only transactions that call the same smart contract and have the
same entry function have almost completely overlapping execution paths,
so we use the contract address and function identifier as labels."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...evm.decoded import DECODE_CACHE
from ...evm.tracer import TraceStep
from .chunking import ChunkSpans, find_chunks, on_path_fraction, visited_code_bytes
from .constants import FrameAnalysis, analyze_trace


@dataclass
class ExecutionProfile:
    """One Contract Table entry: (contract address, function identifier)."""

    address: int
    selector: bytes
    samples: int = 0
    chunks: ChunkSpans = field(default_factory=ChunkSpans)
    #: PCs visited per code address (the contract itself plus callees).
    visited_pcs: dict[int, set[int]] = field(default_factory=dict)
    analysis: FrameAnalysis = field(default_factory=FrameAnalysis)
    on_path_fraction: float = 1.0

    @property
    def label(self) -> tuple[int, bytes]:
        return (self.address, self.selector)


class ContractTable:
    """Persisted execution information for hotspot contracts."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, bytes], ExecutionProfile] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, address: int, selector: bytes) -> ExecutionProfile | None:
        return self._entries.get((address, selector))

    def entries(self) -> list[ExecutionProfile]:
        return list(self._entries.values())

    def evict_contract(self, address: int) -> int:
        """Drop every profile of *address* (stale-profile recovery).

        Returns the number of entries removed.
        """
        labels = [
            label for label in self._entries if label[0] == address
        ]
        for label in labels:
            del self._entries[label]
        return len(labels)

    def record(
        self,
        address: int,
        selector: bytes,
        steps: list[TraceStep],
        code_lookup,
    ) -> ExecutionProfile:
        """Fold one sample trace into the profile for (address, selector)."""
        profile = self._entries.get((address, selector))
        if profile is None:
            profile = ExecutionProfile(address=address, selector=selector)
            self._entries[(address, selector)] = profile

        profile.samples += 1
        if profile.samples == 1:
            profile.chunks = find_chunks(steps, address)

        for code_address in {step.code_address for step in steps}:
            visited = profile.visited_pcs.setdefault(code_address, set())
            visited |= visited_code_bytes(steps, code_address)

        analysis = analyze_trace(steps)
        merged = profile.analysis
        merged.const_steps |= analysis.const_steps
        merged.fixed_steps |= analysis.fixed_steps
        merged.blocked_pcs |= analysis.blocked_pcs
        merged.eliminable_pcs |= analysis.eliminable_pcs
        merged.eliminable_pcs -= merged.blocked_pcs
        merged.unprefetchable_pcs |= analysis.unprefetchable_pcs
        merged.prefetch_pcs |= analysis.prefetch_pcs
        merged.prefetch_pcs -= merged.unprefetchable_pcs
        merged.constants.extend(analysis.constants)

        # Bytecode-loading fraction for the hotspot contract itself.
        code = code_lookup(address)
        sizes = {
            instr.pc: instr.size
            for instr in DECODE_CACHE.get(code).instructions
        }
        profile.on_path_fraction = on_path_fraction(
            profile.visited_pcs.get(address, set()), sizes, len(code)
        )
        return profile
