"""The bytecode decoder.

The MTPU fill unit (paper section 3.3.3) consumes *decoded bytecodes*.
Everything that runs or models a contract reads them off the code's one
:class:`~repro.evm.decoded.DecodedProgram`, which calls :func:`decode`;
the only other callers are the static readers that never execute code:
the disassembler and the Table 6 instruction-mix analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import opcodes
from .opcodes import OpcodeInfo


@dataclass(frozen=True)
class Instruction:
    """One statically decoded instruction."""

    pc: int
    op: OpcodeInfo
    immediate: int | None = None  # PUSH payload

    @property
    def size(self) -> int:
        """Encoded size in bytes (1 + immediate bytes)."""
        return 1 + self.op.immediate_size

    @property
    def next_pc(self) -> int:
        """PC of the fall-through successor."""
        return self.pc + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        if self.immediate is not None:
            return f"{self.pc:#06x}: {self.op.name} {self.immediate:#x}"
        return f"{self.pc:#06x}: {self.op.name}"


def decode(code: bytes) -> list[Instruction]:
    """Linearly decode a code blob into instructions.

    Bytes that are not defined opcodes decode as INVALID; PUSH immediates
    that run past the end of code are zero-padded (EVM semantics).
    """
    instructions: list[Instruction] = []
    pc = 0
    invalid = opcodes.BY_NAME["INVALID"]
    while pc < len(code):
        info = opcodes.info(code[pc])
        if info is None:
            instructions.append(Instruction(pc, invalid))
            pc += 1
            continue
        immediate = None
        if info.immediate_size:
            raw = code[pc + 1 : pc + 1 + info.immediate_size]
            raw = raw + b"\x00" * (info.immediate_size - len(raw))
            immediate = int.from_bytes(raw, "big")
        instructions.append(Instruction(pc, info, immediate))
        pc += 1 + info.immediate_size
    return instructions
