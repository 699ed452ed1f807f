"""Static bytecode utilities: decoding and jump-destination analysis.

The MTPU fill unit (paper section 3.3.3) consumes *decoded bytecodes*;
this module is the shared decoder used by the interpreter, the fill unit,
the disassembler and the hotspot chunker.
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


def instruction_at(code: bytes, pc: int) -> Instruction:
    """Decode the single instruction at *pc*."""
    invalid = opcodes.BY_NAME["INVALID"]
    if pc >= len(code):
        return Instruction(pc, opcodes.BY_NAME["STOP"])
    info = opcodes.info(code[pc])
    if info is None:
        return Instruction(pc, invalid)
    immediate = None
    if info.immediate_size:
        raw = code[pc + 1 : pc + 1 + info.immediate_size]
        raw = raw + b"\x00" * (info.immediate_size - len(raw))
        immediate = int.from_bytes(raw, "big")
    return Instruction(pc, info, immediate)


def valid_jumpdests(code: bytes) -> frozenset[int]:
    """Byte offsets that are legal JUMP/JUMPI targets.

    A target is valid only if it holds a JUMPDEST opcode *outside* any
    PUSH immediate. Execution reads the set off the code's
    :class:`~repro.evm.decoded.DecodedProgram`, which the decode cache
    keeps, so this runs once per cached code blob.
    """
    found: set[int] = set()
    pc = 0
    length = len(code)
    infos = opcodes.INFO_BY_BYTE
    while pc < length:
        byte = code[pc]
        if byte == 0x5B:
            found.add(pc)
        info = infos[byte]
        pc += 1 + (info.immediate_size if info is not None else 0)
    return frozenset(found)
