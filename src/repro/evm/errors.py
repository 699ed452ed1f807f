"""Exceptions raised by the EVM substrate.

The hierarchy mirrors the two classes of failure the paper's gas model
distinguishes: *exceptional halts* (consume all remaining gas, revert all
state changes of the frame) and *revert halts* (refund remaining gas,
revert state changes, return data).
"""

from __future__ import annotations


class EVMError(Exception):
    """Base class for all EVM execution errors."""


class ExceptionalHalt(EVMError):
    """An error that consumes all remaining gas in the current frame."""


class OutOfGas(ExceptionalHalt):
    """Gas check failed before executing an instruction (paper section 2.1)."""


class StackUnderflow(ExceptionalHalt):
    """An instruction popped more operands than the stack holds."""


class StackOverflow(ExceptionalHalt):
    """The operand stack exceeded its maximum depth of 1024."""


class InvalidJump(ExceptionalHalt):
    """A JUMP/JUMPI targeted a byte offset that is not a JUMPDEST."""


class InvalidOpcode(ExceptionalHalt):
    """An undefined opcode byte was fetched."""


class WriteInStaticContext(ExceptionalHalt):
    """A state-modifying instruction ran inside a STATICCALL frame."""


class Revert(EVMError):
    """Explicit REVERT: state changes are rolled back, remaining gas kept."""

    def __init__(self, data: bytes = b"") -> None:
        super().__init__("execution reverted")
        self.data = data
