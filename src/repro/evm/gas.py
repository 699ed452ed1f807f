"""Gas accounting.

The paper's central consistency constraint (section 3.3.3) is that *every
transaction has exactly one deterministic gas consumption*: the Gas unit
checks the margin before each instruction, and speculative execution that
could burn gas on a wrong path is forbidden. The interpreter charges gas
through a :class:`GasMeter` so that the total is deterministic and
out-of-gas aborts atomically.

Static per-opcode charges live in :mod:`repro.evm.opcodes`; this module
adds the dynamic components (memory expansion, per-word hashing/copying,
SSTORE set/reset, EXP byte cost, LOG data, call/create surcharges) behind a
configurable :class:`GasSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfGas


@dataclass(frozen=True)
class GasSchedule:
    """Dynamic gas-cost coefficients (yellow-paper-style defaults)."""

    memory_word: int = 3  # linear memory expansion cost per word
    memory_quad_divisor: int = 512  # quadratic expansion divisor
    sha3_word: int = 6  # per 32-byte word hashed
    copy_word: int = 3  # per 32-byte word copied (CALLDATACOPY etc.)
    exp_byte: int = 50  # per byte of exponent
    log_data_byte: int = 8  # per byte of LOG payload
    log_topic: int = 375  # per LOG topic
    sstore_set: int = 20000  # zero -> non-zero
    sstore_reset: int = 5000  # non-zero -> any
    sstore_clear_refund: int = 15000  # non-zero -> zero refund
    call_value_transfer: int = 9000  # CALL with value > 0
    call_new_account: int = 25000  # CALL creating a fresh account
    call_stipend: int = 2300  # stipend passed to value-receiving callee
    tx_base: int = 21000  # intrinsic transaction cost
    tx_data_zero_byte: int = 4
    tx_data_nonzero_byte: int = 16
    code_deposit_byte: int = 200  # per byte of deployed code

    def memory_cost(self, words: int) -> int:
        """Total cost of a memory of *words* 32-byte words."""
        return self.memory_word * words + (words * words) // self.memory_quad_divisor

    def memory_expansion_cost(self, current_words: int, new_words: int) -> int:
        """Marginal cost of growing memory from current to new size."""
        if new_words <= current_words:
            return 0
        return self.memory_cost(new_words) - self.memory_cost(current_words)

    def intrinsic_gas(self, data: bytes, is_create: bool = False) -> int:
        """Intrinsic cost charged before a transaction starts executing."""
        zero_bytes = data.count(0)
        return (
            self.tx_base
            + (32000 if is_create else 0)
            + self.tx_data_nonzero_byte * (len(data) - zero_bytes)
            + self.tx_data_zero_byte * zero_bytes
        )


DEFAULT_SCHEDULE = GasSchedule()


class GasMeter:
    """Tracks the remaining gas of one execution frame.

    ``consume`` mirrors the paper's Gas unit: the margin is checked before
    the instruction executes, and a shortfall raises :class:`OutOfGas`.
    """

    __slots__ = ("remaining", "refund", "consumed")

    def __init__(self, limit: int) -> None:
        self.remaining = limit
        self.refund = 0
        self.consumed = 0

    def consume(self, amount: int, reason: str = "") -> None:
        """Deduct *amount* gas, raising :class:`OutOfGas` on shortfall."""
        if amount < 0:
            raise ValueError(f"negative gas amount {amount}")
        if amount > self.remaining:
            raise OutOfGas(
                f"out of gas: need {amount}, have {self.remaining}"
                + (f" ({reason})" if reason else "")
            )
        self.remaining -= amount
        self.consumed += amount

    def add_refund(self, amount: int) -> None:
        """Accumulate an SSTORE-clear refund (applied at transaction end)."""
        self.refund += amount

    def return_gas(self, amount: int) -> None:
        """Return unused gas from a completed child call frame."""
        if amount < 0:
            raise ValueError(f"negative gas return {amount}")
        self.remaining += amount
        self.consumed -= amount
