"""Pure arithmetic/logic word operations.

These functions implement the value semantics of the Arithmetic and Logic
functional units (paper Table 3) with no interpreter state: every input
and output is an unsigned 256-bit word. They are keyed by mnemonic
(:data:`_ARITH_FN` / :data:`_LOGIC_FN`); :mod:`repro.evm.decoded`
pre-binds them into program entries at decode time — including
constant-folding them entirely when every operand is statically known.
"""

from __future__ import annotations

from .stack import WORD_MASK

SIGN_BIT = 1 << 255


def _to_signed(value: int) -> int:
    return value - (1 << 256) if value & SIGN_BIT else value


def _to_unsigned(value: int) -> int:
    return value & WORD_MASK


def _div(a: int, b: int) -> int:
    return 0 if b == 0 else a // b


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _to_signed(a), _to_signed(b)
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return _to_unsigned(quotient)


def _mod(a: int, b: int) -> int:
    return 0 if b == 0 else a % b


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _to_signed(a), _to_signed(b)
    remainder = abs(sa) % abs(sb)
    return _to_unsigned(-remainder if sa < 0 else remainder)


def _signextend(size_byte: int, value: int) -> int:
    if size_byte >= 31:
        return value
    bit = 8 * (size_byte + 1) - 1
    if value & (1 << bit):
        return value | (WORD_MASK ^ ((1 << (bit + 1)) - 1))
    return value & ((1 << (bit + 1)) - 1)


def _byte(position: int, value: int) -> int:
    if position >= 32:
        return 0
    return (value >> (8 * (31 - position))) & 0xFF


def _sar(shift: int, value: int) -> int:
    signed = _to_signed(value)
    if shift >= 256:
        return _to_unsigned(-1) if signed < 0 else 0
    return _to_unsigned(signed >> shift)


_ARITH_FN = {
    "ADD": lambda a, b: (a + b) & WORD_MASK,
    "MUL": lambda a, b: (a * b) & WORD_MASK,
    "SUB": lambda a, b: (a - b) & WORD_MASK,
    "DIV": _div,
    "SDIV": _sdiv,
    "MOD": _mod,
    "SMOD": _smod,
    "ADDMOD": lambda a, b, n: 0 if n == 0 else (a + b) % n,
    "MULMOD": lambda a, b, n: 0 if n == 0 else (a * b) % n,
    "EXP": lambda a, b: pow(a, b, 1 << 256),
    "SIGNEXTEND": _signextend,
}

_LOGIC_FN = {
    "LT": lambda a, b: 1 if a < b else 0,
    "GT": lambda a, b: 1 if a > b else 0,
    "SLT": lambda a, b: 1 if _to_signed(a) < _to_signed(b) else 0,
    "SGT": lambda a, b: 1 if _to_signed(a) > _to_signed(b) else 0,
    "EQ": lambda a, b: 1 if a == b else 0,
    "ISZERO": lambda a: 1 if a == 0 else 0,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ WORD_MASK,
    "BYTE": _byte,
    "SHL": lambda shift, value: 0 if shift >= 256 else (value << shift) & WORD_MASK,
    "SHR": lambda shift, value: 0 if shift >= 256 else value >> shift,
    "SAR": _sar,
}
