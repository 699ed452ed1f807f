"""Execution contexts: block environment, messages, call results.

These are the inputs/outputs the MTPU's execution-environment buffer holds
(paper section 3.3.6): "the input (initial state, block information, and
contract invocation information) and the output (updated state and
generated receipt information) of the transaction".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..chain.receipt import LogEntry


def _no_blockhash(height: int) -> int:
    """Default BLOCKHASH service: no ancestors known."""
    return 0


@dataclass(frozen=True)
class BlockContext:
    """Block-level attributes visible to fixed-access instructions."""

    height: int = 1
    timestamp: int = 1_600_000_000
    coinbase: int = 0xC0FFEE
    difficulty: int = 1
    gas_limit: int = 30_000_000
    #: BLOCKHASH service: maps height -> 256-bit hash value.
    blockhash_fn: Callable[[int], int] = _no_blockhash

    @classmethod
    def of_header(cls, header, blockhash_fn=_no_blockhash) -> "BlockContext":
        """A block executes in the environment its header
        (:class:`~repro.chain.block.BlockHeader`) declares, plus the
        executing node's BLOCKHASH service."""
        return cls(
            height=header.height,
            timestamp=header.timestamp,
            coinbase=header.coinbase,
            difficulty=header.difficulty,
            gas_limit=header.gas_limit,
            blockhash_fn=blockhash_fn,
        )


class CallKind:
    """Message-call flavors (paper Table 3, context-switching unit)."""

    CALL = "CALL"
    CALLCODE = "CALLCODE"
    DELEGATECALL = "DELEGATECALL"
    STATICCALL = "STATICCALL"
    CREATE = "CREATE"
    CREATE2 = "CREATE2"


@dataclass
class Message:
    """One entry of the Call_Contract Stack: a single contract invocation."""

    caller: int
    to: int  # storage/context address of the frame
    value: int
    data: bytes
    gas: int
    code_address: int  # where the executed bytecode lives
    origin: int = 0
    gas_price: int = 1
    depth: int = 0
    is_static: bool = False
    kind: str = CallKind.CALL
    create_code: bytes = b""  # init code for CREATE/CREATE2


@dataclass
class CallResult:
    """Outcome of one message call frame."""

    success: bool
    output: bytes = b""
    gas_used: int = 0
    gas_left: int = 0
    logs: list[LogEntry] = field(default_factory=list)
    error: str = ""
    created_address: int | None = None
    refund: int = 0  # accumulated SSTORE-clear refund of the frame
