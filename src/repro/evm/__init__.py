"""EVM substrate: the smart-contract instruction set and a reference
sequential interpreter with dataflow tracing."""

from . import abi, decoded, opcodes
from .code import Instruction
from .context import BlockContext, CallKind, CallResult, Message
from .decoded import (
    DECODE_CACHE,
    DecodeCache,
    DecodedProgram,
    build_program,
    warm_code,
    warm_state_codes,
)
from .errors import (
    EVMError,
    ExceptionalHalt,
    InvalidJump,
    InvalidOpcode,
    OutOfGas,
    Revert,
    StackOverflow,
    StackUnderflow,
)
from .gas import DEFAULT_SCHEDULE, GasMeter, GasSchedule
from .interpreter import EVM
from .memory import Memory
from .opcodes import Category, OpcodeInfo
from .stack import Stack
from .tracer import CallRecord, NullTracer, Tracer, TraceStep

__all__ = [
    "abi",
    "decoded",
    "opcodes",
    "Instruction",
    "DECODE_CACHE",
    "DecodeCache",
    "DecodedProgram",
    "build_program",
    "warm_code",
    "warm_state_codes",
    "BlockContext",
    "CallKind",
    "CallResult",
    "Message",
    "EVMError",
    "ExceptionalHalt",
    "InvalidJump",
    "InvalidOpcode",
    "OutOfGas",
    "Revert",
    "StackOverflow",
    "StackUnderflow",
    "DEFAULT_SCHEDULE",
    "GasMeter",
    "GasSchedule",
    "EVM",
    "Memory",
    "Category",
    "OpcodeInfo",
    "Stack",
    "CallRecord",
    "NullTracer",
    "Tracer",
    "TraceStep",
]
