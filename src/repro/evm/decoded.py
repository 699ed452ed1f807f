"""The instruction set, stated once, and the two loops that run it.

The paper's ILP layer decodes raw bytecode once, caches the decoded
lines and issues a line as one unit; its hotspot *Check* chunk settles
attribute checks once so that *Execute* runs unchecked (sections
3.3.3–3.4). :mod:`repro.core.mtpu` models that in *timing*. This module
is the *functional* analogue, and the only place in the tree that says
what an opcode pops, charges and does. A code blob is decoded, once per
distinct content, into a :class:`DecodedProgram`: one entry per
instruction (PUSH immediates pre-extracted) and its jump destinations,
read off the same pass. Its ``Instruction`` stream is a second, lazy
phase for the readers that model the code rather than run it.

Each opcode is stated once: as a *template* (``_TEMPLATES`` — PUSH and
POP, the :mod:`~repro.evm.alu` word functions, the environment reads,
CALLDATALOAD, MLOAD/MSTORE/MSTORE8, SHA3, SLOAD, JUMP/JUMPI/JUMPDEST; DUP
and SWAP are shapes of the compiler's stack model), or as an ``_h_*``
handler (every other opcode). A template is source text, compiled two
ways:

* *alone*, with the checks of one instruction in their order, into the
  ``(evm, frame, entry) -> next_pc`` function its entries hold — the form
  a handler has, and what :func:`run_observed` and a block's fallback
  dispatch;
* *inlined* into a basic block.

``EVM._run`` hands a frame and its program to one of two loops:

* :func:`run_program` — under a ``NullTracer``: one call per basic
  block. A block starts where control lands (pc 0, a JUMPDEST, the
  fall-through of a JUMPI, the return from a call) and ends with JUMP,
  JUMPI, a halt, a call or create, the next JUMPDEST or the end of code.
  On first entry it is compiled into one Python function that

  - checks the stack once: the depth must cover every operand the block
    reads and leave room for every word it pushes; if it does not, the
    block runs one entry at a time, so the first failure raises what it
    would have;
  - keeps operands in locals, PUSH immediates as literals, and writes
    the stack back before it calls a handler or exits;
  - settles static gas in groups, before every point that could observe
    it: a state read (SLOAD, every handler), memory growth (MLOAD,
    MSTORE, MSTORE8, SHA3), EXP's dynamic charge, GAS, and the exit. An
    OutOfGas can therefore move only across instructions nothing
    observes, and the frame it aborts burns all its gas either way.

  Every request is served by it.
* :func:`run_observed` — under a :class:`~repro.evm.tracer.Tracer`: the
  entries one at a time, with a ``TraceStep`` read off the stack, the
  shadow stack and the gas meter around each call. Tracing is an
  observation of the statement that serves, not a second statement.

The two agree bit for bit — receipts, gas, logs, state digest, access
sets, read values and, crucially, the exception *class* of the first
failure (receipts carry ``type(exc).__name__``)
(``tests/evm/test_decoded_equivalence.py`` sweeps it). Generated source
holds template text, compiler-made names and the integers the compiler
formats (immediates, pcs, gas, stack bounds); never bytes of code or
call data. A program's blocks hang off it, so ``DECODE_CACHE``'s LRU
bounds them too.

Cache coherence: programs are keyed strictly by code *content* (bytes; a
content hash is attached for introspection), never by address. SELFDESTRUCT
followed by CREATE/CREATE2 redeploying different code at the same address
therefore cannot alias — different bytes are a different key — and
redeploying identical code is a (correct) cache hit.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import NamedTuple

from ..chain.receipt import LogEntry
from ..crypto import ADDRESS_MASK, keccak256, keccak256_int
from ..obs import get_registry
from . import opcodes
from .alu import _ARITH_FN, _LOGIC_FN
from .code import Instruction, decode
from .context import CallKind, Message
from .errors import (
    ExceptionalHalt,
    InvalidJump,
    InvalidOpcode,
    Revert,
    StackOverflow,
    StackUnderflow,
    WriteInStaticContext,
)
from .stack import MAX_DEPTH, WORD_MASK
from .tracer import TraceStep

#: Default LRU bound of the process-wide program cache.
DEFAULT_CACHE_PROGRAMS = 4096


class _Halt(Exception):
    """Internal: normal frame termination inside either loop."""


# ---------------------------------------------------------------------------
# Handler functions
#
# ``handler(evm, frame, entry) -> next_pc``; an entry is a tuple whose
# first element is the handler. Entries reference ``frame.stack._items``
# directly. The order of each handler's checks (operands before gas where
# it pops) decides which exception class a failing transaction's receipt
# names.
# ---------------------------------------------------------------------------


def _h_copy(evm, frame, e):
    # (h, next_pc, opcode_byte, gas) — CALLDATACOPY / CODECOPY /
    # RETURNDATACOPY
    items = frame.stack._items
    if len(items) < 3:
        raise StackUnderflow(f"pop 3 from stack of depth {len(items)}")
    dest = items.pop()
    src = items.pop()
    length = items.pop()
    frame.gas.consume(
        e[3]
        + evm.schedule.copy_word * ((length + 31) // 32)
        + evm._charge_memory(frame, dest, length)
    )
    which = e[2]
    if which == 0x37:
        blob = frame.msg.data
    elif which == 0x39:
        blob = frame.code
    else:
        if src + length > len(frame.return_data):
            raise ExceptionalHalt("RETURNDATACOPY out of bounds")
        blob = frame.return_data
    chunk = blob[src : src + length]
    if len(chunk) < length:
        chunk = chunk + b"\x00" * (length - len(chunk))
    frame.memory.write(dest, chunk)
    return e[1]


def _h_blockhash(evm, frame, e):
    # (h, next_pc, gas)
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    height = items.pop()
    frame.gas.consume(e[2])
    items.append(evm.block.blockhash_fn(height) & WORD_MASK)
    return e[1]


def _h_extq(evm, frame, e):
    # (h, next_pc, opcode_byte, gas) — BALANCE / EXTCODESIZE / EXTCODEHASH
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    address = items.pop() & ADDRESS_MASK
    frame.gas.consume(e[3])
    which = e[2]
    if which == 0x31:
        result = evm.state.get_balance(address)
    elif which == 0x3B:
        result = len(evm.state.get_code(address))
    else:
        code = evm.state.get_code(address)
        result = keccak256_int(code) if code else 0
    items.append(result & WORD_MASK)
    return e[1]


def _h_extcodecopy(evm, frame, e):
    # (h, next_pc, gas)
    items = frame.stack._items
    if len(items) < 4:
        raise StackUnderflow(f"pop 4 from stack of depth {len(items)}")
    address = items.pop() & ADDRESS_MASK
    dest = items.pop()
    src = items.pop()
    length = items.pop()
    frame.gas.consume(
        e[2]
        + evm.schedule.copy_word * ((length + 31) // 32)
        + evm._charge_memory(frame, dest, length)
    )
    blob = evm.state.get_code(address)
    chunk = blob[src : src + length]
    if len(chunk) < length:
        chunk = chunk + b"\x00" * (length - len(chunk))
    frame.memory.write(dest, chunk)
    return e[1]


def _h_log(evm, frame, e):
    # (h, next_pc, topic_count, gas)
    if frame.msg.is_static:
        raise WriteInStaticContext("LOG in static context")
    items = frame.stack._items
    topic_count = e[2]
    pops = 2 + topic_count
    if len(items) < pops:
        raise StackUnderflow(f"pop {pops} from stack of depth {len(items)}")
    offset = items.pop()
    length = items.pop()
    topics = tuple(items.pop() for _ in range(topic_count))
    schedule = evm.schedule
    frame.gas.consume(
        e[3]
        + schedule.log_topic * topic_count
        + schedule.log_data_byte * length
        + evm._charge_memory(frame, offset, length)
    )
    data = frame.memory.read(offset, length)
    frame.logs.append(LogEntry(frame.msg.to, topics, data))
    return e[1]


def _h_sstore(evm, frame, e):
    # (h, next_pc)
    if frame.msg.is_static:
        raise WriteInStaticContext("SSTORE in static context")
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    slot = items.pop()
    value = items.pop()
    address = frame.msg.to
    old = evm.state.get_storage(address, slot)
    schedule = evm.schedule
    if old == 0 and value != 0:
        frame.gas.consume(schedule.sstore_set)
    else:
        frame.gas.consume(schedule.sstore_reset)
    if old != 0 and value == 0:
        frame.gas.add_refund(schedule.sstore_clear_refund)
    evm.state.set_storage(address, slot, value)
    return e[1]


def _h_stop(evm, frame, e):
    frame.output = b""
    raise _Halt


def _h_return(evm, frame, e):
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    offset = items.pop()
    length = items.pop()
    frame.gas.consume(evm._charge_memory(frame, offset, length))
    frame.output = frame.memory.read(offset, length)
    raise _Halt


def _h_revert(evm, frame, e):
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    offset = items.pop()
    length = items.pop()
    frame.gas.consume(evm._charge_memory(frame, offset, length))
    raise Revert(frame.memory.read(offset, length))


def _h_invalid(evm, frame, e):
    # (h, opcode_byte) — INVALID and undefined bytes
    raise InvalidOpcode(f"invalid opcode 0x{e[1]:02x}")


def _h_call(evm, frame, e):
    # (h, next_pc, opcode_byte, gas)
    items = frame.stack._items
    kind = e[2]
    with_value = kind in (0xF1, 0xF2)
    pops = 7 if with_value else 6
    if len(items) < pops:
        raise StackUnderflow(f"pop {pops} from stack of depth {len(items)}")
    gas_req = items.pop()
    to = items.pop() & ADDRESS_MASK
    value = items.pop() if with_value else 0
    in_off = items.pop()
    in_len = items.pop()
    out_off = items.pop()
    out_len = items.pop()
    msg = frame.msg

    if value and msg.is_static:
        raise WriteInStaticContext("value transfer in static context")

    schedule = evm.schedule
    gas_cost = e[3]
    if value:
        gas_cost += schedule.call_value_transfer
        if kind == 0xF1 and not evm.state.account_exists(to):
            gas_cost += schedule.call_new_account
    gas_cost += evm._charge_memory(frame, in_off, in_len)
    gas_cost += evm._charge_memory(frame, out_off, out_len)
    gas = frame.gas
    gas.consume(gas_cost)

    available = gas.remaining - gas.remaining // 64
    child_gas = gas_req if gas_req < available else available
    gas.consume(child_gas)
    if value:
        child_gas += schedule.call_stipend

    call_data = frame.memory.read(in_off, in_len)
    if kind == 0xF1:
        child = Message(
            caller=msg.to, to=to, value=value, data=call_data,
            gas=child_gas, code_address=to, origin=msg.origin,
            gas_price=msg.gas_price, depth=msg.depth + 1,
            is_static=msg.is_static, kind=CallKind.CALL,
        )
    elif kind == 0xF2:
        child = Message(
            caller=msg.to, to=msg.to, value=value, data=call_data,
            gas=child_gas, code_address=to, origin=msg.origin,
            gas_price=msg.gas_price, depth=msg.depth + 1,
            is_static=msg.is_static, kind=CallKind.CALLCODE,
        )
    elif kind == 0xF4:
        child = Message(
            caller=msg.caller, to=msg.to, value=msg.value, data=call_data,
            gas=child_gas, code_address=to, origin=msg.origin,
            gas_price=msg.gas_price, depth=msg.depth + 1,
            is_static=msg.is_static, kind=CallKind.DELEGATECALL,
        )
    else:
        child = Message(
            caller=msg.to, to=to, value=0, data=call_data,
            gas=child_gas, code_address=to, origin=msg.origin,
            gas_price=msg.gas_price, depth=msg.depth + 1,
            is_static=True, kind=CallKind.STATICCALL,
        )

    result = evm.call(child)
    gas.return_gas(result.gas_left)
    if result.success:
        gas.refund += result.refund
        frame.logs.extend(result.logs)
    frame.return_data = result.output
    if out_len and result.output:
        frame.memory.write(out_off, result.output[:out_len])
    items.append(1 if result.success else 0)
    return e[1]


def _h_create(evm, frame, e):
    # (h, next_pc, is_create2, gas)
    msg = frame.msg
    if msg.is_static:
        raise WriteInStaticContext("CREATE in static context")
    items = frame.stack._items
    is_create2 = e[2]
    pops = 4 if is_create2 else 3
    if len(items) < pops:
        raise StackUnderflow(f"pop {pops} from stack of depth {len(items)}")
    value = items.pop()
    offset = items.pop()
    length = items.pop()
    salt = items.pop() if is_create2 else 0
    gas = frame.gas
    gas.consume(e[3] + evm._charge_memory(frame, offset, length))
    init_code = frame.memory.read(offset, length)

    available = gas.remaining - gas.remaining // 64
    gas.consume(available)

    child = Message(
        caller=msg.to, to=0, value=value, data=b"",
        gas=available, code_address=0, origin=msg.origin,
        gas_price=msg.gas_price, depth=msg.depth + 1,
        kind=CallKind.CREATE2 if is_create2 else CallKind.CREATE,
        create_code=init_code,
    )
    if is_create2:
        child.value_salt = salt  # type: ignore[attr-defined]

    result = evm.call(child)
    gas.return_gas(result.gas_left)
    if result.success:
        gas.refund += result.refund
        frame.logs.extend(result.logs)
        items.append(result.created_address or 0)
    else:
        items.append(0)
    frame.return_data = result.output if not result.success else b""
    return e[1]


def _h_selfdestruct(evm, frame, e):
    # (h, gas)
    if frame.msg.is_static:
        raise WriteInStaticContext("SELFDESTRUCT in static context")
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    beneficiary = items.pop() & ADDRESS_MASK
    frame.gas.consume(e[1])
    state = evm.state
    me = frame.msg.to
    balance = state.get_balance(me)
    if balance:
        state.set_balance(beneficiary, state.get_balance(beneficiary) + balance)
    state.set_balance(me, 0)
    state.delete_account(me)
    frame.output = b""
    raise _Halt


#: CALL, CALLCODE, DELEGATECALL, STATICCALL, CREATE, CREATE2: each ends
#: a block, and the observed loop records its step ahead of the callee's.
_CALLS = frozenset({0xF0, 0xF1, 0xF2, 0xF4, 0xF5, 0xFA})


# ---------------------------------------------------------------------------
# Templates
#
# A template states one opcode as source text over the names a compiled
# function binds: ``evm``, ``frame``, ``items`` (the operand stack's
# list), ``gas``, ``mem``, ``msg`` and ``jumpdests`` (the frame's). In
# it, ``{0}``..``{2}`` are the popped operands, stack top first, ``{imm}``
# the instruction's immediate (a PUSH's word, PC's own pc) and ``{next}``
# its fall-through pc.
#
# ``charge`` places the opcode's gas where something observes it: ``""``
# charges the static gas alone, any other text is a dynamic charge added
# to it; either way, inside a block, every static charge still pending
# goes with it. ``None``: nothing observes it — a block defers it, and a
# lone instruction charges it in its check order (before its stack
# checks if it only pushes or is a DUP or SWAP, after them otherwise).
# ---------------------------------------------------------------------------


class _Template(NamedTuple):
    pops: int
    result: str | None = None  # the pushed word
    charge: str | None = None
    body: tuple[str, ...] = ()  # runs after the charge, before the push


_WORD_FN = {**_ARITH_FN, **_LOGIC_FN}
_MEMORY = "evm._charge_memory(frame, {0}, %d)"

_TEMPLATES: dict[int, _Template] = {
    0x0A: _Template(  # EXP
        2, "EXP({0}, {1})",
        "evm.schedule.exp_byte * ((({1}).bit_length() + 7) // 8)",
    ),
    0x20: _Template(  # SHA3
        2, "keccak256_int(mem.read({0}, {1}))",
        "evm.schedule.sha3_word * (({1} + 31) // 32)"
        " + evm._charge_memory(frame, {0}, {1})",
    ),
    0x35: _Template(  # CALLDATALOAD
        1, 'int.from_bytes(msg.data[{0}:{0} + 32].ljust(32, b"\\x00"), "big")',
    ),
    0x50: _Template(1),  # POP
    0x51: _Template(1, "mem.read_word({0})", _MEMORY % 32),  # MLOAD
    0x52: _Template(2, None, _MEMORY % 32, ("mem.write_word({0}, {1})",)),
    0x53: _Template(2, None, _MEMORY % 1, ("mem.write_byte({0}, {1})",)),
    0x54: _Template(  # SLOAD
        1, "evm.state.get_storage(msg.to, {0}) & WORD_MASK", "",
    ),
    0x56: _Template(1, None, "", (  # JUMP
        "if {0} not in jumpdests:",
        "    raise InvalidJump('jump to %#x' % {0})",
        "return {0}",
    )),
    0x57: _Template(2, None, "", (  # JUMPI
        "if {1}:",
        "    if {0} not in jumpdests:",
        "        raise InvalidJump('jumpi to %#x' % {0})",
        "    return {0}",
        "return {next}",
    )),
    0x58: _Template(0, "{imm}"),  # PC
    0x5A: _Template(0, "gas.remaining", ""),  # GAS
    0x5B: _Template(0),  # JUMPDEST
}
for _name in _WORD_FN:
    _info = opcodes.BY_NAME[_name]
    if _info.value not in _TEMPLATES:
        _args = ", ".join("{%d}" % i for i in range(_info.pops))
        _TEMPLATES[_info.value] = _Template(_info.pops, f"{_name}({_args})")
for _value, _read in {
    0x30: "msg.to",  # ADDRESS
    0x32: "msg.origin",
    0x33: "msg.caller",
    0x34: "msg.value",
    0x36: "len(msg.data)",
    0x38: "len(frame.code)",
    0x3A: "msg.gas_price",
    0x3D: "len(frame.return_data)",
    0x41: "evm.block.coinbase",
    0x42: "evm.block.timestamp",
    0x43: "evm.block.height",
    0x44: "evm.block.difficulty",
    0x45: "evm.block.gas_limit",
    0x59: "mem.size_words * 32",  # MSIZE
}.items():
    _TEMPLATES[_value] = _Template(0, f"({_read}) & WORD_MASK")
for _value in range(0x60, 0x80):  # PUSH1..PUSH32
    _TEMPLATES[_value] = _Template(0, "{imm}")


def _overflow(word):
    """The StackOverflow of a push that found no room, carrying the word
    it would have pushed (the observed loop records it)."""
    exc = StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    exc.word = word
    return exc


def _stepwise(evm, frame, entries, pcs):
    """Run a block's instructions one entry at a time: its entry check
    failed, so each must check its own operands in its own order."""
    for pc in pcs:
        e = entries[pc]
        next_pc = e[0](evm, frame, e)
    return next_pc


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _Compiler:
    """Source for a run of instructions, over a model of the operand
    stack's top: ``stack`` holds an expression per modeled word, bottom
    first — a literal, a temporary ``t<n>``, or ``r<j>``, the word *j*-th
    from the top when the run last wrote the stack back — and
    ``pending`` the static gas no statement has charged yet."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.stack: list[str] = []
        self.depth = 0  # real words the model covers
        self.unread: set[str] = set()  # r<j> not yet read into its local
        self.pending = 0
        self.temps = 0

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def reach(self, n: int) -> None:
        """Model at least the top *n* words."""
        while len(self.stack) < n:
            self.depth += 1
            word = f"r{self.depth}"
            self.stack.insert(0, word)
            self.unread.add(word)

    def read(self, word: str) -> str:
        """*word*, read into its local first if it is still on the stack."""
        if word in self.unread:
            self.unread.discard(word)
            self.emit(f"{word} = items[-{word[1:]}]")
        return word

    def pop(self) -> str:
        self.reach(1)
        return self.read(self.stack.pop())

    def settle(self, dynamic: str = "") -> None:
        """Charge the pending static gas, plus *dynamic*."""
        parts = [str(self.pending)] if self.pending else []
        if dynamic:
            parts.append(dynamic)
        if parts:
            self.emit(f"gas.consume({' + '.join(parts)})")
        self.pending = 0

    def write_back(self) -> None:
        """Store the model to the real stack; the model restarts empty."""
        stack, depth = self.stack, self.depth
        moved = [
            i for i, word in enumerate(stack)
            if i >= depth or word != f"r{depth - i}"
        ]
        if len(stack) == depth:  # same height: rewrite what moved
            words = [self.read(stack[i]) for i in moved]
            for i, word in zip(moved, words):
                self.emit(f"items[-{depth - i}] = {word}")
        else:  # rewrite from the lowest word that moved up
            low = moved[0] if moved else len(stack)
            drop = depth - low
            words = [self.read(word) for word in stack[low:]]
            if drop and words:
                self.emit(f"items[-{drop}:] = ({', '.join(words)},)")
            elif drop:
                self.emit(f"del items[-{drop}:]")
            elif len(words) == 1:
                self.emit(f"items.append({words[0]})")
            else:
                self.emit(f"items.extend(({', '.join(words)},))")
        self.stack, self.depth, self.unread = [], 0, set()

    def apply(self, value: int, imm: str | None, nxt: str) -> bool:
        """Inline one templated instruction; True when it ended the run
        (its template returns)."""
        stack = self.stack
        if 0x80 <= value <= 0x8F:  # DUPn
            n = value - 0x7F
            self.reach(n)
            stack.append(stack[-n])
            return False
        if 0x90 <= value <= 0x9F:  # SWAPn
            n = value - 0x8F
            self.reach(n + 1)
            stack[-1], stack[-1 - n] = stack[-1 - n], stack[-1]
            return False
        t = _TEMPLATES[value]
        if t.result is None and t.charge is None:  # POP, JUMPDEST
            self.reach(t.pops)
            del stack[len(stack) - t.pops:]
            return False
        args = [self.pop() for _ in range(t.pops)]
        exits = bool(t.body) and t.body[-1].startswith("return")
        if exits:
            self.write_back()
        if t.charge is not None:
            self.settle(t.charge.format(*args))
        for line in t.body:
            self.emit(line.format(*args, next=nxt))
        if t.result == "{imm}":
            self.stack.append(imm)
        elif t.result is not None:
            self.temps += 1
            word = f"t{self.temps}"
            self.emit(f"{word} = {t.result.format(*args)}")
            self.stack.append(word)
        return exits


#: The locals a compiled function binds, each only if its source names it.
_LOCALS = (
    ("items", "items = frame.stack._items"),
    ("gas", "gas = frame.gas"),
    ("mem", "mem = frame.memory"),
    ("msg", "msg = frame.msg"),
    ("jumpdests", "jumpdests = frame.jumpdests"),
)


def _function(name: str, params: str, lines: list[str]) -> str:
    text = "\n".join(lines)
    head = [f"def {name}({params}):"]
    for local, binding in _LOCALS:
        if re.search(rf"\b{local}\b", text):
            head.append("    " + binding)
    return "\n".join(head + ["    " + line for line in lines]) + "\n"


#: What compiled source names besides its locals.
_GLOBALS = {
    **_WORD_FN,
    "InvalidJump": InvalidJump,
    "MAX_DEPTH": MAX_DEPTH,
    "StackUnderflow": StackUnderflow,
    "WORD_MASK": WORD_MASK,
    "_overflow": _overflow,
    "_stepwise": _stepwise,
    "keccak256_int": keccak256_int,
}


def _lone_source(info) -> str:
    """One templated instruction alone, as ``def lone(evm, frame, e)``:
    its checks in their order."""
    value = info.value
    t = _TEMPLATES.get(value)
    pops = info.pops
    gas_first = pops == 0 or 0x80 <= value <= 0x9F  # DUPn / SWAPn
    c = _Compiler()
    c.pending = info.gas
    if gas_first and (t is None or t.charge is None):
        c.settle()
    if pops:
        c.emit(f"if len(items) < {pops}:")
        c.emit(
            f"    raise StackUnderflow('pop {pops} from stack of depth %d'"
            " % len(items))"
        )
    if not gas_first and t.charge is None:
        c.settle()
    exits = c.apply(value, "e[2]", "e[1]")
    if info.pushes > info.pops:
        word = c.read(c.stack[-1])
        c.emit("if len(items) >= MAX_DEPTH:")
        c.emit(f"    raise _overflow({word})")
    c.write_back()
    if not exits:
        c.emit("return e[1]")
    return _function("lone", "evm, frame, e", c.lines)


def _compile_lone() -> dict[int, object]:
    """opcode -> its lone function, for every templated opcode (opcodes
    whose source comes out the same, PUSH1..PUSH32, share one)."""
    names: dict[int, str] = {}
    sources: dict[str, str] = {}
    for info in opcodes.OPCODES.values():
        if info.value in _TEMPLATES or 0x80 <= info.value <= 0x9F:
            source = _lone_source(info)
            names[info.value] = sources.setdefault(
                source, f"lone_{info.name}"
            )
    namespace = dict(_GLOBALS)
    exec(compile("".join(
        source.replace("def lone(", f"def {name}(", 1)
        for source, name in sources.items()
    ), "<templates>", "exec"), namespace)
    return {value: namespace[name] for value, name in names.items()}


#: opcode -> the function one instruction of it runs alone.
_LONE = _compile_lone()


def _compile_block(program: DecodedProgram, start: int):
    """Compile the basic block entered at *start* (see the module
    docstring) and keep it on *program*."""
    code = program.code
    end = program.code_len
    entries = program.entries
    namespace = program.namespace
    if namespace is None:
        namespace = program.namespace = dict(_GLOBALS, entries=entries)
    c = _Compiler()
    pcs = []
    need = height = top = 0
    pc = start
    while True:
        value = code[pc]
        info = opcodes.INFO_BY_BYTE[value]
        pcs.append(pc)
        next_pc = pc + 1
        if info is not None:  # an opcode's pops is how deep it reads
            next_pc += info.immediate_size
            need = max(need, info.pops - height)
            height += info.pushes - info.pops
            top = max(top, height)
        entry = entries[pc]
        if value in _LONE:
            c.pending += info.gas
            imm = str(entry[2]) if len(entry) > 2 else None
            if c.apply(value, imm, str(next_pc)):
                break
        else:
            c.write_back()
            c.settle()
            namespace[f"e{pc}"] = entry
            call = f"e{pc}[0](evm, frame, e{pc})"
            if info is None or info.is_terminator or value in _CALLS:
                c.emit("return " + call)
                break
            c.emit(call)
        if next_pc >= end or code[next_pc] == 0x5B:
            c.write_back()
            c.settle()
            c.emit(f"return {next_pc}")
            break
        pc = next_pc
    guard = []
    if need > 0:
        guard.append(f"len(items) < {need}")
    if top > 0:
        guard.append(f"len(items) > {MAX_DEPTH - top}")
    lines = c.lines
    if guard:
        lines = [
            f"if {' or '.join(guard)}:",
            f"    return _stepwise(evm, frame, entries, {tuple(pcs)!r})",
        ] + lines
    name = f"block_{start}"
    exec(compile(
        _function(name, "evm, frame", lines), f"<block {start}>", "exec"
    ), namespace)
    block = program.blocks[start] = namespace.pop(name)
    registry = get_registry()
    if registry.enabled:
        registry.counter("evm.blocks_compiled").inc()
    return block


# ---------------------------------------------------------------------------
# The decode pass
# ---------------------------------------------------------------------------


class DecodedProgram:
    """One code blob, decoded: the only decoded form of it in the process.

    Built in phases, each for its readers:

    * ``entries`` and ``jumpdests``, eager, from one :func:`decode` pass
      (:func:`build_program`): what both loops run;
    * ``blocks``, each compiled the first time :func:`run_program` enters
      it;
    * ``instructions`` and ``index_of_pc``, one more pass on first ask:
      what models the code rather than runs it — :func:`run_observed`'s
      ``rows``, the MTPU fill unit, the hotspot optimizer's views and the
      profiler. The trace-free loop never asks, so a served process never
      holds them.
    """

    __slots__ = (
        "code", "code_hash", "code_len", "entries", "jumpdests", "blocks",
        "namespace", "rows", "_instructions", "_index_of_pc",
    )

    def __init__(self, code, entries, jumpdests):
        self.code = code
        self.code_hash = keccak256(code)
        self.code_len = len(code)
        #: pc -> ``(function, ...)``, the instruction alone: its lone
        #: template or its handler (``None`` inside PUSH immediates).
        self.entries = entries
        #: pcs of the JUMPDESTs outside PUSH immediates.
        self.jumpdests = jumpdests
        #: entry pc -> compiled block, filled in by :func:`run_program`.
        self.blocks: dict[int, object] = {}
        #: The globals this program's blocks share.
        self.namespace: dict | None = None
        #: pc -> (entry, Instruction, extra function) for
        #: :func:`run_observed`, built on the first observed run.
        self.rows: list[tuple | None] | None = None
        self._instructions: list[Instruction] | None = None
        self._index_of_pc: dict[int, int] | None = None

    @property
    def instructions(self) -> list[Instruction]:
        """The decoded instructions in pc order (decoded on first ask)."""
        if self._instructions is None:
            self._instructions = decode(self.code)
        return self._instructions

    @property
    def index_of_pc(self) -> dict[int, int]:
        """pc -> position in :attr:`instructions`."""
        if self._index_of_pc is None:
            self._index_of_pc = {
                ins.pc: i for i, ins in enumerate(self.instructions)
            }
        return self._index_of_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"<DecodedProgram {self.code_hash.hex()[:12]}… "
            f"{self.code_len} bytes, {len(self.blocks)} blocks compiled>"
        )


def _entry(ins):
    """The entry of one decoded instruction."""
    op = ins.op
    value = op.value
    npc = ins.next_pc
    lone = _LONE.get(value)
    if lone is not None:
        if 0x60 <= value <= 0x7F:
            return (lone, npc, ins.immediate)
        if value == 0x58:  # PC: the immediate *is* the value
            return (lone, npc, ins.pc)
        return (lone, npc)
    if value in (0x37, 0x39, 0x3E):
        return (_h_copy, npc, value, op.gas)
    if value == 0x40:
        return (_h_blockhash, npc, op.gas)
    if value in (0x31, 0x3B, 0x3F):
        return (_h_extq, npc, value, op.gas)
    if value == 0x3C:
        return (_h_extcodecopy, npc, op.gas)
    if value == 0x55:
        return (_h_sstore, npc)
    if 0xA0 <= value <= 0xA4:
        return (_h_log, npc, value - 0xA0, op.gas)
    if value in (0xF1, 0xF2, 0xF4, 0xFA):
        return (_h_call, npc, value, op.gas)
    if value in (0xF0, 0xF5):
        return (_h_create, npc, value == 0xF5, op.gas)
    if value == 0x00:
        return (_h_stop,)
    if value == 0xF3:
        return (_h_return,)
    if value == 0xFD:
        return (_h_revert,)
    if value == 0xFF:
        return (_h_selfdestruct, op.gas)
    return (_h_invalid, value)  # INVALID and undefined bytes


def build_program(code: bytes) -> DecodedProgram:
    """Decode *code* into a :class:`DecodedProgram` (no block compiles
    until the trace-free loop enters it)."""
    entries: list[tuple | None] = [None] * len(code)
    jumpdests = []
    for ins in decode(code):
        entries[ins.pc] = _entry(ins)
        if ins.op.value == 0x5B:
            jumpdests.append(ins.pc)
    return DecodedProgram(code, entries, frozenset(jumpdests))


# ---------------------------------------------------------------------------
# The trace-free execution loop
# ---------------------------------------------------------------------------


def run_program(evm, frame, program: DecodedProgram) -> None:
    """Execute *frame* one compiled basic block at a time, trace-free
    (the loop under a ``NullTracer``)."""
    frame.jumpdests = program.jumpdests
    blocks = program.blocks
    code_len = program.code_len
    pc = frame.pc
    try:
        while pc < code_len:
            block = blocks.get(pc)
            if block is None:
                block = _compile_block(program, pc)
            pc = block(evm, frame)
    except _Halt:
        pass
    frame.pc = pc
    frame.halted = True  # fell off the end: implicit STOP


# ---------------------------------------------------------------------------
# The observed loop: the same entries, one instruction at a time, with a
# TraceStep read off the stack and the gas meter around each call
# ---------------------------------------------------------------------------


def _storage_key(operands, msg):
    return {"address": msg.to, "slot": operands[0]}


def _queried_account(operands, msg):
    return {"address": operands[0] & ADDRESS_MASK}


def _call_target(operands, msg):
    return {"target": operands[1] & ADDRESS_MASK}


#: ``TraceStep.extra`` by opcode: the five keys anything reads — the MTPU
#: timing model (``core/mtpu/pu.py``: ``address`` + ``slot``, ``length``,
#: ``target``) and the hotspot chunker (``core/hotspot/chunking.py``:
#: ``taken``) — each a function of the operands and ``msg.to``.
_EXTRA = {
    0x54: _storage_key,  # SLOAD
    0x55: _storage_key,  # SSTORE
    0x31: _queried_account,  # BALANCE
    0x3B: _queried_account,  # EXTCODESIZE
    0x3C: _queried_account,  # EXTCODECOPY
    0x3F: _queried_account,  # EXTCODEHASH
    0x20: lambda operands, msg: {"length": operands[1]},  # SHA3
    0x56: lambda operands, msg: {"target": operands[0], "taken": True},
    0x57: lambda operands, msg: {
        "target": operands[0], "taken": operands[1] != 0,
    },
    0xF1: _call_target,
    0xF2: _call_target,
    0xF4: _call_target,
    0xFA: _call_target,
}


def run_observed(evm, frame, program: DecodedProgram) -> None:
    """Execute *frame* under ``evm.tracer``, one instruction at a time.

    Each step calls the instruction's entry — its lone template or its
    handler, what a block's fallback dispatches; what a
    :class:`TraceStep` holds is read from outside it — operands and their
    producers off the stack and ``frame.shadow`` before the call, the
    result and the gas meter's movement after it.

    A step is recorded when its entry returns, halts the frame, or
    raises ``Revert``, ``InvalidJump`` or ``StackOverflow``; any other
    exception leaves none. A call-family step is recorded before its
    handler runs and withdrawn if the handler refuses the call.
    """
    frame.jumpdests = program.jumpdests
    rows = program.rows
    if rows is None:
        rows = [None] * program.code_len
        for ins in program.instructions:
            rows[ins.pc] = (
                program.entries[ins.pc], ins, _EXTRA.get(ins.op.value)
            )
        program.rows = rows
    tracer = evm.tracer
    msg = frame.msg
    gas = frame.gas
    items = frame.stack._items
    shadow = frame.shadow  # producer step of each stack word, same length
    code_len = program.code_len
    pc = frame.pc
    while pc < code_len:
        e, ins, extra = rows[pc]
        op = ins.op
        value = op.value
        pops = op.pops
        is_dup = 0x80 <= value <= 0x8F
        is_swap = 0x90 <= value <= 0x9F
        # The call family: its step goes in ahead of the callee's.
        is_call = value in _CALLS
        step = None
        if len(items) >= pops:  # short of operands the entry refuses
            if is_dup:  # reads the n-th word
                operands, producers = (items[-pops],), (shadow[-pops],)
            elif is_swap:  # reads the top and the word n below it
                operands = (items[-1], items[-pops])
                producers = (shadow[-1], shadow[-pops])
            elif pops:
                operands = tuple(items[:-pops - 1:-1])  # stack top first
                producers = tuple(shadow[:-pops - 1:-1])
            else:
                operands = producers = ()
            step = TraceStep(
                index=tracer.next_index, pc=pc, op=op,
                immediate=ins.immediate, gas_cost=0, depth=msg.depth,
                code_address=msg.code_address, operands=operands,
                producers=producers,
                extra=extra(operands, msg) if extra else {},
            )
            if is_call:
                tracer.record(step)
        before = gas.consumed
        try:
            next_pc = e[0](evm, frame, e)
        except (_Halt, Revert, InvalidJump, StackOverflow) as stop:
            step.gas_cost = gas.consumed - before
            if isinstance(stop, StackOverflow):
                # The word never reached the stack: the push carried it.
                step.results = (stop.word,)
            tracer.record(step)
            if isinstance(stop, _Halt):
                break
            raise
        except ExceptionalHalt:
            if is_call and step is not None:
                tracer.withdraw(step)
            raise
        step.gas_cost = gas.consumed - before
        if is_dup:
            step.results = operands
            shadow.append(step.index)
        elif is_swap:
            shadow[-1], shadow[-pops] = producers[1], producers[0]
        else:
            if pops:
                del shadow[-pops:]
            if op.pushes:
                shadow.append(step.index)
                # A call's results stay (): the word it pushed is its
                # callee's verdict, with the call step as its producer.
                if not is_call:
                    step.results = (items[-1],)
        if not is_call:
            tracer.record(step)
        pc = next_pc
    frame.pc = pc
    frame.halted = True


# ---------------------------------------------------------------------------
# The process-wide program cache
# ---------------------------------------------------------------------------


class DecodeCache:
    """Content-keyed LRU of decoded programs (the software DB cache).

    Keys are the raw code bytes — content-addressed exactly like a code
    hash, never an address — so code mutation at a reused address
    (SELFDESTRUCT then CREATE/CREATE2) can never serve a stale program.
    One instance per process: a given contract is decoded once, not
    once per transaction. An evicted program takes its compiled blocks
    with it.
    """

    def __init__(self, max_programs: int = DEFAULT_CACHE_PROGRAMS) -> None:
        if max_programs < 1:
            raise ValueError(f"max_programs must be >= 1, got {max_programs}")
        self.max_programs = max_programs
        self._programs: OrderedDict[bytes, DecodedProgram] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, code: bytes) -> DecodedProgram:
        """The decoded program for *code* (decoding on first touch)."""
        programs = self._programs
        program = programs.get(code)
        if program is not None:
            programs.move_to_end(code)
            self.hits += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter("evm.decode_cache_hits").inc()
            return program
        program = build_program(code)
        self.misses += 1
        self._insert(code, program)
        registry = get_registry()
        if registry.enabled:
            registry.counter("evm.decode_cache_misses").inc()
        return program

    def warm(self, code: bytes) -> bool:
        """Pre-decode *code* (deploy/commit/startup warming). Returns
        True when the cache now holds a program for it."""
        if not code:
            return False
        self.get(code)
        return True

    def _insert(self, code: bytes, program: DecodedProgram) -> None:
        programs = self._programs
        programs[code] = program
        programs.move_to_end(code)
        while len(programs) > self.max_programs:
            programs.popitem(last=False)

    def clear(self) -> None:
        self._programs.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "programs": len(self._programs),
            "limit": self.max_programs,
        }


#: The per-process cache shared by every EVM instance.
DECODE_CACHE = DecodeCache()


def warm_code(code: bytes) -> bool:
    """Warm the process cache for one code blob."""
    return DECODE_CACHE.warm(code)


def warm_state_codes(state) -> int:
    """Warm the cache for every code-bearing account in *state*.

    Reads the account table directly (no access tracking, no journal);
    used at serve-builder construction and replica snapshot install.
    """
    warmed = 0
    for account in state._accounts.values():
        if account.code:
            DECODE_CACHE.warm(account.code)
            warmed += 1
    return warmed
