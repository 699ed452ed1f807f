"""The instruction set, stated once, and the two loops that run it.

The paper's ILP layer decodes raw bytecode once, caches the decoded lines,
and folds hot instruction patterns inside the fill unit (sections 3.3.3 and
3.3.4); :mod:`repro.core.mtpu` models that in *timing*. This module is the
*functional* analogue, and the only place in the tree that says what an
opcode pops, charges and does: the ``_h_*`` handlers below. A code blob is
compiled, once per distinct content, into a :class:`DecodedProgram` — a
flat entry table indexed by pc where

* every PUSH immediate is pre-extracted,
* ``valid_jumpdests`` is precomputed (and statically resolved for fused
  ``PUSH+JUMP``/``PUSH+JUMPI``),
* hot patterns are fused into superinstruction entries mirroring
  :data:`repro.core.mtpu.folding.FOLDABLE_CONSUMERS` — ``PUSH+JUMP[I]``,
  ``PUSH+binop``, ``DUP+binop``, ``SWAP1+POP`` — and runs of
  constant-producing stack code are folded to a single constant push
  (the software form of the paper's §4 constant merging).

``EVM._run`` hands a frame and its program to one of two loops:

* :func:`run_program` — under a ``NullTracer``: the fused entries, no
  ``TraceStep``, no shadow stack. Every request is served by it.
* :func:`run_observed` — under a :class:`~repro.evm.tracer.Tracer`: the
  same handlers over the program's *unfused* entries, one instruction at
  a time, with a ``TraceStep`` read off the stack, the shadow stack and
  the gas meter around each handler call. Tracing is an observation of
  the handlers that serve, not a second statement of them.

The two agree *bit for bit* — receipts, gas, logs, state digest, and
crucially the exception *class* of the first failure (receipts carry
``type(exc).__name__``): for a plain entry by construction, for a fused
one because every fused handler stages its gas charges and stack-depth
checks in exactly the order the unfused instructions would
(``tests/evm/test_decoded_equivalence.py`` sweeps it).

Why fusing interior pcs is sound: jumps may only land on JUMPDEST, JUMPDEST
is never fused into a pattern's interior, and the fall-through into the
interior is consumed by the pattern itself — so interior pcs are
unreachable and need no entries.

Cache coherence: programs are keyed strictly by code *content* (bytes; a
content hash is attached for introspection), never by address. SELFDESTRUCT
followed by CREATE/CREATE2 redeploying different code at the same address
therefore cannot alias — different bytes are a different key — and
redeploying identical code is a (correct) cache hit.
"""

from __future__ import annotations

from collections import OrderedDict

from ..chain.receipt import LogEntry
from ..crypto import ADDRESS_MASK, keccak256, keccak256_int
from ..obs import get_registry
from . import opcodes
from .alu import _ARITH_FN, _LOGIC_FN
from .code import decode, valid_jumpdests
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

#: Fusion depth of the folding pass (instructions absorbed per
#: superinstruction). No deployed contract holds a constant chain longer
#: than 4; the bound is for hand-written code.
CHAIN_LIMIT = 64
#: Default LRU bound of the process-wide program cache.
DEFAULT_CACHE_PROGRAMS = 4096


class _Halt(Exception):
    """Internal: normal frame termination inside the fast loop."""


# ---------------------------------------------------------------------------
# Handler functions
#
# Each entry is a tuple whose first element is one of these functions;
# ``handler(evm, frame, entry) -> next_pc``. Entries reference
# ``frame.stack._items`` directly. The order of each handler's checks
# (operands before gas where it pops, gas before the overflow check where
# it only pushes) decides which exception class a failing transaction's
# receipt names; the fused handlers further down replay it.
# ---------------------------------------------------------------------------


def _h_push(evm, frame, e):
    # (h, next_pc, value)
    frame.gas.consume(3)
    items = frame.stack._items
    if len(items) >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    items.append(e[2])
    return e[1]


def _h_pop(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    items.pop()
    frame.gas.consume(2)
    return e[1]


def _h_dup(evm, frame, e):
    # (h, next_pc, n)
    frame.gas.consume(3)
    items = frame.stack._items
    n = e[2]
    depth = len(items)
    if depth < n:
        raise StackUnderflow(f"DUP{n} on stack of depth {depth}")
    if depth >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    items.append(items[-n])
    return e[1]


def _h_swap(evm, frame, e):
    # (h, next_pc, n)
    frame.gas.consume(3)
    items = frame.stack._items
    n = e[2]
    if len(items) < n + 1:
        raise StackUnderflow(f"SWAP{n} on stack of depth {len(items)}")
    items[-1], items[-1 - n] = items[-1 - n], items[-1]
    return e[1]


def _h_bin(evm, frame, e):
    # (h, next_pc, fn, gas)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    a = items.pop()
    frame.gas.consume(e[3])
    items[-1] = e[2](a, items[-1]) & WORD_MASK
    return e[1]


def _h_un(evm, frame, e):
    # (h, next_pc, fn, gas)
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    frame.gas.consume(e[3])
    items[-1] = e[2](items[-1]) & WORD_MASK
    return e[1]


def _h_tri(evm, frame, e):
    # (h, next_pc, fn, gas) — ADDMOD / MULMOD
    items = frame.stack._items
    if len(items) < 3:
        raise StackUnderflow(f"pop 3 from stack of depth {len(items)}")
    a = items.pop()
    b = items.pop()
    frame.gas.consume(e[3])
    items[-1] = e[2](a, b, items[-1]) & WORD_MASK
    return e[1]


def _h_exp(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    a = items.pop()
    b = items[-1]
    frame.gas.consume(
        _G_EXP + evm.schedule.exp_byte * ((b.bit_length() + 7) // 8)
    )
    items[-1] = pow(a, b, 1 << 256)
    return e[1]


def _h_sha3(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    offset = items.pop()
    length = items[-1]
    frame.gas.consume(
        _G_SHA3
        + evm.schedule.sha3_word * ((length + 31) // 32)
        + evm._charge_memory(frame, offset, length)
    )
    items[-1] = keccak256_int(frame.memory.read(offset, length))
    return e[1]


def _h_env0(evm, frame, e):
    # (h, next_pc, getter, gas) — 0-pop environment/context pushes
    frame.gas.consume(e[3])
    items = frame.stack._items
    if len(items) >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    items.append(e[2](evm, frame) & WORD_MASK)
    return e[1]


def _h_calldataload(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    offset = items.pop()
    frame.gas.consume(3)
    chunk = frame.msg.data[offset : offset + 32]
    if len(chunk) < 32:
        chunk = chunk + b"\x00" * (32 - len(chunk))
    items.append(int.from_bytes(chunk, "big"))
    return e[1]


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


def _h_mload(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    offset = items.pop()
    frame.gas.consume(3 + evm._charge_memory(frame, offset, 32))
    items.append(frame.memory.read_word(offset))
    return e[1]


def _h_mstore(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    offset = items.pop()
    value = items.pop()
    frame.gas.consume(3 + evm._charge_memory(frame, offset, 32))
    frame.memory.write_word(offset, value)
    return e[1]


def _h_mstore8(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    offset = items.pop()
    value = items.pop()
    frame.gas.consume(3 + evm._charge_memory(frame, offset, 1))
    frame.memory.write_byte(offset, value)
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


def _h_sload(evm, frame, e):
    # (h, next_pc, gas)
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    slot = items.pop()
    frame.gas.consume(e[2])
    items.append(evm.state.get_storage(frame.msg.to, slot) & WORD_MASK)
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


def _h_jump(evm, frame, e):
    # (h,) — dynamic target, validated against the precomputed set
    items = frame.stack._items
    if not items:
        raise StackUnderflow("pop from empty stack")
    target = items.pop()
    frame.gas.consume(8)
    if target not in frame.jumpdests:
        raise InvalidJump(f"jump to {target:#x}")
    return target


def _h_jumpi(evm, frame, e):
    # (h, next_pc)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"pop 2 from stack of depth {len(items)}")
    target = items.pop()
    condition = items.pop()
    frame.gas.consume(10)
    if condition:
        if target not in frame.jumpdests:
            raise InvalidJump(f"jumpi to {target:#x}")
        return target
    return e[1]


def _h_jumpdest(evm, frame, e):
    # (h, next_pc)
    frame.gas.consume(1)
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


# -- superinstruction handlers ----------------------------------------------
# Gas charges and depth checks are staged in per-instruction order so the
# first failure raises the same exception class the unfused sequence would
# (receipts record the class name).


def _h_push_jump(evm, frame, e):
    # (h, target, target_is_valid)
    frame.gas.consume(3)
    if len(frame.stack._items) >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    frame.gas.consume(8)
    if not e[2]:
        raise InvalidJump(f"jump to {e[1]:#x}")
    return e[1]


def _h_push_jumpi(evm, frame, e):
    # (h, next_pc, target, target_is_valid)
    frame.gas.consume(3)
    items = frame.stack._items
    depth = len(items)
    if depth >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    if depth < 1:
        raise StackUnderflow("pop 2 from stack of depth 1")
    condition = items.pop()
    frame.gas.consume(10)
    if condition:
        if not e[3]:
            raise InvalidJump(f"jumpi to {e[2]:#x}")
        return e[2]
    return e[1]


def _h_push_bin(evm, frame, e):
    # (h, next_pc, immediate, fn, gas) — PUSH x; BINOP  ≡  top = fn(x, top)
    frame.gas.consume(3)
    items = frame.stack._items
    depth = len(items)
    if depth >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    if depth < 1:
        raise StackUnderflow("pop 2 from stack of depth 1")
    frame.gas.consume(e[4])
    items[-1] = e[3](e[2], items[-1]) & WORD_MASK
    return e[1]


def _h_dup_bin(evm, frame, e):
    # (h, next_pc, n, fn, gas) — DUPn; BINOP  ≡  top = fn(x_n, top)
    frame.gas.consume(3)
    items = frame.stack._items
    n = e[2]
    depth = len(items)
    if depth < n:
        raise StackUnderflow(f"DUP{n} on stack of depth {depth}")
    if depth >= MAX_DEPTH:
        raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    frame.gas.consume(e[4])
    items[-1] = e[3](items[-n], items[-1]) & WORD_MASK
    return e[1]


def _h_swap1_pop(evm, frame, e):
    # (h, next_pc) — SWAP1; POP  ≡  delete the second-from-top word
    frame.gas.consume(3)
    items = frame.stack._items
    if len(items) < 2:
        raise StackUnderflow(f"SWAP1 on stack of depth {len(items)}")
    frame.gas.consume(2)
    del items[-2]
    return e[1]


def _h_const(evm, frame, e):
    # (h, next_pc, stages, values) — a folded constant chain. ``stages``
    # replays the original gas/overflow schedule: each (gas, threshold)
    # consumes then — when threshold is non-zero — raises StackOverflow iff
    # the *real* depth is >= threshold (threshold = MAX_DEPTH minus the
    # chain's virtual depth at that original instruction).
    gas = frame.gas
    items = frame.stack._items
    for amount, threshold in e[2]:
        gas.consume(amount)
        if threshold and len(items) >= threshold:
            raise StackOverflow(f"stack depth would exceed {MAX_DEPTH}")
    items.extend(e[3])
    return e[1]


# ---------------------------------------------------------------------------
# Decode-time tables
# ---------------------------------------------------------------------------

_G_EXP = opcodes.BY_NAME["EXP"].gas
_G_SHA3 = opcodes.BY_NAME["SHA3"].gas

#: Two-pop pure binops fusable behind a PUSH/DUP (EXP excluded: its gas
#: depends on the runtime exponent). Mirrors the arithmetic/logic rows of
#: the MTPU folding catalogue.
_BIN_FN: dict[int, object] = {}
for _name, _fn in {**_ARITH_FN, **_LOGIC_FN}.items():
    _info = opcodes.BY_NAME[_name]
    if _info.pops == 2 and _name != "EXP":
        _BIN_FN[_info.value] = _fn

_UN_FN = {
    opcodes.BY_NAME[name].value: fn
    for name, fn in _LOGIC_FN.items()
    if opcodes.BY_NAME[name].pops == 1
}

#: Pure stack ops eligible inside a constant chain. EXP is excluded even
#: with a constant exponent: its dynamic gas reads the runtime
#: ``GasSchedule``, which a decoded (schedule-agnostic) program must not
#: bake in.
_CHAIN_FN: dict[int, object] = dict(_BIN_FN)
_CHAIN_FN.update(_UN_FN)
_CHAIN_FN[opcodes.BY_NAME["ADDMOD"].value] = _ARITH_FN["ADDMOD"]
_CHAIN_FN[opcodes.BY_NAME["MULMOD"].value] = _ARITH_FN["MULMOD"]

_ENV_GETTERS = {
    0x30: lambda evm, frame: frame.msg.to,
    0x32: lambda evm, frame: frame.msg.origin,
    0x33: lambda evm, frame: frame.msg.caller,
    0x34: lambda evm, frame: frame.msg.value,
    0x36: lambda evm, frame: len(frame.msg.data),
    0x38: lambda evm, frame: len(frame.code),
    0x3A: lambda evm, frame: frame.msg.gas_price,
    0x3D: lambda evm, frame: len(frame.return_data),
    0x41: lambda evm, frame: evm.block.coinbase,
    0x42: lambda evm, frame: evm.block.timestamp,
    0x43: lambda evm, frame: evm.block.height,
    0x44: lambda evm, frame: evm.block.difficulty,
    0x45: lambda evm, frame: evm.block.gas_limit,
    0x59: lambda evm, frame: frame.memory.size_words * 32,
    0x5A: lambda evm, frame: frame.gas.remaining,
}


# ---------------------------------------------------------------------------
# The decode pass
# ---------------------------------------------------------------------------


class DecodedProgram:
    """One code blob compiled to a pc-indexed entry table."""

    __slots__ = (
        "code", "code_hash", "code_len", "entries", "jumpdests",
        "instruction_count", "fused_count", "folded_instructions",
        "unfused",
    )

    def __init__(self, code, code_hash, entries, jumpdests,
                 instruction_count, fused_count, folded_instructions):
        self.code = code
        self.code_hash = code_hash
        self.code_len = len(code)
        self.entries = entries
        self.jumpdests = jumpdests
        self.instruction_count = instruction_count
        self.fused_count = fused_count
        self.folded_instructions = folded_instructions
        #: pc -> (plain entry, Instruction, extra function) for
        #: :func:`run_observed`, built on the first observed run.
        self.unfused: list[tuple | None] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"<DecodedProgram {self.code_hash.hex()[:12]}… "
            f"{self.instruction_count} instrs, {self.fused_count} fused>"
        )


def _match_const_chain(instrs, start, jumpdests):
    """Fold a maximal run of constant-producing stack code at *start*.

    Simulates PUSH/DUP/SWAP/POP and pure arithmetic/logic over a virtual
    constant stack; every operand must come from within the chain. Returns
    ``(stages, values, length, next_pc)`` or None. A chain must absorb at
    least two instructions including one non-PUSH computation (plain PUSH
    runs are left for branch/binop pair fusion).
    """
    vstack: list[int] = []
    # (gas accumulated since the previous check, overflow threshold or 0);
    # merged so uncheckpointed charges collapse into one consume() without
    # moving any charge across a depth check.
    stages: list[tuple[int, int]] = []
    pending_gas = 0
    pure_ops = 0
    length = 0
    j = start
    n = len(instrs)
    while j < n and length < CHAIN_LIMIT:
        ins = instrs[j]
        value = ins.op.value
        if 0x60 <= value <= 0x7F:
            # Leave a PUSH that feeds a JUMP/JUMPI to branch fusion.
            if j + 1 < n and instrs[j + 1].op.value in (0x56, 0x57):
                break
            pending_gas += 3
            stages.append((pending_gas, MAX_DEPTH - len(vstack)))
            pending_gas = 0
            vstack.append((ins.immediate or 0) & WORD_MASK)
        elif 0x80 <= value <= 0x8F:
            k = value - 0x7F
            if k > len(vstack):
                break
            pending_gas += 3
            stages.append((pending_gas, MAX_DEPTH - len(vstack)))
            pending_gas = 0
            vstack.append(vstack[-k])
        elif 0x90 <= value <= 0x9F:
            k = value - 0x8F
            if k + 1 > len(vstack):
                break
            pending_gas += 3
            vstack[-1], vstack[-1 - k] = vstack[-1 - k], vstack[-1]
        elif value == 0x50:  # POP
            if not vstack:
                break
            pending_gas += 2
            vstack.pop()
        else:
            fn = _CHAIN_FN.get(value)
            if fn is None or ins.op.pops > len(vstack):
                break
            args = [vstack.pop() for _ in range(ins.op.pops)]
            pending_gas += ins.op.gas
            vstack.append(fn(*args) & WORD_MASK)
            pure_ops += 1
        length += 1
        j += 1
    if length < 2 or pure_ops == 0:
        return None
    if pending_gas:
        stages.append((pending_gas, 0))
    next_pc = instrs[j].pc if j < n else instrs[j - 1].next_pc
    return tuple(stages), tuple(vstack), length, next_pc


def _plain_entry(ins):
    """The unfused entry for one decoded instruction."""
    op = ins.op
    value = op.value
    npc = ins.next_pc
    if 0x60 <= value <= 0x7F:
        return (_h_push, npc, (ins.immediate or 0) & WORD_MASK)
    if 0x80 <= value <= 0x8F:
        return (_h_dup, npc, value - 0x7F)
    if 0x90 <= value <= 0x9F:
        return (_h_swap, npc, value - 0x8F)
    fn = _BIN_FN.get(value)
    if fn is not None:
        return (_h_bin, npc, fn, op.gas)
    fn = _UN_FN.get(value)
    if fn is not None:
        return (_h_un, npc, fn, op.gas)
    if value in (0x08, 0x09):
        return (_h_tri, npc, _ARITH_FN[op.name], op.gas)
    if value == 0x0A:
        return (_h_exp, npc)
    if value == 0x20:
        return (_h_sha3, npc)
    getter = _ENV_GETTERS.get(value)
    if getter is not None:
        return (_h_env0, npc, getter, op.gas)
    if value == 0x58:  # PC: the immediate *is* the value
        return (_h_env0, npc, (lambda evm, frame, _pc=ins.pc: _pc), op.gas)
    if value == 0x35:
        return (_h_calldataload, npc)
    if value in (0x37, 0x39, 0x3E):
        return (_h_copy, npc, value, op.gas)
    if value == 0x40:
        return (_h_blockhash, npc, op.gas)
    if value in (0x31, 0x3B, 0x3F):
        return (_h_extq, npc, value, op.gas)
    if value == 0x3C:
        return (_h_extcodecopy, npc, op.gas)
    if value == 0x50:
        return (_h_pop, npc)
    if value == 0x51:
        return (_h_mload, npc)
    if value == 0x52:
        return (_h_mstore, npc)
    if value == 0x53:
        return (_h_mstore8, npc)
    if value == 0x54:
        return (_h_sload, npc, op.gas)
    if value == 0x55:
        return (_h_sstore, npc)
    if value == 0x56:
        return (_h_jump,)
    if value == 0x57:
        return (_h_jumpi, npc)
    if value == 0x5B:
        return (_h_jumpdest, npc)
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
    """AOT-compile *code* into a :class:`DecodedProgram`."""
    instrs = decode(code)
    jumpdests = valid_jumpdests(code)
    entries: list[tuple | None] = [None] * len(code)
    fused = 0
    folded = 0
    i = 0
    n = len(instrs)
    while i < n:
        ins = instrs[i]
        value = ins.op.value
        chain = _match_const_chain(instrs, i, jumpdests)
        if chain is not None:
            stages, values, length, next_pc = chain
            entries[ins.pc] = (_h_const, next_pc, stages, values)
            fused += 1
            folded += length - 1
            i += length
            continue
        nxt = instrs[i + 1] if i + 1 < n else None
        if nxt is not None:
            if 0x60 <= value <= 0x7F:
                imm = (ins.immediate or 0) & WORD_MASK
                nv = nxt.op.value
                if nv == 0x56:
                    entries[ins.pc] = (
                        _h_push_jump, imm, imm in jumpdests
                    )
                    fused += 1
                    folded += 1
                    i += 2
                    continue
                if nv == 0x57:
                    entries[ins.pc] = (
                        _h_push_jumpi, nxt.next_pc, imm,
                        imm in jumpdests,
                    )
                    fused += 1
                    folded += 1
                    i += 2
                    continue
                fn = _BIN_FN.get(nv)
                if fn is not None:
                    entries[ins.pc] = (
                        _h_push_bin, nxt.next_pc, imm, fn, nxt.op.gas
                    )
                    fused += 1
                    folded += 1
                    i += 2
                    continue
            elif 0x80 <= value <= 0x8F:
                fn = _BIN_FN.get(nxt.op.value)
                if fn is not None:
                    entries[ins.pc] = (
                        _h_dup_bin, nxt.next_pc, value - 0x7F, fn,
                        nxt.op.gas,
                    )
                    fused += 1
                    folded += 1
                    i += 2
                    continue
            elif value == 0x90 and nxt.op.value == 0x50:
                entries[ins.pc] = (_h_swap1_pop, nxt.next_pc)
                fused += 1
                folded += 1
                i += 2
                continue
        entries[ins.pc] = _plain_entry(ins)
        i += 1
    return DecodedProgram(
        code=code,
        code_hash=keccak256(code),
        entries=entries,
        jumpdests=jumpdests,
        instruction_count=n,
        fused_count=fused,
        folded_instructions=folded,
    )


# ---------------------------------------------------------------------------
# The trace-free execution loop
# ---------------------------------------------------------------------------


def run_program(evm, frame, program: DecodedProgram) -> None:
    """Execute *frame* over a decoded program's fused entries, trace-free
    (the loop under a ``NullTracer``)."""
    frame.jumpdests = program.jumpdests
    entries = program.entries
    code_len = program.code_len
    pc = frame.pc
    try:
        while pc < code_len:
            e = entries[pc]
            pc = e[0](evm, frame, e)
    except _Halt:
        pass
    frame.pc = pc
    frame.halted = True  # fell off the end: implicit STOP


# ---------------------------------------------------------------------------
# The observed loop: the same handlers, one instruction at a time, with a
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


def _unfused_rows(code: bytes) -> list[tuple | None]:
    """One plain entry per instruction of *code*, indexed by pc (fused
    entries have no per-instruction steps to show)."""
    rows: list[tuple | None] = [None] * len(code)
    for ins in decode(code):
        rows[ins.pc] = (_plain_entry(ins), ins, _EXTRA.get(ins.op.value))
    return rows


def run_observed(evm, frame, program: DecodedProgram) -> None:
    """Execute *frame* under ``evm.tracer``, one instruction at a time.

    The handlers are the ones :func:`run_program` dispatches; what a
    :class:`TraceStep` holds is read from outside them — operands and
    their producers off the stack and ``frame.shadow`` before the call,
    the result and the gas meter's movement after it.

    A step is recorded when its handler returns, halts the frame, or
    raises ``Revert``, ``InvalidJump`` or ``StackOverflow``; any other
    exception leaves none. A call-family step is recorded before its
    handler runs and withdrawn if the handler refuses the call.
    """
    frame.jumpdests = program.jumpdests
    rows = program.unfused
    if rows is None:
        rows = program.unfused = _unfused_rows(program.code)
    tracer = evm.tracer
    msg = frame.msg
    gas = frame.gas
    items = frame.stack._items
    shadow = frame.shadow  # producer step of each stack word, same length
    code_len = program.code_len
    pc = frame.pc
    while pc < code_len:
        e, ins, extra = rows[pc]
        handler = e[0]
        op = ins.op
        pops = op.pops
        is_dup = handler is _h_dup
        is_swap = handler is _h_swap
        # The call family (CALL, CALLCODE, DELEGATECALL, STATICCALL,
        # CREATE, CREATE2): its step goes in ahead of the callee's.
        is_call = handler is _h_call or handler is _h_create
        step = None
        if len(items) >= pops:  # short of operands the handler refuses
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
            next_pc = handler(evm, frame, e)
        except (_Halt, Revert, InvalidJump, StackOverflow) as stop:
            step.gas_cost = gas.consumed - before
            if isinstance(stop, StackOverflow):
                # The word never reached the stack: read it off the entry.
                if is_dup:
                    step.results = operands
                elif handler is _h_env0:
                    step.results = (e[2](evm, frame) & WORD_MASK,)
                else:
                    step.results = (e[2],)
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
    One instance per process; pool workers each hold their own and decode
    a given contract once per worker, not once per transaction.
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
            if program.fused_count:
                registry.counter("evm.fused_instructions").inc(
                    program.fused_count
                )
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


#: The per-process cache shared by every EVM instance (and, via fork/spawn
#: initializers, warmed per pool worker).
DECODE_CACHE = DecodeCache()


def warm_code(code: bytes) -> bool:
    """Warm the process cache for one code blob."""
    return DECODE_CACHE.warm(code)


def warm_state_codes(state) -> int:
    """Warm the cache for every code-bearing account in *state*.

    Reads the account table directly (no access tracking, no journal);
    used at serve-builder construction, replica snapshot install, and
    pool-worker init.
    """
    warmed = 0
    for account in state._accounts.values():
        if account.code:
            DECODE_CACHE.warm(account.code)
            warmed += 1
    return warmed
