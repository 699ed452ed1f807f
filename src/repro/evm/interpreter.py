"""The reference sequential EVM interpreter.

This is the functional substrate everything else measures against:

* It defines transaction semantics (the "single PU, sequential" behaviour
  the paper uses as its baseline).
* Run with a :class:`~repro.evm.tracer.Tracer`, it produces the dataflow
  traces that drive the MTPU timing model and the hotspot optimizer.
* Its deterministic gas accounting embodies the consistency constraint of
  paper section 3.3.3 (one transaction, one gas consumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.receipt import LogEntry, Receipt
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto import (
    ADDRESS_MASK,
    contract_address,
    create2_address,
    keccak256_int,
)
from . import decoded, opcodes
from .alu import (  # noqa: F401  (re-exported: tests and tools import from here)
    _ARITH_FN,
    _LOGIC_FN,
    _byte,
    _div,
    _mod,
    _sar,
    _sdiv,
    _signextend,
    _smod,
    _to_signed,
    _to_unsigned,
)
from .code import valid_jumpdests
from .context import BlockContext, CallKind, CallResult, Message
from .errors import (
    ExceptionalHalt,
    InvalidJump,
    InvalidOpcode,
    Revert,
    WriteInStaticContext,
)
from ..obs import get_registry
from .gas import DEFAULT_SCHEDULE, GasMeter, GasSchedule
from .memory import Memory
from .stack import WORD_MASK, Stack
from .tracer import EXTERNAL_PRODUCER, NullTracer, Tracer, TraceStep

MAX_CALL_DEPTH = 1024
SIGN_BIT = 1 << 255

# Message calls recurse through the host interpreter (~8 Python frames per
# EVM frame); the EVM's own 1024-depth cap therefore needs more headroom
# than CPython's default 1000-frame limit.
import sys  # noqa: E402

if sys.getrecursionlimit() < 16 * MAX_CALL_DEPTH:
    sys.setrecursionlimit(16 * MAX_CALL_DEPTH)


def count_transaction(registry, receipt: Receipt) -> None:
    """Publish the receipt-level ``evm.*`` counts of one execution.

    Shared with the closed-form transfer path of
    :func:`repro.chain.dag.discover_access_sets`, which produces a
    receipt without an :class:`EVM`.
    """
    registry.counter("evm.transactions").inc()
    # Functional executions only — artifact replays in the execute-once
    # pipeline do not pass through here, so this counter exposes how
    # many times each block's transactions actually ran.
    registry.counter("evm.tx_executions").inc()
    registry.counter("evm.gas_used").inc(receipt.gas_used)
    if not receipt.success:
        registry.counter("evm.failures").inc()


@dataclass
class Frame:
    """One message-call execution frame (an entry of the Call_Contract
    Stack, paper section 3.3.6)."""

    msg: Message
    code: bytes
    gas: GasMeter
    stack: Stack = field(default_factory=Stack)
    memory: Memory = field(default_factory=Memory)
    pc: int = 0
    logs: list[LogEntry] = field(default_factory=list)
    return_data: bytes = b""
    output: bytes = b""
    halted: bool = False
    # Shadow stack: trace index of the step that produced each stack slot.
    shadow: list[int] = field(default_factory=list)
    # Per-frame jump-destination cache: set once per frame (by the decoded
    # fast path at program bind, by op_branch lazily) so repeated jumps
    # skip even the memo lookup in repro.evm.code.
    jumpdests: frozenset[int] | None = None


class _StopFrame(Exception):
    """Internal: normal frame termination (STOP/RETURN/SELFDESTRUCT)."""


class EVM:
    """A complete EVM: message-call machinery plus the instruction set."""

    def __init__(
        self,
        state: WorldState,
        block: BlockContext | None = None,
        schedule: GasSchedule | None = None,
        tracer: Tracer | None = None,
        fast_path: bool | None = None,
    ) -> None:
        self.state = state
        self.block = block or BlockContext()
        self.schedule = schedule or DEFAULT_SCHEDULE
        # Note: "tracer or ..." would misfire — an empty Tracer has
        # __len__() == 0 and is falsy.
        self.tracer = tracer if tracer is not None else NullTracer()
        # The decoded fast path (repro.evm.decoded) is only sound when no
        # tracer observes individual steps; fast_path=False forces the
        # legacy loop even under NullTracer (differential tests, benches).
        untraced = isinstance(self.tracer, NullTracer)
        self._fast = untraced if fast_path is None else (fast_path and untraced)

    # ------------------------------------------------------------------
    # Transaction-level entry point
    # ------------------------------------------------------------------
    def execute_transaction(self, tx: Transaction) -> Receipt:
        """Run one transaction to completion and produce its receipt.

        Fee handling: the gas fee moves from sender to coinbase *outside*
        access tracking — otherwise every transaction in a block would
        artificially conflict on the coinbase balance, collapsing the
        dependency DAG (real schedulers special-case fee accounting the
        same way).
        """
        intrinsic = self.schedule.intrinsic_gas(tx.data, tx.is_create)
        if intrinsic > tx.gas_limit:
            return self._finish(Receipt(
                tx_hash=tx.hash(),
                success=False,
                gas_used=tx.gas_limit,
                error="intrinsic gas exceeds limit",
            ))

        saved_access = self.state.access
        self.state.access = None
        try:
            if self.state.get_balance(tx.sender) < tx.value:
                return self._finish(Receipt(
                    tx_hash=tx.hash(),
                    success=False,
                    gas_used=intrinsic,
                    error="insufficient balance for value",
                ))
            self.state.increment_nonce(tx.sender)
        finally:
            self.state.access = saved_access

        gas = tx.gas_limit - intrinsic
        if tx.is_create:
            msg = Message(
                caller=tx.sender,
                to=0,
                value=tx.value,
                data=b"",
                gas=gas,
                code_address=0,
                origin=tx.sender,
                gas_price=tx.gas_price,
                kind=CallKind.CREATE,
                create_code=tx.data,
            )
        else:
            msg = Message(
                caller=tx.sender,
                to=tx.to,
                value=tx.value,
                data=tx.data,
                gas=gas,
                code_address=tx.to,
                origin=tx.sender,
                gas_price=tx.gas_price,
                kind=CallKind.CALL,
            )

        result = self.call(msg)
        gas_used = intrinsic + result.gas_used

        # SSTORE-clear refunds, capped at half the gas used (EVM rule).
        refund = min(result.refund, gas_used // 2)
        gas_used -= refund

        saved_access = self.state.access
        self.state.access = None
        try:
            fee = gas_used * tx.gas_price
            sender_balance = self.state.get_balance(tx.sender)
            self.state.set_balance(tx.sender, max(0, sender_balance - fee))
            coinbase = self.block.coinbase
            self.state.set_balance(
                coinbase, self.state.get_balance(coinbase) + fee
            )
        finally:
            self.state.access = saved_access

        return self._finish(Receipt(
            tx_hash=tx.hash(),
            success=result.success,
            gas_used=gas_used,
            logs=tuple(result.logs),
            output=result.output,
            contract_address=result.created_address,
            error=result.error,
        ))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _finish(self, receipt: Receipt) -> Receipt:
        """Record transaction-level metrics; one branch when disabled."""
        registry = get_registry()
        if registry.enabled:
            self._record_tx_metrics(registry, receipt)
        return receipt

    def _record_tx_metrics(self, registry, receipt: Receipt) -> None:
        """Publish evm.* metrics for one executed transaction.

        The opcode mix, executed-instruction count and stack/call depth
        are derived post-hoc from the attached tracer's trace (free when
        a :class:`NullTracer` is attached — its step list stays empty).
        """
        count_transaction(registry, receipt)
        if self._fast:
            registry.counter("evm.fast_path_txs").inc()
        steps = self.tracer.steps
        if not steps:
            return
        registry.counter("evm.instructions").inc(len(steps))
        categories: dict[str, int] = {}
        max_call_depth = 0
        # Per-frame operand-stack height, replayed from pops/pushes; a
        # call record's start index marks where its frame's stack resets.
        frame_resets = {}
        for call in self.tracer.calls:
            frame_resets.setdefault(call.start_index, call.depth)
        heights: dict[int, int] = {}
        max_height = 0
        for step in steps:
            key = step.op.category.value
            categories[key] = categories.get(key, 0) + 1
            depth = step.depth
            if depth > max_call_depth:
                max_call_depth = depth
            if frame_resets.get(step.index) == depth:
                heights[depth] = 0
            height = heights.get(depth, 0) - step.op.pops + step.op.pushes
            heights[depth] = height
            if height > max_height:
                max_height = height
        for category, count in categories.items():
            registry.counter("evm.ops", category=category).inc(count)
        registry.histogram("evm.stack_depth").observe(max_height)
        registry.histogram("evm.call_depth").observe(max_call_depth)

    # ------------------------------------------------------------------
    # Message-call machinery
    # ------------------------------------------------------------------
    def call(self, msg: Message) -> CallResult:
        """Execute one message call (or contract creation) atomically."""
        if msg.depth > MAX_CALL_DEPTH:
            return CallResult(
                success=False, gas_used=msg.gas, error="call depth exceeded"
            )

        is_create = msg.kind in (CallKind.CREATE, CallKind.CREATE2)
        snapshot = self.state.snapshot()
        gas = GasMeter(msg.gas)
        created_address: int | None = None

        try:
            if is_create:
                created_address = self._derive_create_address(msg)
                self.state.increment_nonce(msg.caller)
                msg.to = created_address
                msg.code_address = created_address
                code = msg.create_code
                existing = self.state.account(created_address)
                if existing.code or existing.nonce:
                    raise ExceptionalHalt("address collision on create")
                self.state.increment_nonce(created_address)
            else:
                code = self.state.get_code(msg.code_address)

            if msg.value and msg.kind in (
                CallKind.CALL,
                CallKind.CREATE,
                CallKind.CREATE2,
            ):
                self.state.transfer(msg.caller, msg.to, msg.value)

            frame = Frame(msg=msg, code=code, gas=gas)
            self.tracer.enter_call(msg.depth, msg.code_address, msg.kind)
            try:
                self._run(frame)
            finally:
                pass

            if is_create:
                deposit = len(frame.output) * self.schedule.code_deposit_byte
                gas.consume(deposit, "code deposit")
                self.state.set_code(created_address, frame.output)
                output = b""
            else:
                output = frame.output

            self.tracer.exit_call(True)
            return CallResult(
                success=True,
                output=output,
                gas_used=gas.consumed,
                gas_left=gas.remaining,
                logs=frame.logs,
                created_address=created_address,
                refund=gas.refund,
            )

        except Revert as exc:
            self.state.revert(snapshot)
            self.tracer.exit_call(False)
            return CallResult(
                success=False,
                output=exc.data,
                gas_used=gas.consumed,
                gas_left=gas.remaining,
                error="revert",
            )

        except (ExceptionalHalt, ValueError) as exc:
            # ValueError covers insufficient-balance transfers inside calls.
            self.state.revert(snapshot)
            self.tracer.exit_call(False)
            return CallResult(
                success=False,
                gas_used=msg.gas,  # exceptional halt burns the frame's gas
                gas_left=0,
                error=type(exc).__name__,
            )

    def _derive_create_address(self, msg: Message) -> int:
        if msg.kind == CallKind.CREATE2:
            return create2_address(msg.caller, msg.value_salt, msg.create_code)  # type: ignore[attr-defined]
        return contract_address(msg.caller, self.state.get_nonce(msg.caller))

    # ------------------------------------------------------------------
    # The fetch / decode / gas-check / execute loop (paper Fig. 8a)
    # ------------------------------------------------------------------
    def _run(self, frame: Frame) -> None:
        code = frame.code
        if not code:
            frame.halted = True  # empty code: implicit STOP
            return
        if self._fast:
            decoded.run_program(self, frame, decoded.DECODE_CACHE.get(code))
            return
        code_len = len(code)
        infos = opcodes.INFO_BY_BYTE
        handlers = _HANDLERS_BY_BYTE
        while not frame.halted:
            pc = frame.pc
            if pc >= code_len:
                frame.halted = True  # implicit STOP
                return
            opcode_byte = code[pc]
            handler = handlers[opcode_byte]
            if handler is None:
                raise InvalidOpcode(f"invalid opcode 0x{opcode_byte:02x}")
            try:
                handler(self, frame, infos[opcode_byte])
            except _StopFrame:
                frame.halted = True
                return

    def _step(self, frame: Frame, info: opcodes.OpcodeInfo) -> None:
        handler = _HANDLERS[info.name]
        handler(self, frame, info)

    # -- shadow-stack helpers ----------------------------------------------
    def _pop(self, frame: Frame, n: int) -> tuple[list[int], tuple[int, ...]]:
        """Pop n operands plus their trace producer indices."""
        values = frame.stack.pop_n(n)
        if n == 0:
            return values, ()
        producers = tuple(frame.shadow[-n:][::-1])
        del frame.shadow[-n:]
        return values, producers

    def _push(self, frame: Frame, value: int, producer: int) -> None:
        frame.stack.push(value)
        frame.shadow.append(producer)

    def _trace(
        self,
        frame: Frame,
        info: opcodes.OpcodeInfo,
        pc: int,
        gas_cost: int,
        operands: tuple[int, ...] = (),
        producers: tuple[int, ...] = (),
        results: tuple[int, ...] = (),
        immediate: int | None = None,
        extra: dict | None = None,
    ) -> int:
        index = self.tracer.next_index
        self.tracer.record(
            TraceStep(
                index=index,
                pc=pc,
                op=info,
                immediate=immediate,
                gas_cost=gas_cost,
                depth=frame.msg.depth,
                code_address=frame.msg.code_address,
                operands=operands,
                producers=producers,
                results=results,
                extra=extra or {},
            )
        )
        return index

    def _charge_memory(self, frame: Frame, offset: int, length: int) -> int:
        """Gas for expanding memory to cover [offset, offset+length)."""
        if length == 0:
            return 0
        new_words = (offset + length + 31) // 32
        return self.schedule.memory_expansion_cost(
            frame.memory.size_words, new_words
        )

    # ------------------------------------------------------------------
    # Instruction implementations, grouped by functional unit
    # ------------------------------------------------------------------
    # Arithmetic -----------------------------------------------------------
    def op_arith(self, frame: Frame, info) -> None:
        pc = frame.pc
        n = info.pops
        gas_cost = info.gas
        values, producers = self._pop(frame, n)
        if info.name == "EXP":
            exponent = values[1]
            byte_count = (exponent.bit_length() + 7) // 8
            gas_cost += self.schedule.exp_byte * byte_count
        frame.gas.consume(gas_cost, info.name)
        result = _ARITH_FN[info.name](*values)
        index = self._trace(
            frame, info, pc, gas_cost,
            operands=tuple(values), producers=producers,
            results=(result,),
        )
        self._push(frame, result, index)
        frame.pc += 1

    # Logic ---------------------------------------------------------------
    def op_logic(self, frame: Frame, info) -> None:
        pc = frame.pc
        values, producers = self._pop(frame, info.pops)
        frame.gas.consume(info.gas, info.name)
        result = _LOGIC_FN[info.name](*values)
        index = self._trace(
            frame, info, pc, info.gas,
            operands=tuple(values), producers=producers,
            results=(result,),
        )
        self._push(frame, result, index)
        frame.pc += 1

    # SHA -----------------------------------------------------------------
    def op_sha3(self, frame: Frame, info) -> None:
        pc = frame.pc
        (offset, length), producers = self._pop(frame, 2)
        words = (length + 31) // 32
        gas_cost = (
            info.gas
            + self.schedule.sha3_word * words
            + self._charge_memory(frame, offset, length)
        )
        frame.gas.consume(gas_cost, "SHA3")
        data = frame.memory.read(offset, length)
        result = keccak256_int(data)
        index = self._trace(
            frame, info, pc, gas_cost,
            operands=(offset, length), producers=producers,
            results=(result,),
            extra={"offset": offset, "length": length, "preimage": data},
        )
        self._push(frame, result, index)
        frame.pc += 1

    # Fixed access ----------------------------------------------------------
    def op_fixed(self, frame: Frame, info) -> None:
        pc = frame.pc
        name = info.name
        msg = frame.msg
        extra: dict = {}
        if name == "CALLDATALOAD":
            (offset,), producers = self._pop(frame, 1)
            frame.gas.consume(info.gas, name)
            chunk = msg.data[offset : offset + 32]
            chunk = chunk + b"\x00" * (32 - len(chunk))
            result = int.from_bytes(chunk, "big")
            extra["offset"] = offset
            index = self._trace(
                frame, info, pc, info.gas,
                operands=(offset,), producers=producers, results=(result,),
                extra=extra,
            )
            self._push(frame, result, index)
            frame.pc += 1
            return
        if name in ("CALLDATACOPY", "CODECOPY", "RETURNDATACOPY"):
            (dest, src, length), producers = self._pop(frame, 3)
            words = (length + 31) // 32
            gas_cost = (
                info.gas
                + self.schedule.copy_word * words
                + self._charge_memory(frame, dest, length)
            )
            frame.gas.consume(gas_cost, name)
            if name == "CALLDATACOPY":
                blob = msg.data
            elif name == "CODECOPY":
                blob = frame.code
            else:
                if src + length > len(frame.return_data):
                    raise ExceptionalHalt("RETURNDATACOPY out of bounds")
                blob = frame.return_data
            chunk = blob[src : src + length]
            chunk = chunk + b"\x00" * (length - len(chunk))
            frame.memory.write(dest, chunk)
            self._trace(
                frame, info, pc, gas_cost,
                operands=(dest, src, length), producers=producers,
                extra={"dest": dest, "src": src, "length": length},
            )
            frame.pc += 1
            return
        if name == "BLOCKHASH":
            (height,), producers = self._pop(frame, 1)
            frame.gas.consume(info.gas, name)
            result = self.block.blockhash_fn(height)
            index = self._trace(
                frame, info, pc, info.gas,
                operands=(height,), producers=producers, results=(result,),
            )
            self._push(frame, result, index)
            frame.pc += 1
            return

        frame.gas.consume(info.gas, name)
        result = self._fixed_value(frame, name)
        index = self._trace(frame, info, pc, info.gas, results=(result,))
        self._push(frame, result, index)
        frame.pc += 1

    def _fixed_value(self, frame: Frame, name: str) -> int:
        msg = frame.msg
        block = self.block
        values = {
            "ADDRESS": msg.to,
            "ORIGIN": msg.origin,
            "CALLER": msg.caller,
            "CALLVALUE": msg.value,
            "CALLDATASIZE": len(msg.data),
            "CODESIZE": len(frame.code),
            "GASPRICE": msg.gas_price,
            "RETURNDATASIZE": len(frame.return_data),
            "COINBASE": block.coinbase,
            "TIMESTAMP": block.timestamp,
            "NUMBER": block.height,
            "DIFFICULTY": block.difficulty,
            "GASLIMIT": block.gas_limit,
            "PC": frame.pc,
            "GAS": frame.gas.remaining,
        }
        return values[name] & WORD_MASK

    # State query ------------------------------------------------------------
    def op_state_query(self, frame: Frame, info) -> None:
        pc = frame.pc
        name = info.name
        if name == "EXTCODECOPY":
            (address, dest, src, length), producers = self._pop(frame, 4)
            address &= ADDRESS_MASK
            words = (length + 31) // 32
            gas_cost = (
                info.gas
                + self.schedule.copy_word * words
                + self._charge_memory(frame, dest, length)
            )
            frame.gas.consume(gas_cost, name)
            blob = self.state.get_code(address)
            chunk = blob[src : src + length]
            chunk = chunk + b"\x00" * (length - len(chunk))
            frame.memory.write(dest, chunk)
            self._trace(
                frame, info, pc, gas_cost,
                operands=(address, dest, src, length), producers=producers,
                extra={"address": address},
            )
            frame.pc += 1
            return

        (raw,), producers = self._pop(frame, 1)
        address = raw & ADDRESS_MASK
        frame.gas.consume(info.gas, name)
        if name == "BALANCE":
            result = self.state.get_balance(address)
        elif name == "EXTCODESIZE":
            result = len(self.state.get_code(address))
        else:  # EXTCODEHASH
            code = self.state.get_code(address)
            result = keccak256_int(code) if code else 0
        index = self._trace(
            frame, info, pc, info.gas,
            operands=(raw,), producers=producers, results=(result,),
            extra={"address": address},
        )
        self._push(frame, result, index)
        frame.pc += 1

    # Memory -----------------------------------------------------------------
    def op_memory(self, frame: Frame, info) -> None:
        pc = frame.pc
        name = info.name
        if name == "MLOAD":
            (offset,), producers = self._pop(frame, 1)
            gas_cost = info.gas + self._charge_memory(frame, offset, 32)
            frame.gas.consume(gas_cost, name)
            result = frame.memory.read_word(offset)
            index = self._trace(
                frame, info, pc, gas_cost,
                operands=(offset,), producers=producers, results=(result,),
                extra={"offset": offset},
            )
            self._push(frame, result, index)
        elif name == "MSTORE":
            (offset, value), producers = self._pop(frame, 2)
            gas_cost = info.gas + self._charge_memory(frame, offset, 32)
            frame.gas.consume(gas_cost, name)
            frame.memory.write_word(offset, value)
            self._trace(
                frame, info, pc, gas_cost,
                operands=(offset, value), producers=producers,
                extra={"offset": offset},
            )
        elif name == "MSTORE8":
            (offset, value), producers = self._pop(frame, 2)
            gas_cost = info.gas + self._charge_memory(frame, offset, 1)
            frame.gas.consume(gas_cost, name)
            frame.memory.write_byte(offset, value)
            self._trace(
                frame, info, pc, gas_cost,
                operands=(offset, value), producers=producers,
                extra={"offset": offset},
            )
        elif name == "MSIZE":
            frame.gas.consume(info.gas, name)
            result = frame.memory.size_words * 32
            index = self._trace(frame, info, pc, info.gas, results=(result,))
            self._push(frame, result, index)
        else:  # LOG0..LOG4
            self._op_log(frame, info)
            return
        frame.pc += 1

    def _op_log(self, frame: Frame, info) -> None:
        pc = frame.pc
        if frame.msg.is_static:
            raise WriteInStaticContext("LOG in static context")
        topic_count = info.pops - 2
        values, producers = self._pop(frame, info.pops)
        offset, length = values[0], values[1]
        topics = tuple(values[2:])
        gas_cost = (
            info.gas
            + self.schedule.log_topic * topic_count
            + self.schedule.log_data_byte * length
            + self._charge_memory(frame, offset, length)
        )
        frame.gas.consume(gas_cost, info.name)
        data = frame.memory.read(offset, length)
        frame.logs.append(LogEntry(frame.msg.to, topics, data))
        self._trace(
            frame, info, pc, gas_cost,
            operands=tuple(values), producers=producers,
            extra={"topics": topics, "length": length},
        )
        frame.pc += 1

    # Storage -----------------------------------------------------------------
    def op_storage(self, frame: Frame, info) -> None:
        pc = frame.pc
        address = frame.msg.to
        if info.name == "SLOAD":
            (slot,), producers = self._pop(frame, 1)
            frame.gas.consume(info.gas, "SLOAD")
            result = self.state.get_storage(address, slot)
            index = self._trace(
                frame, info, pc, info.gas,
                operands=(slot,), producers=producers, results=(result,),
                extra={"address": address, "slot": slot},
            )
            self._push(frame, result, index)
        else:  # SSTORE
            if frame.msg.is_static:
                raise WriteInStaticContext("SSTORE in static context")
            (slot, value), producers = self._pop(frame, 2)
            old = self.state.get_storage(address, slot)
            if old == 0 and value != 0:
                gas_cost = self.schedule.sstore_set
            else:
                gas_cost = self.schedule.sstore_reset
            frame.gas.consume(gas_cost, "SSTORE")
            if old != 0 and value == 0:
                frame.gas.add_refund(self.schedule.sstore_clear_refund)
            self.state.set_storage(address, slot, value)
            self._trace(
                frame, info, pc, gas_cost,
                operands=(slot, value), producers=producers,
                extra={"address": address, "slot": slot},
            )
        frame.pc += 1

    # Branch ---------------------------------------------------------------------
    def op_branch(self, frame: Frame, info) -> None:
        pc = frame.pc
        dests = frame.jumpdests
        if dests is None:
            dests = frame.jumpdests = valid_jumpdests(frame.code)
        if info.name == "JUMP":
            (target,), producers = self._pop(frame, 1)
            frame.gas.consume(info.gas, "JUMP")
            self._trace(
                frame, info, pc, info.gas,
                operands=(target,), producers=producers,
                extra={"target": target, "taken": True},
            )
            if target not in dests:
                raise InvalidJump(f"jump to {target:#x}")
            frame.pc = target
        elif info.name == "JUMPI":
            (target, condition), producers = self._pop(frame, 2)
            frame.gas.consume(info.gas, "JUMPI")
            taken = condition != 0
            self._trace(
                frame, info, pc, info.gas,
                operands=(target, condition), producers=producers,
                extra={"target": target, "taken": taken},
            )
            if taken:
                if target not in dests:
                    raise InvalidJump(f"jumpi to {target:#x}")
                frame.pc = target
            else:
                frame.pc += 1
        else:  # JUMPDEST
            frame.gas.consume(info.gas, "JUMPDEST")
            self._trace(frame, info, pc, info.gas)
            frame.pc += 1

    # Stack -------------------------------------------------------------------------
    def op_stack(self, frame: Frame, info) -> None:
        pc = frame.pc
        name = info.name
        if name == "POP":
            (value,), producers = self._pop(frame, 1)
            frame.gas.consume(info.gas, "POP")
            self._trace(
                frame, info, pc, info.gas,
                operands=(value,), producers=producers,
            )
            frame.pc += 1
            return
        if opcodes.is_push(info):
            frame.gas.consume(info.gas, name)
            raw = frame.code[pc + 1 : pc + 1 + info.immediate_size]
            raw = raw + b"\x00" * (info.immediate_size - len(raw))
            value = int.from_bytes(raw, "big")
            index = self._trace(
                frame, info, pc, info.gas,
                results=(value,), immediate=value,
            )
            self._push(frame, value, index)
            frame.pc += 1 + info.immediate_size
            return
        if opcodes.is_dup(info):
            n = info.value - 0x80 + 1
            frame.gas.consume(info.gas, name)
            value = frame.stack.peek(n - 1)
            producer = (
                frame.shadow[-n] if n <= len(frame.shadow) else EXTERNAL_PRODUCER
            )
            index = self._trace(
                frame, info, pc, info.gas,
                operands=(value,), producers=(producer,), results=(value,),
            )
            frame.stack.dup(n)
            frame.shadow.append(index)
            frame.pc += 1
            return
        # SWAPn
        n = info.value - 0x90 + 1
        frame.gas.consume(info.gas, name)
        top = frame.stack.peek(0)
        other = frame.stack.peek(n)
        producer_top = frame.shadow[-1] if frame.shadow else EXTERNAL_PRODUCER
        producer_other = (
            frame.shadow[-1 - n] if n < len(frame.shadow) else EXTERNAL_PRODUCER
        )
        self._trace(
            frame, info, pc, info.gas,
            operands=(top, other), producers=(producer_top, producer_other),
        )
        frame.stack.swap(n)
        if n < len(frame.shadow):
            frame.shadow[-1], frame.shadow[-1 - n] = (
                frame.shadow[-1 - n],
                frame.shadow[-1],
            )
        frame.pc += 1

    # Control ------------------------------------------------------------------------
    def op_control(self, frame: Frame, info) -> None:
        pc = frame.pc
        name = info.name
        if name == "STOP":
            frame.gas.consume(info.gas, "STOP")
            self._trace(frame, info, pc, info.gas)
            frame.output = b""
            raise _StopFrame
        if name == "RETURN":
            (offset, length), producers = self._pop(frame, 2)
            gas_cost = info.gas + self._charge_memory(frame, offset, length)
            frame.gas.consume(gas_cost, "RETURN")
            frame.output = frame.memory.read(offset, length)
            self._trace(
                frame, info, pc, gas_cost,
                operands=(offset, length), producers=producers,
            )
            raise _StopFrame
        # REVERT
        (offset, length), producers = self._pop(frame, 2)
        gas_cost = info.gas + self._charge_memory(frame, offset, length)
        frame.gas.consume(gas_cost, "REVERT")
        data = frame.memory.read(offset, length)
        self._trace(
            frame, info, pc, gas_cost,
            operands=(offset, length), producers=producers,
        )
        raise Revert(data)

    # Context switching -----------------------------------------------------------------
    def op_context(self, frame: Frame, info) -> None:
        name = info.name
        if name in ("CALL", "CALLCODE"):
            self._op_call(frame, info, with_value=True)
        elif name == "DELEGATECALL":
            self._op_call(frame, info, with_value=False)
        elif name == "STATICCALL":
            self._op_call(frame, info, with_value=False)
        elif name in ("CREATE", "CREATE2"):
            self._op_create(frame, info)
        else:  # SELFDESTRUCT
            self._op_selfdestruct(frame, info)

    def _op_call(self, frame: Frame, info, with_value: bool) -> None:
        pc = frame.pc
        name = info.name
        if with_value:
            (
                (gas_req, to, value, in_off, in_len, out_off, out_len),
                producers,
            ) = self._pop(frame, 7)
        else:
            (
                (gas_req, to, in_off, in_len, out_off, out_len),
                producers,
            ) = self._pop(frame, 6)
            value = 0
        to &= ADDRESS_MASK

        if value and frame.msg.is_static:
            raise WriteInStaticContext("value transfer in static context")

        gas_cost = info.gas
        if value:
            gas_cost += self.schedule.call_value_transfer
            if name == "CALL" and not self.state.account_exists(to):
                gas_cost += self.schedule.call_new_account
        gas_cost += self._charge_memory(frame, in_off, in_len)
        gas_cost += self._charge_memory(frame, out_off, out_len)
        frame.gas.consume(gas_cost, name)

        # 63/64ths rule: the child cannot take everything.
        available = frame.gas.remaining - frame.gas.remaining // 64
        child_gas = min(gas_req, available)
        frame.gas.consume(child_gas, f"{name} child gas")
        if value:
            child_gas += self.schedule.call_stipend

        call_data = frame.memory.read(in_off, in_len)
        if name == "CALL":
            child = Message(
                caller=frame.msg.to, to=to, value=value, data=call_data,
                gas=child_gas, code_address=to, origin=frame.msg.origin,
                gas_price=frame.msg.gas_price, depth=frame.msg.depth + 1,
                is_static=frame.msg.is_static, kind=CallKind.CALL,
            )
        elif name == "CALLCODE":
            child = Message(
                caller=frame.msg.to, to=frame.msg.to, value=value,
                data=call_data, gas=child_gas, code_address=to,
                origin=frame.msg.origin, gas_price=frame.msg.gas_price,
                depth=frame.msg.depth + 1, is_static=frame.msg.is_static,
                kind=CallKind.CALLCODE,
            )
        elif name == "DELEGATECALL":
            child = Message(
                caller=frame.msg.caller, to=frame.msg.to,
                value=frame.msg.value, data=call_data, gas=child_gas,
                code_address=to, origin=frame.msg.origin,
                gas_price=frame.msg.gas_price, depth=frame.msg.depth + 1,
                is_static=frame.msg.is_static, kind=CallKind.DELEGATECALL,
            )
        else:  # STATICCALL
            child = Message(
                caller=frame.msg.to, to=to, value=0, data=call_data,
                gas=child_gas, code_address=to, origin=frame.msg.origin,
                gas_price=frame.msg.gas_price, depth=frame.msg.depth + 1,
                is_static=True, kind=CallKind.STATICCALL,
            )

        step_index = self._trace(
            frame, info, pc, gas_cost,
            operands=(gas_req, to, value, in_off, in_len, out_off, out_len)
            if with_value
            else (gas_req, to, in_off, in_len, out_off, out_len),
            producers=producers,
            extra={"target": to, "value": value, "kind": name},
        )

        result = self.call(child)
        frame.gas.return_gas(result.gas_left)
        if result.success:
            frame.gas.refund += result.refund
            frame.logs.extend(result.logs)
        frame.return_data = result.output
        if out_len and result.output:
            frame.memory.write(out_off, result.output[:out_len])
        self._push(frame, 1 if result.success else 0, step_index)
        frame.pc += 1

    def _op_create(self, frame: Frame, info) -> None:
        pc = frame.pc
        name = info.name
        if frame.msg.is_static:
            raise WriteInStaticContext("CREATE in static context")
        if name == "CREATE":
            (value, offset, length), producers = self._pop(frame, 3)
            salt = 0
        else:
            (value, offset, length, salt), producers = self._pop(frame, 4)
        gas_cost = info.gas + self._charge_memory(frame, offset, length)
        frame.gas.consume(gas_cost, name)
        init_code = frame.memory.read(offset, length)

        available = frame.gas.remaining - frame.gas.remaining // 64
        frame.gas.consume(available, f"{name} child gas")

        child = Message(
            caller=frame.msg.to, to=0, value=value, data=b"",
            gas=available, code_address=0, origin=frame.msg.origin,
            gas_price=frame.msg.gas_price, depth=frame.msg.depth + 1,
            kind=CallKind.CREATE if name == "CREATE" else CallKind.CREATE2,
            create_code=init_code,
        )
        if name == "CREATE2":
            child.value_salt = salt  # type: ignore[attr-defined]

        step_index = self._trace(
            frame, info, pc, gas_cost,
            operands=(value, offset, length), producers=producers[:3],
            extra={"kind": name},
        )
        result = self.call(child)
        frame.gas.return_gas(result.gas_left)
        if result.success:
            frame.gas.refund += result.refund
            frame.logs.extend(result.logs)
            self._push(frame, result.created_address or 0, step_index)
        else:
            self._push(frame, 0, step_index)
        frame.return_data = result.output if not result.success else b""
        frame.pc += 1

    def _op_selfdestruct(self, frame: Frame, info) -> None:
        pc = frame.pc
        if frame.msg.is_static:
            raise WriteInStaticContext("SELFDESTRUCT in static context")
        (raw,), producers = self._pop(frame, 1)
        beneficiary = raw & ADDRESS_MASK
        frame.gas.consume(info.gas, "SELFDESTRUCT")
        balance = self.state.get_balance(frame.msg.to)
        if balance:
            self.state.set_balance(
                beneficiary, self.state.get_balance(beneficiary) + balance
            )
        self.state.set_balance(frame.msg.to, 0)
        self.state.delete_account(frame.msg.to)
        self._trace(
            frame, info, pc, info.gas,
            operands=(raw,), producers=producers,
            extra={"beneficiary": beneficiary},
        )
        frame.output = b""
        raise _StopFrame


def _build_handlers() -> dict:
    from .opcodes import OPCODES, Category

    handlers: dict = {}
    for op in OPCODES.values():
        if op.category is Category.ARITHMETIC:
            handlers[op.name] = EVM.op_arith
        elif op.category is Category.LOGIC:
            handlers[op.name] = EVM.op_logic
        elif op.category is Category.SHA:
            handlers[op.name] = EVM.op_sha3
        elif op.category is Category.FIXED_ACCESS:
            handlers[op.name] = EVM.op_fixed
        elif op.category is Category.STATE_QUERY:
            handlers[op.name] = EVM.op_state_query
        elif op.category is Category.MEMORY:
            handlers[op.name] = EVM.op_memory
        elif op.category is Category.STORAGE:
            handlers[op.name] = EVM.op_storage
        elif op.category is Category.BRANCH:
            handlers[op.name] = EVM.op_branch
        elif op.category is Category.STACK:
            handlers[op.name] = EVM.op_stack
        elif op.category is Category.CONTROL:
            handlers[op.name] = EVM.op_control
        elif op.category is Category.CONTEXT:
            handlers[op.name] = EVM.op_context
    return handlers


# Mnemonic-keyed table (kept: external tools and _step dispatch by name).
_HANDLERS = _build_handlers()


def _build_handlers_by_byte() -> tuple:
    """256-entry dispatch table for the legacy loop.

    Built once at import so the traced path pays one tuple index per step
    instead of an ``opcodes.info`` call plus a string-keyed dict lookup.
    INVALID and undefined bytes map to None (the loop raises
    :class:`InvalidOpcode`).
    """
    table: list = [None] * 256
    for value in range(256):
        info = opcodes.INFO_BY_BYTE[value]
        if info is None or info.name == "INVALID":
            continue
        table[value] = _HANDLERS[info.name]
    return tuple(table)


_HANDLERS_BY_BYTE = _build_handlers_by_byte()
