"""The reference sequential EVM: transactions, message calls, frames.

This is the functional substrate everything else measures against:

* It defines transaction semantics (the "single PU, sequential" behaviour
  the paper uses as its baseline): fees, nonces, the message-call
  machinery, the frame a call runs in.
* The instruction set itself is stated once, in :mod:`repro.evm.decoded`
  (its templates and ``_h_*`` handlers); this module states no opcode.
  ``EVM._run`` hands a frame's decoded program to one of that module's
  two loops — the trace-free one that runs compiled basic blocks, or,
  under a :class:`~repro.evm.tracer.Tracer`, the observed one that
  produces the dataflow traces driving the MTPU timing model and the
  hotspot optimizer.
* One statement of each opcode means one deterministic gas consumption
  per transaction (the consistency constraint of paper section 3.3.3),
  traced or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.receipt import LogEntry, Receipt
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto import contract_address, create2_address
from . import decoded
from .context import BlockContext, CallKind, CallResult, Message
from .errors import ExceptionalHalt, Revert
from ..obs import get_registry
from .gas import DEFAULT_SCHEDULE, GasMeter, GasSchedule
from .memory import Memory
from .stack import Stack
from .tracer import NullTracer, Tracer

MAX_CALL_DEPTH = 1024

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
    # The program's jump destinations, bound once per frame by either
    # loop for the jumps to check against.
    jumpdests: frozenset[int] | None = None


class EVM:
    """A complete EVM: message-call machinery plus the instruction set."""

    def __init__(
        self,
        state: WorldState,
        block: BlockContext | None = None,
        schedule: GasSchedule | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.state = state
        self.block = block or BlockContext()
        self.schedule = schedule or DEFAULT_SCHEDULE
        # Note: "tracer or ..." would misfire — an empty Tracer has
        # __len__() == 0 and is falsy.
        self.tracer = tracer if tracer is not None else NullTracer()
        # Untraced, frames run the trace-free loop of compiled blocks;
        # under a tracer, the observed one (repro.evm.decoded has both).
        self._fast = isinstance(self.tracer, NullTracer)

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
        frame = None  # set once the callee's frame is entered

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
            self._run(frame)

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
            # That, and a create's address collision, refuse the call
            # before its frame is entered: there is no call to close.
            self.state.revert(snapshot)
            if frame is not None:
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
    # The decode-once / gas-check / execute loops (paper Fig. 8a) live in
    # repro.evm.decoded; a frame picks one by whether anything watches.
    # ------------------------------------------------------------------
    def _run(self, frame: Frame) -> None:
        code = frame.code
        if not code:
            frame.halted = True  # empty code: implicit STOP
            return
        program = decoded.DECODE_CACHE.get(code)
        if self._fast:
            decoded.run_program(self, frame, program)
        else:
            decoded.run_observed(self, frame, program)

    def _charge_memory(self, frame: Frame, offset: int, length: int) -> int:
        """Gas for expanding memory to cover [offset, offset+length)."""
        if length == 0:
            return 0
        new_words = (offset + length + 31) // 32
        current = frame.memory.size_words
        if new_words <= current:  # the common case: no growth
            return 0
        return self.schedule.memory_expansion_cost(current, new_words)
