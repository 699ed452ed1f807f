"""Execution tracing with dataflow provenance.

The tracer is the bridge between the functional EVM and everything the
paper's accelerator does with *how* code executed:

* The MTPU timing model replays traces through the fill unit / DB cache /
  pipeline to count cycles.
* The hotspot optimizer backtracks operand provenance to find *constant
  instructions* (paper section 3.4.3) and prefetchable access keys
  (section 3.4.4).

Each executed instruction becomes a :class:`TraceStep` that records, for
every popped operand, the index of the trace step that *produced* it (via
a shadow stack maintained alongside the real operand stack). PUSH
immediates and fixed-access results are the provenance roots. Steps are
built by :func:`repro.evm.decoded.run_observed`, which watches the one
set of instruction handlers from outside; its docstring has the rule for
which instructions leave a step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .opcodes import OpcodeInfo

#: Producer id for operands that predate the trace (frame inputs).
EXTERNAL_PRODUCER = -1


@dataclass
class TraceStep:
    """One executed instruction with dataflow annotations."""

    index: int  # position in the flat trace
    pc: int
    op: OpcodeInfo
    immediate: int | None  # PUSH immediate value
    #: The frame's gas meter after the instruction minus before it. For a
    #: call-family instruction that includes the forwarded gas that did not
    #: come back (so a value call that returns its stipend reads lower than
    #: its static charge).
    gas_cost: int
    depth: int  # call depth of the frame
    code_address: int  # contract whose bytecode is executing
    operands: tuple[int, ...] = ()  # popped values, stack-top first
    producers: tuple[int, ...] = ()  # trace index producing each operand
    #: Pushed values; () on a call-family step, whose pushed word is the
    #: callee's verdict (consumers name the call step as its producer).
    results: tuple[int, ...] = ()
    #: The op-specific details a consumer reads: ``address`` + ``slot`` on
    #: SLOAD/SSTORE, ``address`` on BALANCE/EXTCODE*, ``length`` on SHA3,
    #: ``target`` on the four calls, ``target`` + ``taken`` on JUMP/JUMPI.
    extra: dict = field(default_factory=dict)

    @property
    def category(self):
        """Functional-unit category (paper Table 3)."""
        return self.op.category


@dataclass
class CallRecord:
    """Context-switch bookkeeping: one message call's span in the trace."""

    depth: int
    code_address: int
    kind: str
    start_index: int
    end_index: int = -1
    success: bool = True


class Tracer:
    """Collects a flat instruction trace across all call frames."""

    def __init__(self) -> None:
        self.steps: list[TraceStep] = []
        self.calls: list[CallRecord] = []
        self._open_calls: list[CallRecord] = []

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def next_index(self) -> int:
        """Index the next recorded step will get (used for shadow stacks)."""
        return len(self.steps)

    def record(self, step: TraceStep) -> None:
        self.steps.append(step)

    def enter_call(self, depth: int, code_address: int, kind: str) -> None:
        record = CallRecord(depth, code_address, kind, self.next_index)
        self._open_calls.append(record)
        self.calls.append(record)

    def exit_call(self, success: bool) -> None:
        record = self._open_calls.pop()
        record.end_index = self.next_index
        record.success = success

    def withdraw(self, step: TraceStep) -> None:
        """Take back *step*: a call recorded ahead of its callee, then
        refused before the callee started."""
        del self.steps[step.index:]

    # -- convenience queries --------------------------------------------------
    def instruction_count(self) -> int:
        """Number of executed instructions."""
        return len(self.steps)

    def gas_total(self) -> int:
        """Gas the traced execution consumed: the charges of the outermost
        (depth-0) frames' steps. A callee's steps are not added again —
        what it burned is already in its caller's call step."""
        return sum(step.gas_cost for step in self.steps if step.depth == 0)

    def category_histogram(self) -> dict[str, int]:
        """Instruction count per functional-unit category (paper Table 6)."""
        histogram: dict[str, int] = {}
        for step in self.steps:
            key = step.op.category.value
            histogram[key] = histogram.get(key, 0) + 1
        return histogram


class NullTracer(Tracer):
    """A tracer that drops everything (zero-overhead-ish functional runs)."""

    def record(self, step: TraceStep) -> None:  # noqa: D102
        pass

    def enter_call(self, depth: int, code_address: int, kind: str) -> None:  # noqa: D102
        pass

    def exit_call(self, success: bool) -> None:  # noqa: D102
        pass
