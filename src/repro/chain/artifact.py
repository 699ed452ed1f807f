"""Execution artifacts: what one transaction's execution left behind.

Consensus-stage pre-execution (``discover_access_sets``) is the block's
one execution, applied in place, and it keeps what each transaction did
in an :class:`ExecutionArtifact`: the receipt and the access set, from
which the DAG is built. A traced discovery — the one the MTPU times —
adds the dataflow trace and the code its timing reads, taken as the
transaction left it: the MTPU times the block after all of it has been
applied, so what a later transaction of the same block does to that code
must not reach the timing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..evm.opcodes import Category
from .receipt import Receipt
from .state import AccessSet, WorldState
from .transaction import Transaction


@dataclass
class ExecutionArtifact:
    """Everything one pre-execution produced.

    ``steps`` is the dataflow trace and ``code`` maps every address the
    MTPU's timing reads code at (:func:`code_as_left`) to that code;
    both are ``None`` unless the pre-execution was traced.
    """

    tx: Transaction
    receipt: Receipt
    access: AccessSet
    steps: list | None = None
    code: dict[int, bytes] | None = None

    # AccessSet-compatible surface, so artifact lists drop into every
    # consumer of ``discover_access_sets`` (DAG building, verification).
    @property
    def reads(self) -> set:
        return self.access.reads

    @property
    def writes(self) -> set:
        return self.access.writes

    def conflicts_with(self, other) -> bool:
        access = other.access if hasattr(other, "access") else other
        return self.access.conflicts_with(access)


def code_as_left(
    state: WorldState, tx: Transaction, steps: list
) -> dict[int, bytes]:
    """The code at every address the MTPU's timing reads for *tx* — its
    target (context setup, the hotspot plan's stale check), every
    executing frame's code (the fill unit) and every call target (the
    Call_Contract Stack) — as *state* holds it right after *tx*.

    Raw account reads: no access tracking, no witness touch.
    """
    addresses = {step.code_address for step in steps}
    for step in steps:
        if step.op.category is Category.CONTEXT:
            target = step.extra.get("target")
            if target is not None:
                addresses.add(target)
    if tx.to is not None:
        addresses.add(tx.to)
    code = {}
    for address in addresses:
        account = state._accounts.get(address)
        code[address] = account.code if account is not None else b""
    return code


def execute_tracked(
    state: WorldState, tx: Transaction, context, tracer=None
) -> ExecutionArtifact:
    """Run *tx* through the EVM on *state* under access tracking; *state*
    is left as executed. The artifact holds the receipt and the access
    set, and under a *tracer* the trace and the code as *tx* left it."""
    from ..evm.interpreter import EVM  # local import avoids a cycle

    access = state.begin_access_tracking()
    try:
        receipt = EVM(
            state, block=context, tracer=tracer
        ).execute_transaction(tx)
    finally:
        state.end_access_tracking()
    if tracer is None:
        return ExecutionArtifact(tx, receipt, access)
    steps = tracer.steps
    return ExecutionArtifact(
        tx, receipt, access, steps, code_as_left(state, tx, steps)
    )
