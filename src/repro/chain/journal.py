"""Write journals and execution artifacts (the execute-once pipeline).

Consensus-stage pre-execution (``discover_access_sets``) keeps its work
in an :class:`ExecutionArtifact`. An untraced discovery *is* the block's
execution, so its artifacts hold the receipt and access set only. A
traced one runs for the MTPU, which replays it on the pre-state: its
artifacts add the dataflow trace, the *write journal* (post-values of
every key the transaction mutated) and the *read values* (entry values
of every key the outcome depends on), so a transaction is *replayed* by
applying its journal once its read values are checked to still hold.

Replay soundness: a transaction is a deterministic function of the entry
values of the keys it reads. If every recorded read value matches the
current state, re-execution would reproduce the recorded receipt and
writes exactly, so applying the journal is equivalent to executing — at a
fraction of the cost. When any read value differs (wrong DAG, injected
fault, adversarial access set) the consumer falls back to real execution.

The one non-positional entry is the coinbase fee: fees are credited
outside access tracking (by design — they must not serialize the block),
and every transaction touches the same coinbase balance, so the journal
records the fee as a *delta* op that commutes across transactions rather
than a post-value that would clobber.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .receipt import Receipt
from .state import BALANCE_KEY, CODE_KEY, NONCE_KEY, AccessSet, WorldState
from .transaction import Transaction

# Write ops are tagged tuples, picklable for process workers:
#   ("balance", address, value)        — absolute post-value
#   ("balance_delta", address, delta)  — commutative credit (coinbase fee)
#   ("nonce", address, value)
#   ("code", address, code_bytes)
#   ("storage", address, slot, value)
#   ("delete", address)                — SELFDESTRUCT, account removed


@dataclass
class WriteJournal:
    """Post-state of one transaction as an ordered list of write ops."""

    ops: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def apply(self, state: WorldState) -> None:
        """Replay the ops onto *state* (journaled, access-untracked).

        The replay goes through the normal journaled setters so callers
        can still snapshot/revert across it (the node's whole-block
        rollback and the scheduler's mid-flight retraction rely on this).
        """
        with state.untracked():
            for op in self.ops:
                kind = op[0]
                if kind == "storage":
                    state.set_storage(op[1], op[2], op[3])
                elif kind == "balance":
                    state.set_balance(op[1], op[2])
                elif kind == "balance_delta":
                    state.set_balance(
                        op[1], state.get_balance(op[1]) + op[2]
                    )
                elif kind == "nonce":
                    state.set_nonce(op[1], op[2])
                elif kind == "code":
                    state.set_code(op[1], op[2])
                elif kind == "delete":
                    state.delete_account(op[1])
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown write op {kind!r}")


@dataclass
class ExecutionArtifact:
    """Everything one speculative pre-execution produced.

    ``read_values`` maps ``(address, slot)`` keys — storage slots plus the
    :data:`~repro.chain.state.BALANCE_KEY` / :data:`CODE_KEY` /
    :data:`NONCE_KEY` sentinels — to the value each key held when the
    transaction started executing. ``steps`` is the dataflow trace
    (``None`` unless the pre-execution ran with tracing enabled).

    An artifact nobody replays — an untraced execution
    (:func:`execute_tracked`, or a plain transfer's closed form) — has
    no ``journal`` (``None``: applying it raises) and no read values.
    """

    tx: Transaction
    receipt: Receipt
    access: AccessSet
    journal: WriteJournal | None = None
    read_values: dict[tuple, object] = field(default_factory=dict)
    steps: list | None = None

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

    def is_fresh(self, state: WorldState) -> bool:
        """True when every recorded read value still matches *state*.

        Untracked reads, so the check itself never pollutes dependency
        analysis. Freshness is exactly the replay-soundness condition:
        fresh ⇒ applying :attr:`journal` equals re-executing :attr:`tx`.
        """
        with state.untracked():
            for (address, slot), expected in self.read_values.items():
                if _read_key(state, address, slot) != expected:
                    return False
        return True


def _journal_key(entry: tuple) -> tuple | None:
    """Map a state-journal entry to its (address, slot) key."""
    kind = entry[0]
    if kind == "storage":
        return (entry[1], entry[2])
    if kind == "balance":
        return (entry[1], BALANCE_KEY)
    if kind == "nonce":
        return (entry[1], NONCE_KEY)
    if kind == "code":
        return (entry[1], CODE_KEY)
    return None  # created/deleted handled at the account level


def _read_key(state: WorldState, address: int, slot) -> object:
    if slot == BALANCE_KEY:
        return state.get_balance(address)
    if slot == NONCE_KEY:
        return state.get_nonce(address)
    if slot == CODE_KEY:
        return state.get_code(address)
    return state.get_storage(address, slot)


def execute_tracked(
    state: WorldState, tx: Transaction, context, tracer=None
) -> ExecutionArtifact:
    """Run *tx* through the EVM on *state* under access tracking; *state*
    is left as executed. The artifact holds the receipt and the access
    set only."""
    from ..evm.interpreter import EVM  # local import avoids a cycle

    access = state.begin_access_tracking()
    try:
        receipt = EVM(
            state, block=context, tracer=tracer
        ).execute_transaction(tx)
    finally:
        state.end_access_tracking()
    return ExecutionArtifact(tx, receipt, access)


def execute_captured(
    state: WorldState, tx: Transaction, context, tracer=None
) -> ExecutionArtifact:
    """:func:`execute_tracked`, then capture what it did
    (:func:`capture_artifact`) so the artifact can be replayed."""
    token = state.snapshot()
    run = execute_tracked(state, tx, context, tracer)
    return capture_artifact(
        state, tx, run.receipt, run.access, state.changes_since(token),
        coinbase=context.coinbase,
        steps=tracer.steps if tracer is not None else None,
    )


def capture_artifact(
    state: WorldState,
    tx: Transaction,
    receipt: Receipt,
    access: AccessSet,
    changes: list[tuple],
    coinbase: int,
    steps: list | None = None,
) -> ExecutionArtifact:
    """Build an artifact for a transaction that just executed on *state*.

    *changes* is ``state.changes_since(token)`` for a snapshot taken
    immediately before the transaction ran; the current state holds the
    transaction's post-values. Entry values come from the journal's old
    values (first entry per key wins), so nothing is re-executed or
    reverted here.
    """
    entry_values: dict[tuple, object] = {}
    deleted: dict[int, object] = {}
    created: set[int] = set()
    order: list[tuple] = []
    for entry in changes:
        kind = entry[0]
        if kind == "created":
            created.add(entry[1])
            continue
        if kind == "deleted":
            if entry[1] not in deleted:
                deleted[entry[1]] = entry[2]
            continue
        key = _journal_key(entry)
        if key not in entry_values:
            entry_values[key] = entry[-1]
            order.append(key)

    ops: list[tuple] = []
    fee_delta = 0
    with state.untracked():
        # Accounts deleted and not recreated vanish entirely; deleted-
        # then-recreated accounts are rebuilt field by field from scratch.
        for address, old_acct in deleted.items():
            if not state.has_account(address):
                ops.append(("delete", address))
                continue
            ops.append(("delete", address))
            ops.append(("balance", address, state.get_balance(address)))
            ops.append(("nonce", address, state.get_nonce(address)))
            ops.append(("code", address, state.get_code(address)))
            acct = state._accounts[address]
            for slot, value in sorted(acct.storage.items()):
                ops.append(("storage", address, slot, value))
        for key in order:
            address, slot = key
            if address in deleted:
                continue  # already rebuilt above
            current = _read_key(state, address, slot)
            old = entry_values[key]
            if slot not in (BALANCE_KEY, NONCE_KEY, CODE_KEY):
                old = 0 if old is None else old
            if current == old:
                continue  # net no-op (e.g. write-then-revert)
            if slot == BALANCE_KEY and address == coinbase:
                fee_delta += current - old
                continue
            if slot == BALANCE_KEY:
                ops.append(("balance", address, current))
            elif slot == NONCE_KEY:
                ops.append(("nonce", address, current))
            elif slot == CODE_KEY:
                ops.append(("code", address, current))
            else:
                ops.append(("storage", address, slot, current))
        if fee_delta:
            ops.append(("balance_delta", coinbase, fee_delta))

        # Read values: the tracked read set, plus the implicit untracked
        # dependencies — the sender's balance (value check + fee payment),
        # the sender's nonce, and the entry value of every nonce the
        # transaction bumped (CREATE address derivation).
        read_values: dict[tuple, object] = {}
        implicit = [(tx.sender, BALANCE_KEY), (tx.sender, NONCE_KEY)]
        for key in list(access.reads) + implicit:
            address, slot = key
            if key in entry_values:
                old = entry_values[key]
                if slot not in (BALANCE_KEY, NONCE_KEY, CODE_KEY):
                    old = 0 if old is None else old
                read_values[key] = old
            elif address in deleted or address in created:
                # Key belongs to an account this tx deleted/created and
                # the specific field was never journaled: its entry value
                # is the pre-state of the (deleted) account or zero.
                if address in deleted:
                    acct = deleted[address]
                    if slot == BALANCE_KEY:
                        read_values[key] = acct.balance
                    elif slot == NONCE_KEY:
                        read_values[key] = acct.nonce
                    elif slot == CODE_KEY:
                        read_values[key] = acct.code
                    else:
                        read_values[key] = acct.storage.get(slot, 0)
                else:
                    read_values[key] = (
                        b"" if slot == CODE_KEY else 0
                    )
            else:
                read_values[key] = _read_key(state, address, slot)
        for key, old in entry_values.items():
            if key[1] == NONCE_KEY and key not in read_values:
                read_values[key] = old

    return ExecutionArtifact(
        tx=tx,
        receipt=receipt,
        access=access,
        journal=WriteJournal(ops),
        read_values=read_values,
        steps=steps,
    )
