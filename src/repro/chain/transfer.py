"""Closed-form pre-execution of plain transfers.

The paper's hotspot optimiser pre-executes chunks whose outcome depends
only on transaction attributes. A message call to an account that holds
no code is the degenerate case: the whole transaction is such a chunk.
Nothing runs there — calldata, if any, is paid for in the intrinsic gas
and ignored — so its receipt, access set and effects are a function of
``(tx, sender balance and nonce, recipient balance, coinbase, intrinsic
gas)`` and can be written down without an ``EVM``, a ``Message``, a
``Frame`` or a gas meter.

This module is the repo's one statement of that function:

* :func:`is_plain_transfer` — the predicate (a property of the input,
  never a switch);
* :func:`transfer_access` — the tracked access keys, shared by the
  admission-time bloom (:func:`repro.chain.bloom.bloom_for_transaction`)
  and by discovery;
* :func:`execute_transfer` — what
  :func:`~repro.chain.artifact.execute_tracked` would have returned (the
  receipt and the access set), with the effects applied in place
  through the journaled setters.

``tests/chain/test_closed_form_transfer.py`` holds it to the interpreter.
"""

from __future__ import annotations

from .artifact import ExecutionArtifact
from .receipt import Receipt
from .state import BALANCE_KEY, CODE_KEY, AccessSet, WorldState
from .transaction import Transaction


def is_plain_transfer(tx: Transaction, state: WorldState) -> bool:
    """True when executing *tx* on *state* runs no code at all.

    Evaluated against the state the transaction will actually see: a
    target whose code an earlier transaction of the same block deployed
    is not plain.
    """
    return tx.to is not None and not state.has_code(tx.to)


def transfer_access(tx: Transaction) -> AccessSet:
    """Tracked access set of a plain transfer that goes through.

    The code probe of the call, plus both balances when value moves.
    The sender's fee payment and nonce bump are outside access tracking
    (they never draw DAG edges); blooms add them as implicit keys. A
    transfer refused before the call (intrinsic gas, balance) touches
    nothing, so this is a superset for every outcome.
    """
    if not tx.value:
        return AccessSet(reads={(tx.to, CODE_KEY)})
    moved = ((tx.sender, BALANCE_KEY), (tx.to, BALANCE_KEY))
    return AccessSet(reads={(tx.to, CODE_KEY), *moved}, writes={*moved})


def execute_transfer(
    state: WorldState, tx: Transaction, coinbase: int, intrinsic: int
) -> ExecutionArtifact:
    """Execute a plain transfer on *state*; the artifact holds the
    receipt and the access set only, as an untraced EVM execution's does.

    The caller has checked :func:`is_plain_transfer` and suspended access
    tracking. The order of checks and effects is the interpreter's:
    intrinsic gas, balance ≥ value (neither bumps the nonce nor charges
    a fee), nonce bump, value move, then the fee — capped at what the
    sender has left — credited to the coinbase.
    State is read through the normal getters, so a witness-emitting node
    records the same reads the interpreter would have made.
    """
    sender, to, value = tx.sender, tx.to, tx.value
    balance = state.get_balance(sender)

    error = ""
    if intrinsic > tx.gas_limit:
        gas_used, error = tx.gas_limit, "intrinsic gas exceeds limit"
    elif balance < value:
        gas_used, error = intrinsic, "insufficient balance for value"
    if error:
        receipt = Receipt(tx.hash(), False, gas_used, error=error)
        return ExecutionArtifact(tx, receipt, AccessSet())

    # Balances by address, in the order the interpreter first touches
    # them; keying by address makes a self-transfer and a sender or
    # recipient that is the coinbase fall out of the same arithmetic.
    entry = {
        sender: balance,
        to: state.get_balance(to),
        coinbase: state.get_balance(coinbase),
    }
    fee = intrinsic * tx.gas_price
    post = dict(entry)
    post[sender] -= value
    post[to] += value
    post[sender] = max(0, post[sender] - fee)
    post[coinbase] += fee

    state.increment_nonce(sender)
    for address, final in post.items():
        if final != entry[address]:
            state.set_balance(address, final)
    return ExecutionArtifact(
        tx, Receipt(tx.hash(), True, intrinsic), transfer_access(tx)
    )
