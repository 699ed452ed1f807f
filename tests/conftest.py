"""Shared fixtures.

The full deployment is expensive (compiles the contract suite and seeds
genesis), so it is built once per session; tests that mutate state copy
it first (``deployment.state.copy()``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

# Deterministic property tests: a released reproduction must not flake on
# fresh machines without a hypothesis example database.
settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# Same, with more examples per property: CI selects it for the suites
# that hold two statements of one rule together (``--hypothesis-profile
# thorough`` on the closed-form transfer differential test).
settings.register_profile(
    "thorough", settings.get_profile("repro"), max_examples=1000
)
settings.load_profile("repro")

from repro.chain import Transaction, WorldState  # noqa: E402
from repro.chain.artifact import execute_tracked  # noqa: E402
from repro.contracts import build_deployment  # noqa: E402
from repro.contracts.asm import assemble  # noqa: E402
from repro.evm import EVM, BlockContext, Tracer  # noqa: E402
from repro.storage.codec import (  # noqa: E402
    decode_wal_record,
    state_digest_bytes,
)
from repro.storage.wal import scan_wal  # noqa: E402

ALICE = 0xA11CE
BOB = 0xB0B
CONTRACT = 0xC0DE


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden fixtures (tests/obs/golden/) instead of "
             "comparing against them; review the diff before committing",
    )
    parser.addoption(
        "--gas-stride", type=int, default=127,
        help="step between the gas limits the entry-point sweep of "
             "tests/evm/test_decoded_equivalence.py runs (1: every "
             "limit, as CI runs it)",
    )


@pytest.fixture(scope="session")
def deployment():
    """The genesis deployment (shared, treat as read-only)."""
    return build_deployment()


@pytest.fixture()
def state():
    """A fresh world state with two funded accounts."""
    world = WorldState()
    world.set_balance(ALICE, 10**21)
    world.set_balance(BOB, 10**21)
    world.clear_journal()
    return world


def run_code(state, source: str, data: bytes = b"", value: int = 0,
             sender: int = ALICE, address: int = CONTRACT,
             gas_limit: int = 5_000_000):
    """Assemble, deploy and execute a program; return (receipt, tracer).

    The program runs twice — observed on *state*, and trace-free (the
    block-compiled loop that serves requests) on a copy — and both must
    leave the same receipt and state, so every expected value a caller
    asserts on the returned receipt holds for both loops.
    """
    state.set_code(address, assemble(source))
    untraced_state = state.copy()
    tracer = Tracer()
    tx = Transaction(sender=sender, to=address, data=data, value=value,
                     gas_limit=gas_limit)
    receipt = EVM(state, tracer=tracer).execute_transaction(tx)
    assert EVM(untraced_state).execute_transaction(tx) == receipt
    assert state_digest_bytes(untraced_state) == state_digest_bytes(state)
    return receipt, tracer


@pytest.fixture()
def run():
    """The run_code helper as a fixture."""
    return run_code


def execute_observed(state, tx, context=None, tracer=None) -> tuple:
    """Run *tx* on *state* (left as executed) and say what it did: its
    artifact (receipt and access sets — what a DAG is built from), its
    undo-journal slice (``changes_since``: every write with the value it
    replaced, in order) and what each of those writes left. From one
    pre-state those two are the whole post-state: nothing else moved.
    (A full ``state_digest_bytes`` per transaction re-hashes a token's
    whole storage after every write: several times slower over the
    entry-point sweep, for nothing this does not already pin.)"""
    token = state.snapshot()
    artifact = execute_tracked(
        state, tx, context or BlockContext(), tracer=tracer
    )
    changes = state.changes_since(token)
    return artifact, changes, [_left(state, entry) for entry in changes]


def _left(state, entry):
    """What the write an undo-journal *entry* records left in *state*
    (raw reads: no access tracking)."""
    kind, account = entry[0], state._accounts.get(entry[1])
    if account is None or kind in ("created", "deleted"):
        return account is not None
    if kind == "storage":
        return account.storage.get(entry[2])
    return getattr(account, kind)  # balance, nonce, code


def assert_loops_agree(state, txs, context=None) -> list:
    """Run *txs* in order on two copies of *state*, trace-free and
    observed, and require transaction by transaction the same execution
    (:func:`assert_same_execution`) — by induction, the same state
    before and after every transaction — and the same state digest
    after the block. Returns the trace-free receipts."""
    runs = []
    for tracer in (None, Tracer):
        world = state.copy()
        observed = [
            execute_observed(world, tx, context,
                             tracer=tracer() if tracer else None)
            for tx in txs
        ]
        runs.append((observed, state_digest_bytes(world)))
    (fast, fast_digest), (observed, observed_digest) = runs
    for ours, theirs in zip(fast, observed, strict=True):
        assert_same_execution(ours, theirs)
    assert fast_digest == observed_digest
    return [artifact.receipt for artifact, _, _ in fast]


def assert_same_execution(ours, theirs) -> None:
    """Two :func:`execute_observed` runs of one transaction from the
    same state did the same thing: same receipt (success, gas, error
    class, logs, output), same access reads and writes, same writes
    with the same old values in the same order, and the same values
    left by them. What it read is a function of that state."""
    (ours, our_changes, our_left) = ours
    (theirs, their_changes, their_left) = theirs
    assert ours.receipt == theirs.receipt
    assert ours.access.reads == theirs.access.reads
    assert ours.access.writes == theirs.access.writes
    assert our_changes == their_changes
    assert our_left == their_left


def wal_witnesses(store) -> dict[int, bytes]:
    """height -> the block witness *store*'s WAL record of that block
    carries (where a witness-emitting node's witnesses live)."""
    records = map(decode_wal_record, scan_wal(store.wal_path).records)
    return {
        record.block.header.height: record.witness
        for record in records if record.witness
    }


def refuse_next_append(store, site="append", half_written=False):
    """The next ``ChainStore.append_block`` gets an ``OSError`` out of
    *site* — ``append`` / ``sync`` on the WAL writer, or the
    ``snapshot`` write — once; *half_written*: the append puts half its
    record in the log first."""
    from repro.storage import snapshot
    from repro.storage.wal import frame_record

    error = OSError(28, "No space left on device")
    if site == "snapshot":
        owner, name = snapshot, "atomic_write"
    else:
        owner, name = store._writer, site
    real = getattr(owner, name)

    def refuse(*args):
        setattr(owner, name, real)
        if half_written:
            record = frame_record(*args)
            store._writer._fh.write(record[:len(record) // 2])
        raise error

    setattr(owner, name, refuse)


def foreign_proposer(state):
    """A proposer whose coinbase and clock are not a default node's: what
    it seals, a follower reproduces only from the header."""
    from repro.chain.node import Node, StageClock

    return Node(
        state=state, coinbase=0xBEEF, clock=StageClock(block_interval=7)
    )


#: A contract that writes down the block environment it ran in — what a
#: node's context looks like from the inside, BLOCKHASH window included.
BLOCK_ENV = 0xE27
_BLOCK_ENV_SLOTS = (
    "COINBASE", "TIMESTAMP", "NUMBER", "GASLIMIT",
    "PUSH 1\nNUMBER\nSUB\nBLOCKHASH",     # BLOCKHASH(height - 1)
    "PUSH 256\nNUMBER\nSUB\nBLOCKHASH",   # BLOCKHASH(height - 256)
    "PUSH 257\nNUMBER\nSUB\nBLOCKHASH",   # one past the window: 0
    "NUMBER\nBLOCKHASH",                  # not a parent: 0
)


def block_env_state():
    """A small world holding the block-environment contract and ALICE."""
    world = WorldState()
    world.set_balance(ALICE, 10**21)
    world.set_code(BLOCK_ENV, assemble("\n".join(
        f"{read}\nPUSH {slot}\nSSTORE"
        for slot, read in enumerate(_BLOCK_ENV_SLOTS)
    ) + "\nSTOP"))
    world.clear_journal()
    return world


def block_env_call(nonce: int = 0):
    return Transaction(
        sender=ALICE, to=BLOCK_ENV, nonce=nonce, gas_limit=500_000
    )


def block_env_seen(state) -> list:
    """[coinbase, timestamp, number, gas limit, BLOCKHASH(height - 1),
    BLOCKHASH(height - 256), BLOCKHASH(height - 257), BLOCKHASH(height)]
    as the contract's last call stored them."""
    return [
        state.get_storage(BLOCK_ENV, slot)
        for slot in range(len(_BLOCK_ENV_SLOTS))
    ]
