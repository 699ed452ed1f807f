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
from repro.contracts import build_deployment  # noqa: E402
from repro.contracts.asm import assemble  # noqa: E402
from repro.evm import EVM, Tracer  # noqa: E402
from repro.storage.codec import state_digest_bytes  # noqa: E402

ALICE = 0xA11CE
BOB = 0xB0B
CONTRACT = 0xC0DE


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden fixtures (tests/obs/golden/) instead of "
             "comparing against them; review the diff before committing",
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
    fused loop that serves requests) on a copy — and both must leave the
    same receipt and state, so every expected value a caller asserts on
    the returned receipt holds for both loops.
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
