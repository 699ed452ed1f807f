"""Code as the transaction ran it: the MTPU's timing reads code — the
fill unit's decode, context setup, call-target loads and the hotspot
optimizer's stale-plan check — and each read must see the code the
address held as that transaction left it, not what later transactions
in the same block made of it. (The MTPU times a block after the whole
of it has been applied.)

Two blocks whose second transaction depends on code the first one
changed: a CREATE followed by a call into the new contract, and a call
followed by the callee's SELFDESTRUCT. Each runs on one PU in block
order and on four under the spatio-temporal schedule, with a hotspot
plan for the contract involved; receipts, per-transaction cycles and
the ``fill.lines_built`` / ``hotspot.stale_chunks`` /
``hotspot.stale_plans`` counters are pinned.
"""

import pytest

from repro.chain import Transaction
from repro.chain.dag import build_dag_edges
from repro.contracts.asm import assemble
from repro.core.hotspot import HotspotOptimizer
from repro.core.mtpu import MTPUExecutor
from repro.core.scheduler import run_sequential, run_spatial_temporal
from repro.crypto import contract_address
from repro.experiments.common import trace_once
from repro.obs import use_registry

DEPLOYER = 0xD3910
CALLER = 0xCA11E5
VICTIM = 0xC0DE5
SELECTOR = bytes.fromhex("11111111")
KILL = bytes.fromhex("deadbeef")

COUNTER = assemble(
    "PUSH 0\nSLOAD\nPUSH 1\nADD\nPUSH 0\nSSTORE\nSTOP"
)
#: Bumps slot 0, or self-destructs when called with ``KILL``.
KILLABLE = assemble("""
    PUSH 0
    CALLDATALOAD
    PUSH 0xe0
    SHR
    PUSH 0xdeadbeef
    EQ
    PUSH @kill
    JUMPI
    PUSH 0
    SLOAD
    PUSH 1
    ADD
    PUSH 0
    SSTORE
    STOP
kill:
    PUSH 0xb0b
    SELFDESTRUCT
""")
#: Returns ``COUNTER`` as the created contract's code.
INIT = assemble(
    f"PUSH32 {int.from_bytes(COUNTER.ljust(32, bytes(1)), 'big'):#x}\n"
    f"PUSH 0\nMSTORE\nPUSH {len(COUNTER)}\nPUSH 0\nRETURN"
)
#: The sender's nonce is bumped before the address is derived.
CREATED = contract_address(DEPLOYER, 1)


def genesis(deployment):
    state = deployment.state.copy()
    for account in (DEPLOYER, CALLER):
        state.set_balance(account, 10**18)
    state.set_code(VICTIM, KILLABLE)
    state.clear_journal()
    return state


def call(to, data, nonce):
    return Transaction(sender=CALLER, to=to, data=data, nonce=nonce,
                       gas_limit=200_000)


def create_then_call():
    return [
        Transaction(sender=DEPLOYER, to=None, data=INIT, nonce=0,
                    gas_limit=300_000),
        call(CREATED, SELECTOR, 1),
    ]


def call_then_destruct():
    return [call(VICTIM, SELECTOR, 1), call(VICTIM, KILL, 2)]


def optimizer_for(deployment, address, code):
    """A hotspot plan for *address*, profiled on a state where it holds
    *code* (the created contract is profiled before it exists)."""
    profiled = genesis(deployment)
    profiled.set_code(address, code)
    optimizer = HotspotOptimizer(profiled, known_fraction=1.0)
    optimizer.optimize_contract(
        address, [call(address, SELECTOR, n) for n in range(10, 14)]
    )
    return optimizer


def time_block(deployment, txs, optimizer, num_pus):
    artifacts = trace_once(genesis(deployment), txs)
    edges = build_dag_edges(txs, artifacts)
    with use_registry() as registry:
        executor = MTPUExecutor(
            artifacts, num_pus=num_pus, hotspot_optimizer=optimizer,
        )
        if num_pus == 1:
            schedule = run_sequential(executor, txs)
        else:
            schedule = run_spatial_temporal(executor, txs, edges)
    cycles = {e.tx.hash(): e.cycles for e in schedule.executions}
    return (
        [
            (r.success, r.gas_used, r.contract_address)
            for r in schedule.receipts_in_block_order(txs)
        ],
        [cycles[tx.hash()] for tx in txs],
        registry.total("fill.lines_built"),
        registry.total("hotspot.stale_chunks"),
        registry.total("hotspot.stale_plans"),
    )


CASES = {
    "create_then_call": (create_then_call, CREATED, COUNTER),
    "call_then_destruct": (call_then_destruct, VICTIM, KILLABLE),
}

#: Recorded when the MTPU still executed each transaction itself,
#: reading code off the state as it went (the hotspot optimizer reading
#: the same state, as on a node): what each address held right after
#: the transaction being timed.
PINNED = {
    ("create_then_call", 1): (
        [(True, 55350, CREATED), (True, 41276, None)], [9, 19], 4, 1, 0,
    ),
    ("create_then_call", 4): (
        [(True, 55350, CREATED), (True, 41276, None)], [9, 19], 4, 1, 0,
    ),
    ("call_then_destruct", 1): (
        [(True, 41307, None), (True, 26099, None)], [19, 47], 9, 0, 1,
    ),
    ("call_then_destruct", 4): (
        [(True, 41307, None), (True, 26099, None)], [19, 47], 9, 0, 1,
    ),
}


@pytest.mark.parametrize("num_pus", [1, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_timing_reads_code_as_the_transaction_ran_it(
    deployment, case, num_pus
):
    make, address, code = CASES[case]
    got = time_block(
        deployment, make(), optimizer_for(deployment, address, code),
        num_pus,
    )
    assert got == PINNED[case, num_pus]
