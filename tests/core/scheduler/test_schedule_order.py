"""The schedule audit: a schedule's order must be a linear extension of
the conflict relation (``check_schedule_order``).

The MTPU writes no state, so "the state after the schedule equals
sequential" would check nothing. Instead every conflicting pair ``i < j``
(the pairwise reference builder's) must have ``j`` start no earlier than
``i`` ended. A DAG missing one conflict edge lets the spatio-temporal
scheduler run the pair side by side; the audit refuses that schedule,
and a node running the ``mtpu`` engine rolls the block back.
"""

import pytest

import repro.chain.node as node_module
from repro.chain import Transaction
from repro.chain.block import Block
from repro.chain.dag import (
    DagVerification,
    ScheduleOrderError,
    build_dag_edges,
    check_schedule_order,
    transitive_reduction,
)
from repro.chain.node import Node
from repro.contracts.asm import assemble
from repro.core.mtpu import MTPUExecutor
from repro.core.scheduler import run_sequential, run_spatial_temporal
from repro.experiments.common import trace_once
from repro.storage.codec import state_digest_bytes

COUNTER = 0xC0DE
SENDERS = [0x5E00 + i for i in range(4)]


def genesis(deployment):
    state = deployment.state.copy()
    state.set_code(COUNTER, assemble(
        "PUSH 0\nSLOAD\nPUSH 1\nADD\nPUSH 0\nSSTORE\nSTOP"
    ))
    for sender in SENDERS:
        state.set_balance(sender, 10**18)
    state.clear_journal()
    return state


def bumps():
    """Four senders bump one slot: every pair conflicts, and the reduced
    DAG is the chain 0 -> 1 -> 2 -> 3."""
    return [
        Transaction(sender=sender, to=COUNTER, gas_limit=100_000)
        for sender in SENDERS
    ]


def reduced_dag(txs, artifacts):
    return transitive_reduction(len(txs), build_dag_edges(txs, artifacts))


def schedule(artifacts, txs, edges, num_pus=2):
    return run_spatial_temporal(
        MTPUExecutor(artifacts, num_pus=num_pus), txs, edges
    )


def test_full_dag_passes(deployment):
    txs = bumps()
    artifacts = trace_once(genesis(deployment), txs)
    edges = reduced_dag(txs, artifacts)
    assert edges == [(0, 1), (1, 2), (2, 3)]
    for result in (
        schedule(artifacts, txs, edges),
        run_sequential(MTPUExecutor(artifacts, num_pus=1), txs),
    ):
        check_schedule_order(txs, artifacts, result.executions)


def test_a_dropped_conflict_edge_is_refused(deployment):
    txs = bumps()
    artifacts = trace_once(genesis(deployment), txs)
    edges = [edge for edge in reduced_dag(txs, artifacts) if edge != (0, 1)]
    result = schedule(artifacts, txs, edges)
    spans = {e.index: (e.start_cycle, e.end_cycle) for e in result.executions}
    # Nothing orders 0 before 1 any more: they start together.
    assert spans[1][0] < spans[0][1]
    with pytest.raises(ScheduleOrderError, match="transactions 0 and 1"):
        check_schedule_order(txs, artifacts, result.executions)


def test_a_transaction_timed_twice_or_never_is_refused(deployment):
    txs = bumps()
    artifacts = trace_once(genesis(deployment), txs)
    executions = run_sequential(
        MTPUExecutor(artifacts, num_pus=1), txs
    ).executions
    with pytest.raises(ScheduleOrderError, match="never ran"):
        check_schedule_order(txs, artifacts, executions[:-1])
    with pytest.raises(ScheduleOrderError, match="ran twice"):
        check_schedule_order(txs, artifacts, executions + executions[:1])


def where(node):
    """Everything a block may touch, bit for bit."""
    return (
        state_digest_bytes(node.state),
        node.state_root,
        list(node.state._journal),
        list(node.chain),
    )


def proposer(deployment):
    node = Node(state=genesis(deployment))
    for tx in bumps():
        node.hear(tx)
    return node


def test_own_proposal_with_a_dropped_edge_rolls_back(deployment):
    """The proposer times its own proposal on the DAG the block carries;
    with an edge gone from it the audit refuses the schedule, and the
    node ends where the proposal found it."""
    node = proposer(deployment)
    before = where(node)
    block = node.propose_block(executor="mtpu")
    block.dag_edges = [edge for edge in block.dag_edges if edge != (0, 1)]
    with pytest.raises(ScheduleOrderError):
        node.execute_block(block, executor="mtpu", num_workers=2)
    assert where(node) == before


def test_foreign_block_past_a_broken_dag_check_rolls_back(
    deployment, monkeypatch
):
    """A follower checks the shipped DAG before scheduling on it. Were
    that check broken, the audit — which shares no code with it or with
    the scheduler — still refuses the schedule."""
    block = proposer(deployment).propose_block(executor="mtpu")
    shipped = Block.from_rlp(block.to_rlp())
    shipped.dag_edges = [
        edge for edge in shipped.dag_edges if edge != (0, 1)
    ]
    monkeypatch.setattr(
        node_module, "checked_dag",
        lambda transactions, edges, artifacts: (
            edges, DagVerification(ok=True)
        ),
    )
    follower = Node(state=genesis(deployment))
    before = where(follower)
    with pytest.raises(ScheduleOrderError):
        follower.execute_block(shipped, executor="mtpu", num_workers=2)
    assert where(follower) == before
