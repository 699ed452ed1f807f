"""A block is full when its gas is spent, not when it is promised.

``Node.propose_block`` takes candidates by count, lets the discovery
pass fill the block by the gas it *measured*
(``discover_access_sets(..., gas_target=)`` states the rule) and puts
the candidates that did not fit back at the front of the pool. Nothing
selects that path but the target, so this suite holds it to what it
promises: every block within the target and maximal, no transaction
lost, duplicated or reordered by a round trip through ``put_back``, the
pool's running totals exact, and the chain it builds bit-identical to
sequential replay of the arrival order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction
from repro.chain.dag import discover_access_sets
from repro.chain.node import EXECUTORS, Node
from repro.evm.interpreter import EVM
from repro.obs import use_registry
from repro.serve.loadgen import make_transactions

#: TOP8 calls promise 5M gas each and use 30k-90k: the two bounds differ
#: by two orders of magnitude on them.
NUM_CALLS = 24

#: Targets that bind early (below one call's promise: a call fits only as
#: a block's first transaction), late (room for a few calls' promises
#: once the ones before them are measured) and never.
TARGET = st.one_of(
    st.integers(21_000, 400_000),
    st.integers(5_000_000, 5_400_000),
    st.just(30_000_000),
)
#: A transfer's gas limit, or None for the next TOP8 call.
ARRIVALS = st.lists(
    st.one_of(st.integers(21_000, 200_000), st.none()),
    min_size=1, max_size=NUM_CALLS,
)


def arrival_order(deployment, specs):
    calls = iter(make_transactions(
        deployment, NUM_CALLS, workload="erc20", seed=5
    ))
    accounts = deployment.accounts
    return [
        next(calls) if gas_limit is None else Transaction(
            sender=accounts[index % len(accounts)],
            to=accounts[(index * 7 + 3) % len(accounts)],
            # Nonces only keep the hashes unique; past the calls' own.
            nonce=1_000 + index, value=1 + index, gas_limit=gas_limit,
        )
        for index, gas_limit in enumerate(specs)
    ]


def assert_pool_accounting(pool):
    pending = pool.pending()
    assert len(pool) == len(pending)
    assert pool.pending_gas == sum(tx.gas_limit for tx in pending)
    by_sender: dict[int, int] = {}
    for tx in pending:
        by_sender[tx.sender] = by_sender.get(tx.sender, 0) + 1
    assert pool._by_sender == by_sender


def fill_blocks(node, arrivals, gas_target, max_transactions):
    """Hear *arrivals*, then propose and execute until the pool is empty,
    holding every block to the fill rule; returns the receipts."""
    for tx in arrivals:
        node.hear(tx)
    receipts = []
    while len(node.mempool):
        block = node.propose_block(
            max_transactions=max_transactions, gas_target=gas_target
        )
        count = len(block.transactions)
        assert 1 <= count <= max_transactions
        assert [artifact.tx for artifact in block.artifacts] == (
            block.transactions
        )
        used = sum(a.receipt.gas_used for a in block.artifacts)
        # The invariant: within the target, unless the block is the one
        # transaction that must not wedge the chain.
        assert used <= gas_target or count == 1
        # Maximal: the first transaction left out would not have fit.
        waiting = node.mempool.pending()
        if waiting and count < max_transactions:
            assert waiting[0].gas_limit > gas_target - used
        assert_pool_accounting(node.mempool)
        receipts.extend(node.execute_block(block))
    return receipts


@settings(deadline=None)
@given(specs=ARRIVALS, gas_target=TARGET, max_transactions=st.integers(1, 20))
def test_blocks_fill_by_measured_gas(
    deployment, specs, gas_target, max_transactions
):
    arrivals = arrival_order(deployment, specs)
    # Trie-less: the fill rule does not depend on the commitment, and
    # building two tries would be most of an example's time.
    node = Node(state=deployment.state.copy(), merkleize=False)
    receipts = fill_blocks(node, arrivals, gas_target, max_transactions)

    # Nothing lost, duplicated or reordered; the pool is empty again.
    committed = [tx for block in node.chain for tx in block.transactions]
    assert committed == arrivals
    assert_pool_accounting(node.mempool)
    assert node.mempool.pending_gas == 0 and not node.mempool._by_sender

    # One sequential pass over the arrival order, block context by block
    # context: the same receipts, the same state.
    replay = Node(state=deployment.state.copy(), merkleize=False)
    replayed = []
    for block in node.chain:
        evm = EVM(
            replay.state, block=replay.block_context(block.header.height)
        )
        replayed.extend(
            evm.execute_transaction(tx) for tx in block.transactions
        )
        replay.chain.append(block)
    assert receipts == replayed
    assert node.state.state_digest() == replay.state.state_digest()


# Pinned below the profiles' counts: each example builds two state tries.
@settings(deadline=None, max_examples=40)
@given(specs=ARRIVALS, gas_target=TARGET, max_transactions=st.integers(1, 20))
def test_a_filled_chain_replays_to_the_same_sealed_roots(
    deployment, specs, gas_target, max_transactions
):
    """Another node executes the chain (through the EVM: the blocks are
    not its own proposals) and checks every sealed root on the way."""
    node = Node(state=deployment.state.copy())
    fill_blocks(
        node, arrival_order(deployment, specs), gas_target, max_transactions
    )
    validator = Node(state=deployment.state.copy())
    with use_registry() as registry:
        for block in node.chain:
            assert (validator.execute_block(block)
                    == node.receipts[block.hash()])
    assert registry.counters_flat().get("evm.tx_executions", 0) == sum(
        len(block.transactions) for block in node.chain
    )
    assert validator.state_root == node.state_root
    assert validator.state.state_digest() == node.state.state_digest()


def test_calls_fill_a_block_their_promises_would_not(deployment):
    """40 TOP8 calls promise 200M gas and use about 2M: one block under
    the default target, where the promised bound cut seven — for every
    engine, since every proposal is measured before it is filled."""
    calls = make_transactions(deployment, 40, workload="erc20", seed=3)
    for executor in EXECUTORS:
        node = Node(state=deployment.state.copy())
        for tx in calls:
            node.hear(tx)
        with use_registry() as registry:
            block = node.propose_block(max_transactions=128,
                                       gas_target=30_000_000,
                                       executor=executor)
        assert block.transactions == calls and len(node.mempool) == 0, executor
        assert "mempool.returned" not in registry.counters_flat(), executor
        assert registry.histogram("block.gas_used").values == [
            sum(artifact.receipt.gas_used for artifact in block.artifacts)
        ], executor


def test_returned_candidates_are_counted_not_readmitted(deployment):
    calls = make_transactions(deployment, 8, workload="erc20", seed=3)
    node = Node(state=deployment.state.copy())
    token = node.state.snapshot()
    first_two = sum(
        artifact.receipt.gas_used for artifact in discover_access_sets(
            calls[:2], node.state, node.block_context()
        )
    )
    node.state.revert(token)
    with use_registry() as registry:
        for tx in calls:
            node.hear(tx)
        stamps = {
            tx.hash(): node.mempool._pool[tx.hash()].heard_at
            for tx in calls
        }
        # One gas short of room for the third call's 5M promise.
        block = node.propose_block(
            max_transactions=128, gas_target=first_two + 5_000_000 - 1
        )
        counters = registry.counters_flat()
    assert block.transactions == calls[:2]
    assert node.mempool.pending() == calls[2:]
    assert counters["mempool.returned"] == 6
    assert counters["mempool.added"] == 8
    # Each entry came back as it was.
    assert {
        tx_hash: entry.heard_at
        for tx_hash, entry in node.mempool._pool.items()
    } == {tx.hash(): stamps[tx.hash()] for tx in calls[2:]}


def test_a_returned_tail_precedes_everything_admitted_since():
    def tx(nonce):
        return Transaction(sender=1, to=2, nonce=nonce, gas_limit=40_000)

    node = Node()
    for nonce in range(4):
        node.hear(tx(nonce))
    cut = node.mempool.take(3)
    node.hear(tx(4))  # admitted while the cut was out
    node.mempool.put_back(cut[1:])
    assert [t.nonce for t in node.mempool.pending()] == [1, 2, 3, 4]
    assert_pool_accounting(node.mempool)
    # Only a tail of the last cut comes back, and only once.
    for not_a_tail in (cut[1:], cut[:1] + [tx(9)]):
        with pytest.raises(ValueError):
            node.mempool.put_back(not_a_tail)
    assert_pool_accounting(node.mempool)


def test_unmeasured_cuts_stay_on_promised_gas(deployment):
    """A packed cut fixes its lanes at the cut: it stops on the sum of
    gas limits, which implies the measured bound — a packed cut is never
    shortened."""
    calls = make_transactions(deployment, 12, workload="erc20", seed=3)

    node = Node(state=deployment.state.copy())
    for tx in calls:
        node.hear(tx)
    with use_registry() as registry:
        block = node.propose_block(
            gas_target=12_000_000, packing="conflict_aware"
        )
        counters = registry.counters_flat()
    assert len(block.transactions) == 2
    assert sorted(i for lane in block.packed_lanes for i in lane) == [0, 1]
    assert "mempool.returned" not in counters
