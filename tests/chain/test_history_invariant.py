"""The node is the one record of its committed history.

Over random sequences of commits, receipt prunes, a commit the store
refuses, a snapshot resync and a recovery from the data directory, after
every step: the tx-hash index is exactly the index rebuilt from
``node.receipts`` over ``node.chain``, every entry answers
``receipt_of``, the held receipts are a suffix of the chain, and
``node.height`` is the last header's height — or the resync's anchor
while the chain is empty — and counts every committed block.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Transaction, WorldState
from repro.chain.node import Node
from repro.storage import AppendFailedError, StorageConfig, attach
from repro.trie import StateTrie
from tests.conftest import refuse_next_append

SENDERS = range(0x5E00, 0x5E04)
#: Plain transfers, round-robin over the senders: each hash unique and
#: valid in this order.
TRANSFERS = [
    Transaction(
        sender=SENDERS[i % len(SENDERS)], to=0x7000 + i,
        nonce=i // len(SENDERS), value=1, gas_limit=21_000,
    )
    for i in range(30)
]


def genesis() -> WorldState:
    world = WorldState()
    for sender in SENDERS:
        world.set_balance(sender, 10**21)
    world.clear_journal()
    return world


STORAGE = StorageConfig(fsync="never", snapshot_interval_blocks=2)
KEEP = st.one_of(st.none(), st.integers(0, 3))
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(1, 3)),
        st.tuples(st.just("refused"), st.integers(1, 3)),
        st.tuples(st.just("prune"), KEEP),
        st.tuples(st.just("resync"), st.none()),
        st.tuples(st.just("recover"), KEEP.filter(lambda k: k != 0)),
    ),
    max_size=10,
)


def rebuilt_index(node):
    index = {}
    for block in node.chain:
        if block.hash() in node.receipts:
            for position, tx in enumerate(block.transactions):
                index[tx.hash()] = (block.header.height, position)
    return index


def check_history(node, height, anchor):
    assert node.tx_index == rebuilt_index(node)
    for tx_hash, (at, position) in node.tx_index.items():
        found = node.receipt_of(tx_hash)
        assert (found.block_height, found.tx_index) == (at, position)
        assert found.receipt is node.receipts[node.block_hash(at)][position]
    held = [block.hash() in node.receipts for block in node.chain]
    assert held == sorted(held), "held receipts are a suffix of the chain"
    assert len(node.receipts) == sum(held)
    if node.chain:
        assert node.height == node.chain[-1].header.height
    else:
        assert node.height == anchor
    assert node.height == height


def commit(node, txs):
    for tx in txs:
        assert node.hear(tx)
    block = node.propose_block(max_transactions=len(txs))
    assert block.transactions == txs
    return block


@settings(max_examples=40)
@given(steps=STEPS)
def test_the_index_and_height_follow_every_step(steps):
    data_dir = tempfile.mkdtemp(prefix="repro-history-")
    try:
        node = Node(state=genesis())
        attach(node, data_dir, STORAGE)
        pending = iter(TRANSFERS)
        height = anchor = 0
        for op, arg in steps:
            if op in ("commit", "refused"):
                block = commit(node, [next(pending) for _ in range(arg)])
                if op == "refused":
                    refuse_next_append(node.store, half_written=True)
                    with pytest.raises(AppendFailedError):
                        node.execute_block(block)
                    check_history(node, height, anchor)
                    # Nothing was committed: the block applies as it is.
                node.execute_block(block)
                height += 1
            elif op == "prune":
                node.prune_receipts(arg)
                if arg is not None:
                    assert len(node.receipts) <= arg
            elif op == "resync":
                state = node.state.copy()
                trie = StateTrie()
                trie.attach(state)
                recent = [
                    (at, node.block_hash(at))
                    for at in range(max(1, height - 255), height + 1)
                ]
                node.reset(state, trie, anchor=height, recent=recent)
                anchor = height
                assert node.chain == [] and node.receipts == {}
            else:
                node.store.close()
                node = Node(state=genesis())
                attach(node, data_dir, STORAGE, receipt_history_blocks=arg)
                if arg is not None:
                    assert len(node.receipts) <= arg
            check_history(node, height, anchor)
        node.store.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
