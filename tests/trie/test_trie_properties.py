"""The trie's load-bearing property: incremental == from-scratch.

Every sequence of state mutations — inserts, balance/nonce/storage
churn, deletes, delete-then-redeploy (the CREATE2 shape), journal
revert (the PU-fault replay shape) — must leave the incrementally
maintained root bit-identical to a full rebuild from the flat state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.node import Node
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.trie import EMPTY_ROOT, MerkleTree, StateTrie, WitnessError
from repro.trie.verify import leaf_hash

ADDRESSES = st.integers(min_value=1, max_value=12)
SLOTS = st.integers(min_value=0, max_value=6)
VALUES = st.integers(min_value=0, max_value=2**64)


#: load_account bypasses the journal by design (snapshot restore), so
#: it runs only before a trie is bound, and revert scenarios must stick
#: to the journaled subset.
JOURNALED_OPS = ["balance", "nonce", "storage", "code", "delete"]
ALL_OPS = JOURNALED_OPS + ["load"]


def mutate(state: WorldState, data, ops=ALL_OPS) -> None:
    op = data.draw(st.sampled_from(ops))
    address = data.draw(ADDRESSES)
    if op == "balance":
        state.set_balance(address, data.draw(VALUES))
    elif op == "nonce":
        state.set_nonce(address, data.draw(VALUES))
    elif op == "storage":
        state.set_storage(
            address, data.draw(SLOTS), data.draw(VALUES)
        )
    elif op == "code":
        state.set_code(address, data.draw(st.binary(max_size=8)))
    elif op == "delete":
        state.delete_account(address)
    else:
        # The snapshot-install shape: transplant a whole account.
        from repro.chain.account import Account

        state.load_account(address, Account(
            nonce=data.draw(st.integers(min_value=0, max_value=9)),
            balance=data.draw(VALUES),
            storage={1: data.draw(VALUES)},
        ))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_root_matches_rebuild(data):
    state = WorldState()
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        mutate(state, data, ops=["load"])
    trie = StateTrie()
    trie.attach(state)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            mutate(state, data, ops=JOURNALED_OPS)
        assert trie.update(state) == StateTrie.rebuild_root(state)


def test_load_account_refuses_a_trie_bound_state():
    """A load bypasses the journal: on a bound state it would never
    reach the root."""
    from repro.chain.account import Account

    state = WorldState()
    StateTrie().attach(state)
    with pytest.raises(RuntimeError):
        state.load_account(1, Account(balance=5))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_incremental_root_survives_revert(data):
    """The PU-fault replay shape: execute, revert, re-execute."""
    state = WorldState()
    state.set_balance(1, 10**9)
    trie = StateTrie()
    trie.attach(state)
    baseline = trie.update(state)
    token = state.snapshot()
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        mutate(state, data, ops=JOURNALED_OPS)
    state.revert(token)
    state.clear_journal()
    assert trie.update(state) == baseline
    assert baseline == StateTrie.rebuild_root(state)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_root_discriminates_exactly_what_the_flat_digest_did(data):
    """What dropping the stored digest rests on: over arbitrary
    mutate/revert/delete/redeploy histories, two states agree on the
    flat digest iff they agree on the Merkle root."""
    from repro.storage.codec import state_digest_bytes

    def same(commitment, a, b):
        return commitment(a) == commitment(b)

    a = WorldState()
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        mutate(a, data)
    a.clear_journal()
    b = a.copy()
    assert same(state_digest_bytes, a, b)
    assert same(StateTrie.rebuild_root, a, b)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        token = b.snapshot()
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            mutate(b, data, ops=JOURNALED_OPS)
        assert same(state_digest_bytes, a, b) == same(
            StateTrie.rebuild_root, a, b
        )
        if data.draw(st.booleans()):
            b.revert(token)  # back to where the round started
            assert same(state_digest_bytes, a, b) == same(
                StateTrie.rebuild_root, a, b
            )
        b.clear_journal()


def test_delete_then_redeploy_gets_fresh_storage():
    """The CREATE2 shape: same address, new code, empty storage."""
    state = WorldState()
    trie = StateTrie()
    trie.attach(state)
    state.set_balance(5, 1)
    state.set_code(5, b"\x01\x02")
    state.set_storage(5, 3, 77)
    first = trie.update(state)
    state.delete_account(5)
    state.set_balance(5, 1)
    state.set_code(5, b"\x01\x02")
    redeployed = trie.update(state)
    assert redeployed != first  # old storage must not resurrect
    assert redeployed == StateTrie.rebuild_root(state)
    state.set_storage(5, 3, 77)
    assert trie.update(state) == first
    assert trie.update(state) == StateTrie.rebuild_root(state)


def test_empty_accounts_stay_out_of_the_trie():
    state = WorldState()
    trie = StateTrie()
    trie.attach(state)
    state.set_balance(7, 100)
    state.set_balance(7, 0)  # back to empty
    assert trie.update(state) == EMPTY_ROOT
    assert StateTrie.rebuild_root(state) == EMPTY_ROOT


def test_delete_account_evicts_digest_leaf_cache():
    """A deleted account's cached flat-digest leaf must die with it."""
    from repro.storage import codec

    state = WorldState()
    state.set_balance(3, 50)
    baseline = codec.state_digest_bytes(state)
    state.set_balance(9, 10)
    codec.state_digest_bytes(state)  # populate the leaf cache
    state.delete_account(9)
    assert 9 not in state._leaf_hashes
    assert codec.state_digest_bytes(state) == baseline


def test_node_commit_seals_header_and_chains_roots():
    node = Node()
    node.state.set_balance(1, 10**12)
    node.trie.update(node.state)
    roots = [node.state_root]
    for height in range(2):
        node.hear(Transaction(
            sender=1, to=50 + height, value=5, nonce=height,
            gas_limit=100_000,
        ))
        block = node.propose_block()
        node.execute_block(block)
        assert block.header.state_root == node.state_root
        assert block.header.state_root == StateTrie.rebuild_root(
            node.state
        )
        roots.append(block.header.state_root)
    assert len(set(roots)) == 3  # every block moved the root


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merkle_tree_matches_reference_set_semantics(data):
    """The crit-bit tree agrees with a dict + canonical rebuild."""
    tree = MerkleTree()
    model: dict[bytes, bytes] = {}
    keys = [bytes([i]) * 32 for i in range(8)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=24))):
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()):
            value = data.draw(st.binary(min_size=32, max_size=32))
            tree.set(key, value)
            model[key] = value
        else:
            tree.delete(key)
            model.pop(key, None)
        reference = MerkleTree()
        for k, v in model.items():
            reference.set(k, v)
        assert tree.root() == reference.root()
        for k, v in model.items():
            assert tree.get(k) == v


def test_prove_and_fold_round_trip():
    from repro.trie.verify import fold_steps

    tree = MerkleTree()
    keys = {bytes([i]) * 32: bytes([i ^ 0xFF]) * 32 for i in range(6)}
    for key, value in keys.items():
        tree.set(key, value)
    root = tree.root()
    for key, value in keys.items():
        steps = tree.prove(key)
        assert fold_steps(key, leaf_hash(key, value), steps) == root
    with pytest.raises(KeyError):
        tree.prove(b"\xAA" * 32)


def test_from_nodes_rejects_malformed_shapes():
    tree = MerkleTree()
    for i in range(4):
        tree.set(bytes([i]) * 32, bytes([i]) * 32)
    nodes = tree.serialize_expanded([bytes([1]) * 32])
    rebuilt = MerkleTree.from_nodes(nodes)
    assert rebuilt.root() == tree.root()
    with pytest.raises(WitnessError):
        MerkleTree.from_nodes(nodes[:-1])  # unbalanced stack
    with pytest.raises(WitnessError):
        MerkleTree.from_nodes(nodes + [("stub", b"\x00" * 32)])
    with pytest.raises(WitnessError):
        MerkleTree.from_nodes([("branch", 0)])  # branch with no children
