"""Property tests for mempool admission, eviction, and dissemination.

Hypothesis drives interleaved ``hear``/``propose_block`` sequences and
capacity churn; the mempool's orderings (``known_before``, FIFO take,
eviction/readmission) must match a trivial reference model throughout.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import (
    DuplicateTransactionError,
    Mempool,
    SenderLimitError,
    Transaction,
)
from repro.chain.node import Node


def tx(sender=1, nonce=0, gas_limit=50_000):
    return Transaction(sender=sender, to=2, nonce=nonce,
                       gas_limit=gas_limit)


class TestTypedAdmission:
    def test_duplicate_raises_typed_error(self):
        pool = Mempool()
        pool.add(tx())
        with pytest.raises(DuplicateTransactionError):
            pool.add(tx())
        assert len(pool) == 1

    def test_per_sender_cap_raises_typed_error(self):
        pool = Mempool(per_sender_cap=2)
        pool.add(tx(nonce=0))
        pool.add(tx(nonce=1))
        with pytest.raises(SenderLimitError):
            pool.add(tx(nonce=2))
        # Another sender is unaffected by the first one's flood.
        assert pool.add(tx(sender=9, nonce=0))

    def test_take_frees_sender_slots(self):
        pool = Mempool(per_sender_cap=1)
        pool.add(tx(nonce=0))
        pool.take(1)
        assert pool.add(tx(nonce=1))

    def test_remove_frees_sender_slots(self):
        pool = Mempool(per_sender_cap=1)
        first = tx(nonce=0)
        pool.add(first)
        pool.remove([first])
        assert pool.add(tx(nonce=1))

    def test_eviction_frees_sender_slots(self):
        pool = Mempool(capacity=2, per_sender_cap=2)
        a, b, c = tx(nonce=0), tx(nonce=1), tx(sender=9, nonce=0)
        pool.add(a)
        pool.add(b)
        pool.add(c)  # evicts a, sender 1 drops to one pending slot
        assert pool.add(tx(nonce=3))


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 8),
    arrivals=st.lists(st.integers(0, 15), min_size=1, max_size=40),
)
def test_eviction_keeps_newest_and_allows_readmission(capacity, arrivals):
    """Capacity churn always retains the newest-heard suffix, and an
    evicted transaction readmits as if heard for the first time."""
    pool = Mempool(capacity=capacity)
    model: list[int] = []  # nonces in arrival order
    for nonce in arrivals:
        try:
            pool.add(tx(nonce=nonce))
        except DuplicateTransactionError:
            assert nonce in model[-capacity:] if model else False
            continue
        # Readmission of a previously-evicted nonce goes to the back.
        if nonce in model:
            model.remove(nonce)
        model.append(nonce)
        model = model[-capacity:]
        assert len(pool) == len(model)
    assert [t.nonce for t in pool.pending()] == model
    # Anything evicted is re-admittable right now.
    evicted = set(arrivals) - set(model)
    for nonce in sorted(evicted)[: capacity]:
        assert pool.add(tx(nonce=nonce))


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("hear"), st.integers(0, 30)),
            st.tuples(st.just("propose"), st.integers(1, 4)),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_known_before_under_interleaved_hear_and_propose(ops):
    """`known_before` matches a reference model of (pooled, heard-at)
    across arbitrary interleavings of gossip and block proposals."""
    node = Node()
    heard_at: dict[int, int] = {}  # nonce -> arrival stamp (if pooled)
    for op, value in ops:
        if op == "hear":
            stamp = node.mempool.clock
            if node.hear(tx(nonce=value)):
                heard_at[value] = stamp
            else:
                assert value in heard_at  # duplicate of a pooled tx
        else:
            block = node.propose_block(max_transactions=value)
            took = [t.nonce for t in block.transactions]
            # FIFO: the proposal takes the oldest-heard prefix.
            expected = sorted(heard_at, key=heard_at.get)[:value]
            assert took == expected
            node.execute_block(block)
            for nonce in took:
                del heard_at[nonce]
        now = node.mempool.clock
        for nonce in range(31):
            assert node.mempool.known_before(tx(nonce=nonce), now) == (
                nonce in heard_at
            )
            # Nothing is known before (or at) its own arrival stamp.
            if nonce in heard_at:
                assert not node.mempool.known_before(
                    tx(nonce=nonce), heard_at[nonce]
                )


@settings(max_examples=80, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(1, 6)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "take", "take_packed", "remove", "put_back"]
            ),
            st.integers(21_000, 200_000),
        ),
        max_size=40,
    ),
)
def test_pending_gas_tracks_the_pool(capacity, ops):
    """The running total the block builder's gas-target check reads is
    the sum a walk over the pool would give, through every way in
    (add, readmission, a cut's tail put back) and out (take, packed
    take, remove, eviction)."""
    pool = Mempool(capacity=capacity)
    for nonce, (op, gas_limit) in enumerate(ops):
        if op == "add":
            pool.add(tx(sender=nonce % 3, nonce=nonce,
                        gas_limit=gas_limit))
        elif op == "take":
            pool.take(2)
        elif op == "take_packed":
            pool.take_packed(2, gas_target=gas_limit)
        elif op == "put_back":
            # Cut three, keep the first `kept`, return the rest: the
            # pool is what it was, less the kept prefix.
            before, kept = pool.pending(), gas_limit % 3
            pool.put_back(pool.take(3)[kept:])
            assert pool.pending() == before[kept:]
        else:
            pool.remove(pool.pending()[:1])
        assert pool.pending_gas == sum(
            t.gas_limit for t in pool.pending()
        )
    assert (len(pool) == 0) == (pool.pending_gas == 0)


@settings(max_examples=80, deadline=None)
@given(
    stamps=st.lists(st.integers(0, 50), min_size=1, max_size=25),
    chunk=st.integers(1, 5),
)
def test_arrival_order_survives_out_of_order_heard_at(stamps, chunk):
    """`pending`/`take` order equals a stable sort on heard_at — the
    regression guard for the insertion-ordered pool: in-order gossip
    must never re-sort, and late (out-of-order) stamps must still land
    in their historical position."""
    pool = Mempool()
    for nonce, stamp in enumerate(stamps):
        pool.add(tx(nonce=nonce), heard_at=stamp)
    expected = [
        nonce for nonce, _ in sorted(
            enumerate(stamps), key=lambda item: item[1]
        )
    ]
    assert [t.nonce for t in pool.pending()] == expected
    taken: list[int] = []
    while len(pool):
        got = pool.take(chunk)
        assert got, "take must always make progress"
        taken.extend(t.nonce for t in got)
    assert taken == expected


def test_monotonic_arrivals_never_dirty_the_order():
    """The common case — gossip arriving in stamp order — must keep the
    lazy re-sort switched off (the O(n log n)-per-take regression)."""
    pool = Mempool()
    for nonce in range(20):
        pool.add(tx(nonce=nonce))
    assert not pool._order_dirty
    pool.add(tx(nonce=99), heard_at=3)  # a late straggler
    assert pool._order_dirty
    pool.pending()
    assert not pool._order_dirty  # one re-sort, then clean again


def test_spill_entries_round_trip_preserves_order_and_blooms():
    """Drain → spill → readmit keeps arrival order and reuses the
    spilled blooms verbatim (no re-derivation on restart)."""
    from repro.chain.bloom import AccessBloom
    from repro.chain.state import WorldState

    state = WorldState()
    for sender in (0xA1, 0xA2):
        state.set_balance(sender, 10**9)
    state.clear_journal()
    pool = Mempool(state=state)
    txs = [
        Transaction(sender=0xA1, to=0xB1, value=1, nonce=1,
                    gas_limit=50_000),
        Transaction(sender=0xA2, to=0xB2, value=1, nonce=1,
                    gas_limit=50_000,
                    tags={"reads": [(0xB2, 5)], "writes": [(0xB2, 5)]}),
        Transaction(sender=0xA1, to=0xB1, value=2, nonce=2,
                    gas_limit=50_000),
    ]
    for t in txs:
        pool.add(t)
    spilled = pool.spill_entries()
    assert [t.hash() for t, _ in spilled] == [t.hash() for t in txs]
    fresh = Mempool(state=state)
    for t, blob in spilled:
        fresh.add(t, bloom=AccessBloom.from_bytes(blob))
    assert [t.hash() for t in fresh.pending()] == [t.hash() for t in txs]
    # The declared-access bloom (tags are not on the wire) survived:
    # it still conflicts with a sibling touching the declared key.
    readmitted = fresh.spill_entries()
    declared = AccessBloom.from_bytes(readmitted[1][1])
    assert not declared.is_opaque
    assert declared.may_write((0xB2, 5))
    assert readmitted[1][1] == spilled[1][1]


def test_propose_block_gas_target_matches_mempool_take():
    """The offline proposal path cuts on gas exactly like the serve loop:
    by the gas the block used. Each transfer promises 40k and uses 21k,
    so a 100k target has room for a third (42k spent, 58k left) and not
    for a fourth (63k spent, 37k left)."""
    import asyncio

    from repro.serve.batcher import BlockBuilder
    from repro.serve.config import ServeConfig

    txs = [tx(nonce=nonce, gas_limit=40_000) for nonce in range(6)]
    node = Node()
    for t in txs:
        node.hear(t)
    block = node.propose_block(max_transactions=10, gas_target=100_000)
    assert [t.nonce for t in block.transactions] == [0, 1, 2]
    assert [t.nonce for t in node.mempool.pending()] == [3, 4, 5]
    node.execute_block(block)
    follow_up = node.propose_block(max_transactions=10, gas_target=100_000)
    assert [t.nonce for t in follow_up.transactions] == [3, 4, 5]

    async def serve():
        builder = BlockBuilder(Node(), ServeConfig(
            block_size_target=10, gas_target=100_000,
            block_interval_ms=10_000.0,
        ))
        builder.start()
        futures = [builder.receipt_future(builder.submit(t)) for t in txs]
        await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await builder.drain_and_stop()
        return builder.node.chain

    served = asyncio.run(serve())
    assert [[t.nonce for t in b.transactions] for b in served] == [
        [0, 1, 2], [3, 4, 5]
    ]
