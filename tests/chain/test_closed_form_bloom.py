"""The plain-transfer bloom in closed form, against ``from_keys``.

``bloom_for_transaction`` writes a plain transfer's positions straight
from :func:`repro.chain.transfer.transfer_keys` through a per-address
digest memo, instead of building an access set and hashing it through
:meth:`AccessBloom.from_keys`. Nothing but this suite holds the two
statements together: for every generated transfer and geometry the
closed form must set the positions ``from_keys`` sets over
``transfer_access`` plus the sender's implicit keys, and spill the same
bytes. A pooled closed-form bloom holds only while its recipient has no
code; the tests below the differential pin how the pool keeps that.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import bloom as bloom_module
from repro.chain.bloom import AccessBloom, bloom_for_transaction
from repro.chain.mempool import Mempool
from repro.chain.state import BALANCE_KEY, NONCE_KEY, WorldState
from repro.chain.transaction import Transaction
from repro.chain.transfer import transfer_access

COINBASE = 0xC0FFEE  # Node's default
CONTRACT = 0xC0DE
#: Small addresses, the coinbase, a contract and 160-bit ones: sender ==
#: to and to == coinbase come up often.
addresses = st.one_of(
    st.sampled_from([0xA1, 0xA2, 0xB2, COINBASE]),
    st.integers(0, 2**160 - 1),
)
geometries = st.one_of(
    st.just((bloom_module.DEFAULT_BITS, bloom_module.DEFAULT_HASHES)),
    st.tuples(st.integers(1, 256).map(lambda n: 8 * n),
              st.integers(1, 4)),
)


def genesis() -> WorldState:
    state = WorldState()
    state.set_balance(0xA1, 10**18)
    state.set_code(CONTRACT, b"\x00")
    state.clear_journal()
    return state


def reference(tx, bits, hashes) -> AccessBloom:
    """Today's derivation: the access set, then ``from_keys``."""
    access = transfer_access(tx)
    implicit = ((tx.sender, BALANCE_KEY), (tx.sender, NONCE_KEY))
    return AccessBloom.from_keys(
        (*access.reads, *implicit), (*access.writes, *implicit),
        bits, hashes,
    )


@settings(deadline=None)
@given(
    sender=addresses,
    to=addresses,
    value=st.one_of(st.just(0), st.integers(1, 2**96)),
    data=st.sampled_from([b"", b"\xaa\xbb\xcc\xdd"]),
    geometry=geometries,
    warm=st.booleans(),
)
def test_closed_form_equals_from_keys(sender, to, value, data, geometry,
                                      warm):
    bits, hashes = geometry
    if not warm:
        for table in bloom_module._DIGESTS.values():
            table.clear()
    tx = Transaction(sender=sender, to=to, value=value, data=data,
                     gas_limit=50_000)
    bloom = bloom_for_transaction(tx, genesis(), bits, hashes)
    expected = reference(tx, bits, hashes)
    assert (bloom.bits, bloom.hashes) == (bits, hashes)
    assert bloom.reads == expected.reads
    assert bloom.writes == expected.writes
    assert bloom.to_bytes() == expected.to_bytes()
    assert not bloom.is_opaque or expected.is_opaque


@settings(deadline=None)
@given(
    sender=addresses,
    to=addresses,
    value=st.integers(0, 10),
    declared=st.sampled_from([
        {"reads": [(0xB2, 3)], "writes": []},
        {"reads": [], "writes": [(0xB2, BALANCE_KEY)]},
        {"writes": [(CONTRACT, 1)]},
    ]),
    geometry=geometries,
)
def test_declared_transactions_keep_the_declared_source(
    sender, to, value, declared, geometry
):
    """Tags win over the closed form, at a code-free target too."""
    bits, hashes = geometry
    tx = Transaction(sender=sender, to=to, value=value, gas_limit=50_000,
                     tags=declared)
    implicit = ((sender, BALANCE_KEY), (sender, NONCE_KEY))
    expected = AccessBloom.from_keys(
        (*declared.get("reads", ()), *implicit),
        (*declared.get("writes", ()), *implicit), bits, hashes,
    )
    assert bloom_for_transaction(tx, genesis(), bits, hashes) == expected


@settings(deadline=None)
@given(sender=addresses, value=st.integers(0, 10), geometry=geometries)
def test_code_at_the_target_gives_an_opaque_bloom(sender, value, geometry):
    bits, hashes = geometry
    tx = Transaction(sender=sender, to=CONTRACT, value=value,
                     gas_limit=50_000)
    bloom = bloom_for_transaction(tx, genesis(), bits, hashes)
    assert bloom == AccessBloom.opaque(bits, hashes)
    # No state to probe: nothing establishes the access set.
    assert bloom_for_transaction(
        Transaction(sender=sender, to=0xB2, value=value, gas_limit=50_000)
    ).is_opaque


def test_each_digest_table_is_bounded(monkeypatch):
    monkeypatch.setattr(bloom_module, "MEMO_ENTRIES", 8)
    monkeypatch.setattr(bloom_module, "_DIGESTS", {
        slot: {} for slot in bloom_module._DIGESTS
    })
    state = genesis()
    for recipient in range(0x1000, 0x1040):
        tx = Transaction(sender=recipient + 1, to=recipient, value=1,
                         gas_limit=50_000)
        assert bloom_for_transaction(tx, state) == reference(
            tx, bloom_module.DEFAULT_BITS, bloom_module.DEFAULT_HASHES
        )
    assert all(
        0 < len(table) <= 8 for table in bloom_module._DIGESTS.values()
    )


# -- a pooled closed-form bloom holds while its recipient has no code ------
def pooled(state):
    pool = Mempool(state=state)
    txs = [
        Transaction(sender=0xA1, to=0xB2, value=1, nonce=1,
                    gas_limit=50_000),
        Transaction(sender=0xA1, to=0xB2, value=1, nonce=2,
                    gas_limit=50_000),
        Transaction(sender=0xA1, to=0xB3, value=1, nonce=3,
                    gas_limit=50_000),
        Transaction(sender=0xA1, to=0xB2, value=1, nonce=4,
                    gas_limit=50_000, tags={"reads": [], "writes": []}),
    ]
    for tx in txs:
        pool.add(tx)
        pool.bloom_of(tx)
    return pool, txs


def test_code_landing_rederives_only_the_blooms_indexed_under_it():
    state = genesis()
    pool, (first, second, elsewhere, declared) = pooled(state)
    before = {tx.hash(): pool.bloom_of(tx) for tx in pool.pending()}
    state.set_code(0xB2, b"\x00")
    pool.code_landed({0xB2})
    assert pool.bloom_of(first).is_opaque
    assert pool.bloom_of(second).is_opaque
    # Another recipient, and a declared set, are not the closed form's.
    assert pool.bloom_of(elsewhere) is before[elsewhere.hash()]
    assert pool.bloom_of(declared) is before[declared.hash()]
    # Landing at an address nothing pooled calls costs nothing.
    pool.code_landed({0xDEAD})


def test_the_index_is_bounded_by_the_pool():
    state = genesis()
    pool, txs = pooled(state)
    assert {to: len(hashes) for to, hashes in pool._code_free.items()} == {
        0xB2: 2, 0xB3: 1
    }
    taken = pool.take(2)
    assert {to: len(hashes) for to, hashes in pool._code_free.items()} == {
        0xB3: 1
    }
    # A returned tail is indexed again, as it was.
    pool.put_back(taken[1:])
    assert {to: len(hashes) for to, hashes in pool._code_free.items()} == {
        0xB2: 1, 0xB3: 1
    }
    pool.remove(pool.pending())
    assert pool._code_free == {}


def test_a_readmitted_bloom_is_indexed_and_a_rebase_rechecks():
    """Tags never travel, so a spilled reorderable bloom of a call may be
    the closed form's; a wholesale state swaps in code anywhere."""
    state = genesis()
    tx = Transaction(sender=0xA1, to=0xB2, value=1, nonce=1,
                     gas_limit=50_000)
    spilled = bloom_for_transaction(tx, state).to_bytes()
    pool = Mempool(state=state)
    pool.add(tx, bloom=AccessBloom.from_bytes(spilled))
    replacement = state.copy()
    replacement.set_code(0xB2, b"\x00")
    pool.rebase(replacement)
    assert pool.state is replacement
    assert pool.bloom_of(tx).is_opaque


def test_code_written_names_each_live_code_write_once():
    state = genesis()
    token = state.snapshot()
    state.set_code(0xE1, b"\x01")
    state.revert(token)
    state.set_balance(0xE3, 1)  # takes the reverted entry's index
    state.set_code(0xE2, b"\x02")
    state.set_code(0xE2, b"\x03")
    assert state.code_written() == {0xE2}
    state.clear_journal()
    assert state.code_written() == set()
