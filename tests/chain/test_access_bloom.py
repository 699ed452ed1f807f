"""Access-set bloom filters: the conflict summaries packing trusts.

The load-bearing property is **no false negatives**: whenever two real
access sets conflict, their blooms must report ``may_conflict`` — a
missed conflict would let the packer reorder a dependent pair and fork
the packed chain from FIFO. False positives only cost packing quality,
but the measured pairwise rate must stay small at the default geometry
or conflict-aware packing degenerates to FIFO.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.bloom import (
    DEFAULT_BITS,
    DEFAULT_HASHES,
    AccessBloom,
    bloom_for_transaction,
)
from repro.chain.dag import discover_access_sets
from repro.chain.state import (
    BALANCE_KEY,
    CODE_KEY,
    NONCE_KEY,
    WorldState,
)
from repro.chain.transaction import Transaction

# A compact strategy over (address, slot) keys: small spaces force both
# real overlaps and near-misses.
keys = st.tuples(st.integers(0, 40), st.integers(0, 10))
key_sets = st.frozensets(keys, max_size=12)


def real_conflict(r1, w1, r2, w2) -> bool:
    return bool((w1 & w2) | (w1 & r2) | (r1 & w2))


@settings(max_examples=300, deadline=None)
@given(r1=key_sets, w1=key_sets, r2=key_sets, w2=key_sets)
def test_no_false_negatives_by_construction(r1, w1, r2, w2):
    """A real access-set conflict is always visible in the blooms —
    at every geometry, including pathologically small ones."""
    for bits, hashes in ((8, 1), (64, 2), (DEFAULT_BITS, DEFAULT_HASHES)):
        a = AccessBloom.from_keys(r1, w1, bits=bits, hashes=hashes)
        b = AccessBloom.from_keys(r2, w2, bits=bits, hashes=hashes)
        if real_conflict(r1, w1, r2, w2):
            assert a.may_conflict(b)
            assert b.may_conflict(a)


@settings(max_examples=100, deadline=None)
@given(reads=key_sets, writes=key_sets)
def test_membership_has_no_false_negatives(reads, writes):
    bloom = AccessBloom.from_keys(reads, writes)
    assert all(bloom.may_read(key) for key in reads)
    assert all(bloom.may_write(key) for key in writes)


def test_measured_false_positive_rate_at_default_geometry():
    """Pairwise FP rate for *disjoint* access sets stays under 2% at the
    default bits/hashes (the packing-quality budget the module docstring
    promises; ~(k·n₁)(k·n₂)/m ≈ 75/8192 ≈ 0.9% for these set sizes)."""
    rng = random.Random(1234)
    trials, false_positives = 2_000, 0
    for trial in range(trials):
        # Two disjoint key sets of typical transaction size (4-10 keys).
        pool = rng.sample(range(1_000_000), 20)
        left = [(addr, BALANCE_KEY) for addr in pool[:10]]
        right = [(addr, BALANCE_KEY) for addr in pool[10:]]
        a = AccessBloom.from_keys(left[:5], left[5:])
        b = AccessBloom.from_keys(right[:5], right[5:])
        if a.may_conflict(b):
            false_positives += 1
    assert false_positives / trials < 0.02


def test_serialization_round_trip_and_stability():
    bloom = AccessBloom.from_keys(
        reads=[(1, BALANCE_KEY), (2, 7)],
        writes=[(1, NONCE_KEY)],
        bits=64,
        hashes=2,
    )
    blob = bloom.to_bytes()
    assert AccessBloom.from_bytes(blob) == bloom
    # The encoding is the spill-file format: byte-stable across runs
    # (blake2b key hashing, big-endian masks). A change here silently
    # invalidates every spilled mempool — pin it. The third byte is 1:
    # the filter is not opaque.
    assert blob.hex() == (
        "010201" + "0004000200001100" + "0004000000020000"
    )


#: ``to_bytes()`` of two admission blooms as the commit before blooms
#: were held as positions wrote them (``5d462d5``): a value transfer
#: 0xA1 → 0xB2 (read bits 426, 3365, 5732, 7345; write bits the first
#: three) and an undeclared contract call (opaque). Spill files carry
#: exactly these bytes, so a build that reads or writes anything else
#: re-admits a drained mempool with the wrong conflicts.
GOLDEN_TRANSFER = bytes.fromhex(
    "010101"
    + "00" * 105 + "02" + "00" * 201 + "10" + "00" * 295 + "20"
    + "00" * 366 + "04" + "00" * 53
    + "00" * 307 + "10" + "00" * 295 + "20" + "00" * 366 + "04"
    + "00" * 53
)
GOLDEN_OPAQUE = bytes.fromhex("010100" + "ff" * 2048)


def golden_state():
    state = WorldState()
    state.set_balance(0xA1, 10**18)
    state.set_code(0xC0DE, b"\x00\x01\x02")
    state.clear_journal()
    return state


def test_spill_bytes_are_the_ones_older_builds_wrote():
    state = golden_state()
    transfer = bloom_for_transaction(
        Transaction(sender=0xA1, to=0xB2, value=5, nonce=1,
                    gas_limit=50_000),
        state=state,
    )
    call = bloom_for_transaction(
        Transaction(sender=0xA1, to=0xC0DE, data=b"\xAA\xBB\xCC\xDD",
                    gas_limit=100_000),
        state=state,
    )
    assert len(GOLDEN_TRANSFER) == len(GOLDEN_OPAQUE) == 3 + 2 * 1024
    for bloom, golden in (
        (transfer, GOLDEN_TRANSFER), (call, GOLDEN_OPAQUE)
    ):
        assert bloom.to_bytes() == golden
        restored = AccessBloom.from_bytes(golden)
        assert restored == bloom
        assert restored.is_opaque == bloom.is_opaque
        assert restored.to_bytes() == golden
    # The positions behind the bytes, and the mask views over them.
    assert transfer.reads == {426, 3365, 5732, 7345}
    assert transfer.writes == {426, 3365, 5732}
    assert transfer.write_mask == 1 << 426 | 1 << 3365 | 1 << 5732
    assert transfer.read_mask == transfer.write_mask | 1 << 7345
    assert call.reads is None and call.writes is None
    assert call.read_mask == call.write_mask == (1 << DEFAULT_BITS) - 1


def test_a_zero_flag_beside_positions_decodes_to_those_positions():
    """Older builds could derive a bloom from a learned per-call-shape
    estimate and spilled it with a third byte of 0 beside masks that are
    not saturated. Such a blob is a filter over its positions, not an
    opaque one, and re-encodes with the flag of every non-opaque
    filter."""
    legacy = GOLDEN_TRANSFER[:2] + b"\x00" + GOLDEN_TRANSFER[3:]
    bloom = AccessBloom.from_bytes(legacy)
    assert not bloom.is_opaque
    assert bloom.reads == {426, 3365, 5732, 7345}
    assert bloom.writes == {426, 3365, 5732}
    assert bloom.to_bytes() == GOLDEN_TRANSFER


def spill_genesis():
    state = WorldState()
    for sender in range(0xA1, 0xA8):
        state.set_balance(sender, 10**18)
    state.set_code(0xC0DE, b"\x00\x01\x02")
    state.clear_journal()
    return state


#: A conflict-aware pool as older builds spilled it on drain: each
#: transaction with the bit positions of its bloom (None = opaque).
#: Transfers (two into 0xB2, two from 0xA1), two declared calls (the
#: tags are not on the wire: only the spilled bloom carries them) and an
#: undeclared call.
SPILLED_POOL = [
    (Transaction(sender=0xA1, to=0xB2, value=5, gas_limit=50_000),
     {426, 3365, 5732, 7345}, {426, 3365, 5732}),
    (Transaction(sender=0xA2, to=0xB2, value=6, gas_limit=50_000),
     {426, 1166, 7345, 8059}, {426, 1166, 8059}),
    (Transaction(sender=0xA3, to=0xB3, value=7, gas_limit=50_000),
     {2308, 4219, 4404, 6631}, {2308, 4404, 6631}),
    (Transaction(sender=0xA4, to=0xC0DE, data=b"\x01\x02\x03\x04",
                 gas_limit=100_000),
     {3509, 5289, 7949}, {3509, 5289, 7949}),
    (Transaction(sender=0xA5, to=0xC0DE, data=b"\x01\x02\x03\x05",
                 gas_limit=100_000),
     {2568, 7169}, {2568, 2815, 7169}),
    (Transaction(sender=0xA1, to=0xB4, value=8, nonce=1, gas_limit=50_000),
     {3365, 3938, 5324, 5732}, {3365, 5324, 5732}),
    (Transaction(sender=0xA6, to=0xC0DE, data=b"\xAA\xBB\xCC\xDD",
                 gas_limit=100_000),
     None, None),
    (Transaction(sender=0xA7, to=0xB5, value=9, gas_limit=50_000),
     {176, 1350, 4783, 6406}, {176, 1350, 4783}),
]
#: sha256 of the whole ``mempool.rlp`` older builds wrote for it.
SPILLED_POOL_SHA256 = (
    "ed411804a021117f81f9554ab920a5596cb9cf3a5cdcb7dcf8bb2d2508c63aca"
)


def test_a_spilled_conflict_aware_pool_readmits_with_the_same_lanes(
    tmp_path,
):
    import hashlib
    import os

    from repro.chain.mempool import PackingPolicy
    from repro.chain.node import Node
    from repro.storage import StorageConfig, attach, codec
    from repro.storage.store import MEMPOOL_NAME
    from repro.storage.wal import frame_record

    width = DEFAULT_BITS // 8

    def version1(reads, writes):
        if reads is None:
            return GOLDEN_OPAQUE
        return b"\x01\x01\x01" + b"".join(
            sum(1 << position for position in side).to_bytes(width, "big")
            for side in (reads, writes)
        )

    entries = [(tx, version1(r, w)) for tx, r, w in SPILLED_POOL]
    raw = frame_record(codec.mempool_to_rlp(entries))
    assert hashlib.sha256(raw).hexdigest() == SPILLED_POOL_SHA256
    with open(os.path.join(tmp_path, MEMPOOL_NAME), "wb") as fh:
        fh.write(raw)

    node = Node(state=spill_genesis())
    attach(node, str(tmp_path), StorageConfig(fsync="never"))
    try:
        pool = node.mempool
        assert [
            (tx.hash(), pool.bloom_of(tx).to_bytes())
            for tx in pool.pending()
        ] == [(tx.hash(), blob) for tx, blob in entries]
        order = [tx.hash() for tx, _ in entries]
        policy = PackingPolicy(lane_depth=2)
        # The nonce-1 transfer waits behind its sender's capped lane, and
        # everything after it that conflicts with it waits too.
        first = pool.take_packed(8, policy=policy)
        assert [order.index(tx.hash()) for tx in first.transactions] == [
            0, 1, 2, 3, 4
        ]
        assert first.lanes == [[0, 1], [2], [3], [4]]
        assert first.deferred == 3
        second = pool.take_packed(8, policy=policy)
        assert [order.index(tx.hash()) for tx in second.transactions] == [
            5, 6
        ]
        assert second.lanes == [[0, 1]] and second.deferred == 1
    finally:
        node.store.close()


def test_each_distinct_key_is_hashed_once(monkeypatch):
    """A transfer names four distinct keys, three of them on both
    sides; a declared set adds the two sender keys to both sides too.
    One digest per distinct key, whatever the source."""
    from repro.chain import bloom as bloom_module

    hashed = []
    key_hash = bloom_module._key_hash

    def counting(key):
        hashed.append(key)
        return key_hash(key)

    monkeypatch.setattr(bloom_module, "_key_hash", counting)
    state = golden_state()
    bloom_for_transaction(
        Transaction(sender=0xA1, to=0xB2, value=5, gas_limit=50_000),
        state=state,
    )
    assert sorted(hashed, key=repr) == sorted({
        (0xB2, CODE_KEY), (0xA1, BALANCE_KEY), (0xB2, BALANCE_KEY),
        (0xA1, NONCE_KEY),
    }, key=repr)
    del hashed[:]
    call = Transaction(
        sender=0xA1, to=0xC0DE, data=b"\xAA\xBB\xCC\xDD",
        gas_limit=100_000,
        tags={"reads": [[0xC0DE, 3], (0xC0DE, 4)],
              "writes": [(0xC0DE, 3), (0xA1, BALANCE_KEY)]},
    )
    declared = bloom_for_transaction(call, state=state)
    assert len(hashed) == len(set(hashed)) == 4
    assert declared.may_read((0xA1, NONCE_KEY))
    assert declared.may_write((0xA1, NONCE_KEY))


def test_opaque_absorbs_a_merge_and_saturation_reads_as_opaque():
    """The packer's deferred set folds blooms together: once an opaque
    one is in it everything conflicts; and a filter saturated by keys
    is the same filter as an opaque one (same bytes)."""
    skipped = AccessBloom(bits=8)
    skipped.merge(AccessBloom.from_keys([(1, 1)], [], bits=8))
    lone_reader = AccessBloom.from_keys([(9, 9)], [], bits=8)
    assert not lone_reader.may_conflict(skipped)
    skipped.merge(AccessBloom.opaque(bits=8))
    assert skipped.is_opaque
    assert lone_reader.may_conflict(skipped)
    assert skipped.may_conflict(lone_reader)
    saturated = AccessBloom.from_keys(
        [(a, 0) for a in range(64)], [(a, 1) for a in range(64)], bits=8
    )
    assert saturated.reads is not None and saturated.is_opaque
    assert saturated == AccessBloom.opaque(bits=8)
    assert AccessBloom.from_bytes(saturated.to_bytes()).reads is None
    import pytest

    with pytest.raises(ValueError):
        skipped.merge(AccessBloom(bits=16))


def test_serialization_rejects_garbage():
    import pytest

    with pytest.raises(ValueError):
        AccessBloom.from_bytes(b"")
    with pytest.raises(ValueError):
        AccessBloom.from_bytes(b"\x02\x01\x01" + b"\x00" * 16)
    with pytest.raises(ValueError):
        AccessBloom.from_bytes(b"\x01\x01\x01" + b"\x00" * 15)


def test_opaque_conflicts_with_everything_and_survives_serialization():
    opaque = AccessBloom.opaque(bits=64)
    assert opaque.is_opaque
    empty = AccessBloom(bits=64)
    assert opaque.may_conflict(opaque)
    assert not opaque.may_conflict(empty)  # nothing writes in `empty`
    touched = AccessBloom.from_keys([], [(1, BALANCE_KEY)], bits=64)
    assert opaque.may_conflict(touched)
    restored = AccessBloom.from_bytes(opaque.to_bytes())
    assert restored.is_opaque and restored == opaque


def test_merge_unions_masks():
    a = AccessBloom.from_keys([(1, 1)], [(2, 2)], bits=64)
    b = AccessBloom.from_keys([(3, 3)], [(4, 4)], bits=64)
    a.merge(b)
    assert a.may_read((1, 1)) and a.may_read((3, 3))
    assert a.may_write((2, 2)) and a.may_write((4, 4))


def test_declared_sets_build_exact_bloom_with_sender_keys():
    tx = Transaction(
        sender=0xAA, to=0xBB, data=b"\x01\x02\x03\x04",
        gas_limit=100_000,
        tags={"reads": [(0xBB, 5)], "writes": [(0xBB, 5)]},
    )
    bloom = bloom_for_transaction(tx)
    assert not bloom.is_opaque
    assert bloom.may_read((0xBB, 5)) and bloom.may_write((0xBB, 5))
    # Implicit fee/nonce keys: two declared-set txs from one sender must
    # always conflict so their nonce order survives packing.
    sibling = bloom_for_transaction(Transaction(
        sender=0xAA, to=0xCC, nonce=1, data=b"\x05\x06\x07\x08",
        gas_limit=100_000, tags={"reads": [], "writes": []},
    ))
    assert bloom.may_conflict(sibling)


def test_transfer_bloom_covers_discovered_access_set():
    """The plain-transfer bloom is a superset of what execution actually
    touches — checked against discover_access_sets itself, which derives
    its access set from the same ``transfer_access``."""
    state = WorldState()
    state.set_balance(0xA1, 10**18)
    state.clear_journal()
    for value, data, gas_limit in [
        (5, b"", 50_000),
        (0, b"", 50_000),
        # Calldata to a code-free account executes nothing: same form.
        (5, b"\xAA\xBB\xCC\xDD\x00", 50_000),
        (0, b"\xAA\xBB\xCC\xDD\x00", 50_000),
        # Refused before the call: touches nothing, still covered.
        (5, b"", 20_000),
        (10**19, b"", 50_000),
    ]:
        tx = Transaction(sender=0xA1, to=0xB2, value=value, data=data,
                         gas_limit=gas_limit)
        bloom = bloom_for_transaction(tx, state=state)
        assert not bloom.is_opaque
        [artifact] = discover_access_sets([tx], state.copy())
        for key in artifact.access.reads:
            assert bloom.may_read(key), key
        for key in artifact.access.writes:
            assert bloom.may_write(key), key
        # The sender's implicit fee and nonce keys keep its nonce order.
        for key in ((0xA1, BALANCE_KEY), (0xA1, NONCE_KEY)):
            assert bloom.may_read(key) and bloom.may_write(key)


def test_contract_call_without_declaration_gets_opaque_bloom():
    state = WorldState()
    state.set_balance(0xA1, 10**18)
    state.set_code(0xB2, b"\x00\x01\x02")
    state.clear_journal()
    call = Transaction(
        sender=0xA1, to=0xB2, data=b"\xAA\xBB\xCC\xDD",
        gas_limit=100_000,
    )
    assert bloom_for_transaction(call, state=state).is_opaque
    # Transfers *to* the contract are not plain either (its code runs).
    to_contract = Transaction(sender=0xA1, to=0xB2, value=1,
                              gas_limit=50_000)
    assert bloom_for_transaction(to_contract, state=state).is_opaque
