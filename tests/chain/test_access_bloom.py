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
    AccessEstimator,
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
        exact=False,
    )
    blob = bloom.to_bytes()
    assert AccessBloom.from_bytes(blob) == bloom
    # The encoding is the spill-file format: byte-stable across runs
    # (blake2b key hashing, big-endian masks). A change here silently
    # invalidates every spilled mempool — pin it.
    assert blob.hex() == (
        "010200" + "0004000200001100" + "0004000000020000"
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
        assert restored.exact == bloom.exact
        assert restored.is_opaque == bloom.is_opaque
        assert restored.to_bytes() == golden
    # The positions behind the bytes, and the mask views over them.
    assert transfer.reads == {426, 3365, 5732, 7345}
    assert transfer.writes == {426, 3365, 5732}
    assert transfer.write_mask == 1 << 426 | 1 << 3365 | 1 << 5732
    assert transfer.read_mask == transfer.write_mask | 1 << 7345
    assert call.reads is None and call.writes is None
    assert call.read_mask == call.write_mask == (1 << DEFAULT_BITS) - 1


def test_each_distinct_key_is_hashed_once(monkeypatch):
    """A transfer names four distinct keys, three of them on both
    sides; declared and estimated sets add the two sender keys to both
    sides too. One digest per distinct key, whatever the source."""
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
    del hashed[:]

    class Seen:
        tx = call
        reads = {(0xC0DE, 3), (0xC0DE, CODE_KEY)}
        writes = {(0xC0DE, 3)}

    estimator = AccessEstimator()
    estimator.observe(Seen())
    untagged = Transaction(
        sender=0xA1, to=0xC0DE, data=b"\xAA\xBB\xCC\xDD",
        gas_limit=100_000,
    )
    estimated = bloom_for_transaction(
        untagged, state=state, estimator=estimator, trust_estimates=True
    )
    assert len(hashed) == len(set(hashed)) == 4
    assert not estimated.exact and not estimated.is_opaque
    assert estimated.may_write((0xA1, BALANCE_KEY))


def test_opaque_absorbs_a_merge_and_saturation_reads_as_opaque():
    """The packer's deferred set folds blooms together: once an opaque
    one is in it everything conflicts; and a filter saturated by keys
    is the same filter as an opaque one (same bytes)."""
    skipped = AccessBloom(bits=8)
    skipped.merge(AccessBloom.from_keys([(1, 1)], [], bits=8))
    lone_reader = AccessBloom.from_keys([(9, 9)], [], bits=8)
    assert not lone_reader.may_conflict(skipped)
    skipped.merge(AccessBloom.opaque(bits=8))
    assert skipped.is_opaque and not skipped.exact
    assert lone_reader.may_conflict(skipped)
    assert skipped.may_conflict(lone_reader)
    saturated = AccessBloom.from_keys(
        [(a, 0) for a in range(64)], [(a, 1) for a in range(64)],
        bits=8, exact=False,
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
    assert opaque.is_opaque and not opaque.exact
    empty = AccessBloom(bits=64)
    assert opaque.may_conflict(opaque)
    assert not opaque.may_conflict(empty)  # nothing writes in `empty`
    touched = AccessBloom.from_keys([], [(1, BALANCE_KEY)], bits=64)
    assert opaque.may_conflict(touched)
    restored = AccessBloom.from_bytes(opaque.to_bytes())
    assert restored.is_opaque and restored == opaque


def test_merge_unions_masks_and_demotes_exactness():
    a = AccessBloom.from_keys([(1, 1)], [(2, 2)], bits=64)
    b = AccessBloom.from_keys([(3, 3)], [(4, 4)], bits=64, exact=False)
    a.merge(b)
    assert a.may_read((1, 1)) and a.may_read((3, 3))
    assert a.may_write((2, 2)) and a.may_write((4, 4))
    assert not a.exact


def test_declared_sets_build_exact_bloom_with_sender_keys():
    tx = Transaction(
        sender=0xAA, to=0xBB, data=b"\x01\x02\x03\x04",
        gas_limit=100_000,
        tags={"reads": [(0xBB, 5)], "writes": [(0xBB, 5)]},
    )
    bloom = bloom_for_transaction(tx)
    assert bloom.exact and not bloom.is_opaque
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
        assert bloom.exact and not bloom.is_opaque
        [artifact] = discover_access_sets([tx], state)
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


def test_estimator_path_is_opt_in_and_marked_inexact():
    state = WorldState()
    state.set_balance(0xA1, 10**18)
    state.set_code(0xB2, b"\x00\x01\x02")
    state.clear_journal()
    call = Transaction(
        sender=0xA1, to=0xB2, data=b"\xAA\xBB\xCC\xDD",
        gas_limit=100_000,
    )

    class FakeArtifact:
        tx = call
        reads = {(0xB2, 3), (0xB2, CODE_KEY)}
        writes = {(0xB2, 3)}

    estimator = AccessEstimator()
    estimator.observe(FakeArtifact())
    assert len(estimator) == 1
    # Without trust, the estimate is ignored: opaque (never reordered).
    conservative = bloom_for_transaction(
        call, state=state, estimator=estimator
    )
    assert conservative.is_opaque
    trusted = bloom_for_transaction(
        call, state=state, estimator=estimator, trust_estimates=True
    )
    assert not trusted.is_opaque and not trusted.exact
    assert trusted.may_write((0xB2, 3))
    assert trusted.may_read((0xA1, BALANCE_KEY))


def test_estimator_evicts_oldest_shape_at_capacity():
    estimator = AccessEstimator(max_shapes=2)

    def artifact(to, selector):
        class A:
            tx = Transaction(sender=1, to=to, data=selector,
                             gas_limit=100_000)
            reads = {(to, 1)}
            writes = {(to, 1)}
        return A()

    estimator.observe(artifact(0xB1, b"\x01\x01\x01\x01"))
    estimator.observe(artifact(0xB2, b"\x02\x02\x02\x02"))
    estimator.observe(artifact(0xB3, b"\x03\x03\x03\x03"))
    assert len(estimator) == 2
    assert estimator.estimate(
        Transaction(sender=9, to=0xB1, data=b"\x01\x01\x01\x01",
                    gas_limit=100_000)
    ) is None


def _artifact(to, selector, reads, writes, sender=1):
    class A:
        pass
    A.tx = Transaction(sender=sender, to=to, data=selector,
                       gas_limit=100_000)
    A.reads = set(reads)
    A.writes = set(writes)
    return A()


def test_observe_actual_widens_until_decay_then_replaces():
    """Occasional mispredictions widen the union; *decay* consecutive
    ones replace it with the latest actual set (drift correction)."""
    from repro.obs import use_registry

    estimator = AccessEstimator(decay=3)
    sel = b"\xAA\xAA\xAA\xAA"
    estimator.observe(_artifact(0xB1, sel, {(0xB1, 1)}, {(0xB1, 1)}))

    with use_registry() as registry:
        # Two mispredictions in a row: union widens, streak builds.
        for slot in (2, 3):
            estimator.observe_actual(
                _artifact(0xB1, sel, {(0xB1, slot)}, {(0xB1, slot)})
            )
        reads, writes = estimator._shapes[(0xB1, sel)]
        assert (0xB1, 1) in reads and (0xB1, 3) in reads
        # Third consecutive miss hits the decay bound: the stale union
        # is dropped, only the latest actual set survives.
        estimator.observe_actual(
            _artifact(0xB1, sel, {(0xB1, 9)}, {(0xB1, 9)})
        )
        reads, writes = estimator._shapes[(0xB1, sel)]
        assert reads == {(0xB1, 9)} and writes == {(0xB1, 9)}
        corrections = registry.counter("packing.estimate_corrections")
        assert corrections.value == 3


def test_observe_actual_accurate_estimate_resets_streak():
    estimator = AccessEstimator(decay=2)
    sel = b"\xBB\xBB\xBB\xBB"
    estimator.observe(_artifact(0xB1, sel, {(0xB1, 1)}, {(0xB1, 1)}))
    # Miss (streak 1), then an accurate prediction (streak resets), then
    # another miss (streak 1 again) — never reaches decay=2, so the
    # union keeps every key it ever saw.
    estimator.observe_actual(_artifact(0xB1, sel, {(0xB1, 2)}, set()))
    estimator.observe_actual(_artifact(0xB1, sel, {(0xB1, 1)}, set()))
    estimator.observe_actual(_artifact(0xB1, sel, {(0xB1, 3)}, set()))
    reads, _ = estimator._shapes[(0xB1, sel)]
    assert {(0xB1, 1), (0xB1, 2), (0xB1, 3)} <= reads


def test_observe_actual_aborts_alone_count_as_misprediction():
    """A shape whose transactions keep aborting under OCC decays even
    when its access-set estimate was a superset of the actual keys."""
    estimator = AccessEstimator(decay=2)
    sel = b"\xCC\xCC\xCC\xCC"
    estimator.observe(
        _artifact(0xB1, sel, {(0xB1, 1), (0xB1, 2)}, {(0xB1, 1)})
    )
    accurate = _artifact(0xB1, sel, {(0xB1, 1)}, {(0xB1, 1)})
    estimator.observe_actual(accurate, aborts=1)
    estimator.observe_actual(accurate, aborts=2)
    reads, writes = estimator._shapes[(0xB1, sel)]
    assert reads == {(0xB1, 1)} and writes == {(0xB1, 1)}


def test_observe_actual_unknown_shape_falls_back_to_observe():
    estimator = AccessEstimator()
    estimator.observe_actual(
        _artifact(0xB9, b"\xDD\xDD\xDD\xDD", {(0xB9, 1)}, set())
    )
    assert len(estimator) == 1


def test_eviction_drops_the_stale_streak_with_the_shape():
    """Regression: evicting a shape at capacity must also drop its
    misprediction streak, or a re-learned shape would inherit a stale
    streak and decay on its first miss."""
    estimator = AccessEstimator(max_shapes=1, decay=2)
    sel_a, sel_b = b"\x01\x01\x01\x01", b"\x02\x02\x02\x02"
    estimator.observe(_artifact(0xB1, sel_a, {(0xB1, 1)}, set()))
    # Build a streak of 1 on shape A (one short of decay).
    estimator.observe_actual(_artifact(0xB1, sel_a, {(0xB1, 2)}, set()))
    assert estimator._stale.get((0xB1, sel_a)) == 1
    # Shape B evicts shape A — streak must go with it.
    estimator.observe(_artifact(0xB2, sel_b, {(0xB2, 1)}, set()))
    assert (0xB1, sel_a) not in estimator._stale
    # Re-learn shape A: a single miss must widen, not replace.
    estimator.observe(_artifact(0xB1, sel_a, {(0xB1, 1)}, set()))
    estimator.observe_actual(_artifact(0xB1, sel_a, {(0xB1, 5)}, set()))
    reads, _ = estimator._shapes[(0xB1, sel_a)]
    assert {(0xB1, 1), (0xB1, 5)} <= reads


def test_mempool_observe_outcomes_feeds_estimator():
    from repro.chain.mempool import Mempool

    pool = Mempool(estimator=AccessEstimator(decay=2))
    art = _artifact(0xB1, b"\xEE\xEE\xEE\xEE", {(0xB1, 1)}, {(0xB1, 1)})
    pool.observe_outcomes([art])
    assert len(pool.estimator) == 1
    # None slots (faulted / never-executed) are skipped; abort counts
    # line up by index.
    pool.observe_outcomes([None, art], abort_counts=[0, 1])
    assert pool.estimator._stale.get((0xB1, b"\xEE\xEE\xEE\xEE")) == 1
