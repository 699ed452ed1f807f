"""Fuzz the proof and witness wire decoders (mirrors test_rlp_fuzz).

The contract under test: any byte string handed to
:func:`repro.trie.decode_proof` either yields a proof or raises the
typed :class:`ProofDecodingError`; :func:`repro.trie.decode_witness`
likewise raises only :class:`WitnessError`. No input — arbitrary bytes
or a mutation of an honest encoding — may escape with an untyped
exception, and no mutated proof may ever *verify* against the root it
was cut from.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.node import Node
from repro.chain.transaction import Transaction
from repro.storage import StorageConfig, attach
from repro.trie import (
    ProofDecodingError,
    WitnessError,
    decode_proof,
    decode_witness,
    encode_proof,
    verify_account_proof,
    verify_proof_blob,
    verify_storage_proof,
)
from tests.conftest import wal_witnesses

DECODERS = [
    (decode_proof, ProofDecodingError),
    (decode_witness, WitnessError),
]


def assert_contained(blob: bytes) -> None:
    """Every decoder accepts the blob or raises exactly its typed error."""
    for decode, error in DECODERS:
        try:
            decode(blob)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - the property under test
            raise AssertionError(
                f"{decode.__name__} escaped with "
                f"{type(exc).__name__}: {exc!r}"
            ) from exc


@pytest.fixture(scope="module")
def proven():
    """A small chain with sealed roots, one account and one storage proof."""
    node = Node(emit_witness=True)
    node.state.set_balance(1, 10**12)
    node.state.set_balance(2, 1)
    node.state.set_storage(2, 5, 99)
    node.trie.update(node.state)
    node.hear(Transaction(sender=1, to=3, value=7))
    with tempfile.TemporaryDirectory() as data_dir:
        attach(node, data_dir, StorageConfig(fsync="never"))
        block = node.propose_block()
        node.execute_block(block)
        witness_blob = wal_witnesses(node.store)[block.header.height]
        node.store.close()
    root = node.state_root
    account_blob = encode_proof(node.trie.account_proof(1))
    storage_blob = encode_proof(node.trie.storage_proof(2, 5, 99))
    return root, account_blob, storage_blob, witness_blob


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_are_contained(blob):
    assert_contained(blob)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["flip", "truncate", "insert", "delete"]))
def test_mutated_proofs_never_verify(proven, data, op):
    root, account_blob, storage_blob, _ = proven
    blob = data.draw(st.sampled_from([account_blob, storage_blob]))
    position = data.draw(
        st.integers(min_value=0, max_value=max(len(blob) - 1, 0))
    )
    if op == "flip":
        flip = data.draw(st.integers(min_value=1, max_value=255))
        mutated = (
            blob[:position]
            + bytes([blob[position] ^ flip])
            + blob[position + 1:]
        )
    elif op == "truncate":
        mutated = blob[:position]
    elif op == "insert":
        mutated = (
            blob[:position]
            + data.draw(st.binary(min_size=1, max_size=4))
            + blob[position:]
        )
    else:
        mutated = blob[:position] + blob[position + 1:]
    if mutated == blob:
        return
    try:
        proof, ok = verify_proof_blob(mutated, root)
    except ProofDecodingError:
        return
    except Exception as exc:  # noqa: BLE001 - the property under test
        raise AssertionError(
            f"mutated proof escaped with {type(exc).__name__}: {exc!r}"
        ) from exc
    assert not ok, f"mutated proof ({op} at {position}) verified"


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["flip", "truncate", "insert", "delete"]))
def test_mutated_witnesses_stay_typed(proven, data, op):
    _, _, _, witness_blob = proven
    position = data.draw(
        st.integers(min_value=0, max_value=max(len(witness_blob) - 1, 0))
    )
    if op == "flip":
        flip = data.draw(st.integers(min_value=1, max_value=255))
        mutated = (
            witness_blob[:position]
            + bytes([witness_blob[position] ^ flip])
            + witness_blob[position + 1:]
        )
    elif op == "truncate":
        mutated = witness_blob[:position]
    elif op == "insert":
        mutated = (
            witness_blob[:position]
            + data.draw(st.binary(min_size=1, max_size=4))
            + witness_blob[position:]
        )
    else:
        mutated = witness_blob[:position] + witness_blob[position + 1:]
    if mutated == witness_blob:
        return
    try:
        decode_witness(mutated)
    except WitnessError:
        pass
    except Exception as exc:  # noqa: BLE001 - the property under test
        raise AssertionError(
            f"mutated witness escaped with {type(exc).__name__}: {exc!r}"
        ) from exc


def test_round_trip_is_identity(proven):
    root, account_blob, storage_blob, _ = proven
    for blob, verify in (
        (account_blob, verify_account_proof),
        (storage_blob, verify_storage_proof),
    ):
        proof = decode_proof(blob)
        assert encode_proof(proof) == blob
        assert verify(proof, root)
        assert not verify(proof, bytes(32))
    for blob in (account_blob, storage_blob):
        proof, ok = verify_proof_blob(blob, root)
        assert ok
        _, bad = verify_proof_blob(blob, bytes(32))
        assert not bad


def test_oversized_blob_is_refused():
    from repro.trie.proof import MAX_PROOF_BYTES

    with pytest.raises(ProofDecodingError):
        decode_proof(b"\x00" * (MAX_PROOF_BYTES + 1))


def test_decoders_demand_bytes():
    for decode, error in DECODERS:
        for bad in (None, "deadbeef", 42, [b""]):
            with pytest.raises(error):
                decode(bad)


def test_verifier_never_throws_on_hostile_proof_objects(proven):
    """The dependency-free verifier returns False, never raises."""
    from repro.trie import AccountProof, StorageProof
    from repro.trie.verify import fold_steps

    root, account_blob, _, _ = proven
    good = decode_proof(account_blob)
    hostile = [
        # non-monotonic step bits (could not come from a real tree)
        dataclasses_replace_steps(good, [(5, b"\x00" * 32),
                                         (5, b"\x00" * 32)]),
        # mis-sized sibling hash
        dataclasses_replace_steps(good, [(1, b"\x00" * 31)]),
        # negative / oversized integers
        AccountProof(address=-1, nonce=0, balance=0,
                     code_hash=b"\x00" * 32, storage_root=b"\x00" * 32),
        AccountProof(address=1, nonce=0, balance=1 << 300,
                     code_hash=b"\x00" * 32, storage_root=b"\x00" * 32),
        # wrong types entirely
        AccountProof(address="1", nonce=0, balance=0,
                     code_hash=None, storage_root=b"\x00" * 32),
    ]
    for proof in hostile:
        assert verify_account_proof(proof, root) is False
    # Zero-valued storage is never in the trie: invalid by construction.
    zero = StorageProof(account=good, slot=1, value=0)
    assert verify_storage_proof(zero, root) is False
    big = StorageProof(account=good, slot=1, value=1 << 256)
    assert verify_storage_proof(big, root) is False
    with pytest.raises(ValueError):
        fold_steps(b"\x00" * 32, b"\x00" * 32,
                   [(2, b"\x00" * 32), (1, b"\x00" * 32)])


def dataclasses_replace_steps(proof, raw_steps):
    from dataclasses import replace

    from repro.trie import ProofStep

    return replace(
        proof,
        steps=tuple(ProofStep(bit, sibling) for bit, sibling in raw_steps),
    )
