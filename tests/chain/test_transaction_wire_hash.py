"""The hash-from-wire argument: one transaction, one accepted encoding.

``Transaction.from_rlp`` stamps ``keccak256(blob)`` as the transaction's
hash instead of re-encoding what it just decoded. That is sound only if
every blob it accepts is *the* encoding of the transaction it returns.
The replay guard (``committed`` / ``_pending`` / the mempool) is hash
uniqueness, so a second accepted encoding of one transaction would be a
second hash for it — and a double spend.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chain import rlp
from repro.chain.transaction import Transaction
from repro.crypto import keccak256

transactions = st.builds(
    Transaction,
    sender=st.integers(min_value=0, max_value=2**160 - 1),
    to=st.one_of(
        st.none(), st.integers(min_value=0, max_value=2**160 - 1)
    ),
    nonce=st.integers(min_value=0, max_value=2**64),
    gas_limit=st.integers(min_value=0, max_value=2**40),
    gas_price=st.integers(min_value=0, max_value=2**40),
    value=st.integers(min_value=0, max_value=2**256 - 1),
    # Long enough to cross into long-form string and list lengths.
    data=st.binary(max_size=80),
)


def assert_hash_is_of_the_wire(blob: bytes) -> None:
    try:
        tx = Transaction.from_rlp(blob)
    except rlp.RLPDecodingError:
        return
    # ``tx`` itself kept the blob; a copy carries no cache and encodes
    # its seven fields for real.
    assert dataclasses.replace(tx).to_rlp() == blob
    assert tx.to_rlp() == blob
    assert tx.hash() == keccak256(blob)
    # The stamped hash is the one a locally built twin computes.
    twin = Transaction(
        sender=tx.sender, to=tx.to, nonce=tx.nonce,
        gas_limit=tx.gas_limit, gas_price=tx.gas_price,
        value=tx.value, data=tx.data,
    )
    assert twin.hash() == tx.hash()


@given(transactions)
def test_decoded_transaction_carries_the_hash_of_its_blob(tx):
    blob = tx.to_rlp()
    decoded = Transaction.from_rlp(blob)
    assert decoded == tx
    assert "_hash" in decoded.__dict__  # stamped, not recomputed lazily
    assert decoded.hash() == keccak256(blob) == tx.hash()


@given(transactions)
def test_the_wire_blob_is_kept_and_a_copy_carries_neither_cache(tx):
    """``Block.to_rlp`` writes back the bytes that arrived; a transaction
    built any other way — ``dataclasses.replace`` included — encodes and
    hashes its own fields."""
    blob = tx.to_rlp()
    assert tx.to_rlp() is blob  # memoized
    decoded = Transaction.from_rlp(bytearray(blob))
    assert decoded.to_rlp() == blob and type(decoded.to_rlp()) is bytes
    assert decoded == tx  # the caches are not part of the value
    bumped = dataclasses.replace(decoded, nonce=decoded.nonce + 1)
    assert "_rlp" not in bumped.__dict__ and "_hash" not in bumped.__dict__
    assert bumped.to_rlp() != blob
    assert Transaction.from_rlp(bumped.to_rlp()) == bumped
    assert bumped.hash() == keccak256(bumped.to_rlp()) != decoded.hash()


@given(
    transactions,
    st.data(),
    st.sampled_from(["flip", "insert", "delete", "swap", "lengthen"]),
)
def test_any_accepted_mutation_reencodes_to_itself(tx, data, mutation):
    blob = bytearray(tx.to_rlp())
    pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    byte = st.integers(min_value=0, max_value=255)
    if mutation == "flip":
        blob[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    elif mutation == "insert":
        blob.insert(pos, data.draw(byte))
    elif mutation == "delete":
        del blob[pos]
    elif mutation == "swap":
        blob[pos] = data.draw(byte)
    else:
        # A padded length or integer: the classic malleability.
        blob[pos:pos] = b"\x00"
        blob[0] = min(0xFF, blob[0] + 1)
    assert_hash_is_of_the_wire(bytes(blob))


@given(st.binary(max_size=200))
def test_arbitrary_bytes_accepted_only_when_canonical(blob):
    assert_hash_is_of_the_wire(blob)


# -- pinned non-canonical forms ------------------------------------------------
SENDER = (0xA11CE).to_bytes(20, "big")
TO = (0xB0B).to_bytes(20, "big")


def encode_fields(nonce=b"\x03", gas_price=b"\x01", gas_limit=b"\x52\x08",
                  sender=SENDER, to=TO, value=b"\x07", data=b"") -> bytes:
    return rlp.encode([nonce, gas_price, gas_limit, sender, to, value, data])


def test_the_canonical_form_of_the_pinned_transaction_is_accepted():
    blob = encode_fields()
    tx = Transaction.from_rlp(blob)
    assert (tx.nonce, tx.gas_limit, tx.value) == (3, 0x5208, 7)
    assert tx.hash() == keccak256(blob)


def splice(blob: bytes, old: bytes, new: bytes) -> bytes:
    """*blob* with the first *old* replaced and the outer list length
    fixed up (the list stays short-form in every case below)."""
    assert blob.count(old) >= 1 and blob[0] < 0xF8
    body = blob[1:].replace(old, new, 1)
    assert len(body) < 56
    return bytes([0xC0 + len(body)]) + body


LONG_DATA = encode_fields(data=b"\x11" * 60)  # a long-form outer list


@pytest.mark.parametrize(
    "blob, why",
    [
        # 3 spelled 0x0003, and 0 spelled 0x00 instead of the empty string.
        pytest.param(
            encode_fields(nonce=b"\x00\x03"), "leading zero",
            id="leading-zero-nonce",
        ),
        pytest.param(
            encode_fields(nonce=b"\x00"), "leading zero", id="zero-as-0x00"
        ),
        # The single byte 0x05 wrapped in a one-byte string: 0x81 0x05.
        pytest.param(
            splice(encode_fields(nonce=b"\x05"), b"\x05\x01",
                   b"\x81\x05\x01"),
            "non-canonical single byte", id="0x81-0x05",
        ),
        # A 2-byte string in long form (0xb8 0x02 …): length < 56.
        pytest.param(
            splice(encode_fields(), b"\x82\x52\x08", b"\xb8\x02\x52\x08"),
            "non-canonical long-form length", id="long-form-short-string",
        ),
        # The 49-byte outer list in long form.
        pytest.param(
            b"\xf8\x31" + encode_fields()[1:],
            "non-canonical long-form length", id="long-form-short-list",
        ),
        # A long-form length padded with a zero byte.
        pytest.param(
            b"\xf9\x00" + LONG_DATA[1:],
            "length encoding has leading zero", id="length-leading-zero",
        ),
        pytest.param(
            encode_fields() + b"\x00", "trailing bytes", id="trailing-byte"
        ),
        pytest.param(
            encode_fields(sender=SENDER[1:]), "sender must be 20 bytes",
            id="19-byte-sender",
        ),
        pytest.param(
            encode_fields(sender=b"\x00" + SENDER),
            "sender must be 20 bytes", id="21-byte-sender",
        ),
        pytest.param(
            encode_fields(to=TO[1:]), "to must be empty or 20 bytes",
            id="19-byte-to",
        ),
        pytest.param(
            encode_fields(to=b"\x00" + TO), "to must be empty or 20 bytes",
            id="21-byte-to",
        ),
    ],
)
def test_non_canonical_encodings_are_refused(blob, why):
    with pytest.raises(rlp.RLPDecodingError, match=why):
        Transaction.from_rlp(blob)
