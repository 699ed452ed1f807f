"""The RLP codec against the recursive codec it replaced.

``repro.chain.rlp`` decodes byte-string members of a list inline and
recurses only into nested lists. The recursive codec below — one call
per item, in and out — is kept here as the oracle: over arbitrary
blobs the decoder returns the oracle's item or raises the oracle's
``RLPDecodingError`` (same message), and over arbitrary items the
encoder writes the oracle's bytes. Transactions built by
``Transaction.from_rlp`` equal the ones the dataclass constructor
builds from the oracle's decode, and the durable blobs (a WAL record, a
snapshot, a mempool spill) are pinned by digest as this encoding wrote
them before the change.

CI runs this file at 1000 examples (``--hypothesis-profile thorough``).
"""

import dataclasses
import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.chain import rlp
from repro.chain.block import Block, BlockHeader
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.storage import codec
from repro.storage.snapshot import write_snapshot
from repro.storage.wal import frame_record, unframe_record

RLPDecodingError = rlp.RLPDecodingError


# -- the oracle: one recursive call per item -----------------------------
def oracle_encode(item) -> bytes:
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return _oracle_prefix(len(data), 0x80) + data
    if isinstance(item, list):
        payload = b"".join(oracle_encode(sub) for sub in item)
        return _oracle_prefix(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _oracle_prefix(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = rlp.encode_int(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def oracle_decode(data: bytes):
    item, consumed = _oracle_at(data, 0)
    if consumed != len(data):
        raise RLPDecodingError(
            f"trailing bytes: consumed {consumed} of {len(data)}"
        )
    return item


def _oracle_at(data, pos, depth=0):
    if pos >= len(data):
        raise RLPDecodingError("unexpected end of input")
    prefix = data[pos]
    if prefix < 0x80:
        return bytes([prefix]), pos + 1
    if prefix < 0xB8:
        length = prefix - 0x80
        chunk = _oracle_take(data, pos + 1, length)
        if length == 1 and chunk[0] < 0x80:
            raise RLPDecodingError("non-canonical single byte encoding")
        return chunk, pos + 1 + length
    if prefix < 0xC0:
        len_of_len = prefix - 0xB7
        length = _oracle_length(data, pos + 1, len_of_len)
        start = pos + 1 + len_of_len
        return _oracle_take(data, start, length), start + length
    if depth >= rlp.MAX_DEPTH:
        raise RLPDecodingError(f"list nesting exceeds {rlp.MAX_DEPTH}")
    if prefix < 0xF8:
        return _oracle_list(data, pos + 1, prefix - 0xC0, depth)
    len_of_len = prefix - 0xF7
    length = _oracle_length(data, pos + 1, len_of_len)
    return _oracle_list(data, pos + 1 + len_of_len, length, depth)


def _oracle_list(data, start, length, depth):
    end = start + length
    if end > len(data):
        raise RLPDecodingError("list payload exceeds input")
    items = []
    pos = start
    while pos < end:
        item, pos = _oracle_at(data, pos, depth + 1)
        if pos > end:
            raise RLPDecodingError("list item exceeds list payload")
        items.append(item)
    return items, end


def _oracle_length(data, pos, len_of_len):
    raw = _oracle_take(data, pos, len_of_len)
    if raw and raw[0] == 0:
        raise RLPDecodingError("length encoding has leading zero byte")
    length = int.from_bytes(raw, "big")
    if length < 56:
        raise RLPDecodingError("non-canonical long-form length")
    return length


def _oracle_take(data, pos, length):
    if pos + length > len(data):
        raise RLPDecodingError("payload exceeds input")
    return data[pos:pos + length]


def outcome(decoder, blob):
    """("ok", item) or ("error", message) — never another exception."""
    try:
        return "ok", decoder(blob)
    except RLPDecodingError as exc:
        return "error", str(exc)


def assert_decodes_alike(blob) -> None:
    assert outcome(rlp.decode, blob) == outcome(oracle_decode, blob)


# -- strategies ---------------------------------------------------------
#: Strings around every prefix boundary: single bytes, the 55/56 short /
#: long edge, and a few long ones.
STRINGS = st.one_of(
    st.binary(max_size=2),
    st.binary(min_size=54, max_size=58),
    st.binary(max_size=300),
)
ITEMS = st.recursive(
    STRINGS, lambda children: st.lists(children, max_size=8), max_leaves=40
)


def nested(depth: int) -> bytes:
    """*depth* single-member lists around an empty string."""
    item = b""
    for _ in range(depth):
        item = [item]
    return oracle_encode(item)


@st.composite
def mutated_encodings(draw):
    """A valid encoding, then truncated, flipped, extended or spliced."""
    blob = bytearray(oracle_encode(draw(ITEMS)))
    mutation = draw(st.sampled_from(
        ["none", "truncate", "flip", "insert", "delete", "trailing"]
    ))
    pos = draw(st.integers(0, max(0, len(blob) - 1)))
    if mutation == "truncate":
        del blob[pos:]
    elif mutation == "flip" and blob:
        blob[pos] ^= draw(st.integers(1, 255))
    elif mutation == "insert":
        blob.insert(pos, draw(st.integers(0, 255)))
    elif mutation == "delete" and blob:
        del blob[pos]
    elif mutation == "trailing":
        blob += draw(st.binary(min_size=1, max_size=3))
    return bytes(blob)


#: Hand-made encodings the canonical rules refuse (or, for contrast,
#: accept), each alone and as a list member.
NON_CANONICAL = [
    b"\x81\x00",  # a single byte < 0x80 in string form
    b"\x81\x7f",
    b"\x81\x80",  # ... which is fine at 0x80
    b"\xb8\x05hello",  # long form for a short string
    b"\xb8\x00",
    b"\xb9\x00\x38" + b"x" * 56,  # leading zero in the length
    b"\xb8\x38" + b"x" * 55,  # long form, one byte short
    b"\xf8\x02\x80\x80",  # long-form list length under 56
    b"\xf9\x00\x38" + b"\x80" * 56,
    b"\xc2\x80",  # list longer than its input
    b"\xc1\x82ab",  # member longer than its list
    b"\xc2\x81\x05",  # non-canonical member
    b"\xc3\xb8\x01a",  # long-form member
    b"\xc0\x80",  # trailing after a list
    b"\x80\x80",
    b"",
    nested(rlp.MAX_DEPTH),  # the deepest accepted
    nested(rlp.MAX_DEPTH + 1),  # one past it
    b"\xc1" * (rlp.MAX_DEPTH + 40),  # over-deep and truncated
]


# -- the properties -----------------------------------------------------
@given(st.binary(max_size=400))
def test_decode_agrees_with_the_oracle_on_arbitrary_bytes(blob):
    assert_decodes_alike(blob)


@given(mutated_encodings())
def test_decode_agrees_with_the_oracle_on_mutated_encodings(blob):
    assert_decodes_alike(blob)


@given(st.sampled_from(NON_CANONICAL), st.binary(max_size=4))
def test_decode_agrees_with_the_oracle_on_refused_shapes(shape, tail):
    member = _oracle_prefix(len(shape) + 1, 0xC0) + b"\x01" + shape
    for blob in (shape, shape + tail, member, member + tail):
        assert_decodes_alike(blob)


@given(ITEMS)
def test_encode_is_byte_identical_and_round_trips(item):
    blob = rlp.encode(item)
    assert blob == oracle_encode(item)
    assert rlp.decode(blob) == oracle_decode(blob) == item


@given(st.recursive(
    st.one_of(STRINGS, STRINGS.map(bytearray)),
    lambda children: st.lists(children, max_size=6),
    max_leaves=20,
))
def test_encode_takes_bytearray_members_as_the_oracle_does(item):
    assert rlp.encode(item) == oracle_encode(item)


def test_encode_refuses_what_the_oracle_refuses():
    for item in (3, [b"a", 3], [[b"a"], None], "text"):
        for encoder in (rlp.encode, oracle_encode):
            try:
                encoder(item)
            except TypeError:
                continue
            raise AssertionError(f"{encoder.__name__} took {item!r}")


ADDRESSES = st.integers(0, 2**160 - 1)


@given(
    sender=ADDRESSES,
    to=st.none() | ADDRESSES,
    nonce=st.integers(0, 2**64),
    gas_limit=st.integers(0, 2**64),
    gas_price=st.integers(0, 2**64),
    value=st.integers(0, 2**256 - 1),
    data=STRINGS,
)
def test_from_rlp_builds_the_transaction_the_constructor_builds(
    sender, to, nonce, gas_limit, gas_price, value, data
):
    expected = Transaction(
        sender=sender, to=to, nonce=nonce, gas_limit=gas_limit,
        gas_price=gas_price, value=value, data=data,
    )
    blob = oracle_encode([
        rlp.encode_int(nonce), rlp.encode_int(gas_price),
        rlp.encode_int(gas_limit), sender.to_bytes(20, "big"),
        b"" if to is None else to.to_bytes(20, "big"),
        rlp.encode_int(value), data,
    ])
    tx = Transaction.from_rlp(blob)
    twin = Transaction.from_rlp(blob)
    assert tx == expected and hash(tx) == hash(expected)
    assert tx.to_rlp() == expected.to_rlp() == blob
    assert tx.hash() == expected.hash()
    assert tx.tags == {} and tx.tags is not twin.tags
    assert repr(tx) == repr(expected)
    moved = dataclasses.replace(tx, nonce=nonce + 1)
    assert moved.to_rlp() != blob and moved.nonce == nonce + 1


# -- durable blobs, pinned as the recursive codec wrote them ------------
def golden_block() -> Block:
    transactions = [
        Transaction(sender=0xA11CE, to=0xB0B, value=10**18, nonce=3,
                    gas_limit=21_000),
        Transaction(sender=0xA11CE, to=None, nonce=4, gas_limit=900_000,
                    data=bytes(range(200))),
        Transaction(sender=0xC0FFEE, to=0xC0DE, gas_limit=100_000,
                    data=b"\xa9\x05\x9c\xbb" + b"\x00" * 60),
        Transaction(sender=0x7, to=0x0, value=0x7F, gas_price=0),
    ]
    return Block(
        header=BlockHeader(
            height=9, timestamp=1_600_000_090, coinbase=0xBEEF,
            difficulty=1, gas_limit=30_000_000, parent_hash=b"\x17" * 32,
            state_root=b"\x42" * 32,
        ),
        transactions=transactions,
        dag_edges=[(0, 1), (1, 2), (0, 3)],
    )


def golden_state() -> WorldState:
    state = WorldState()
    state.set_balance(0xA11CE, 10**21)
    state.set_nonce(0xA11CE, 5)
    state.set_code(0xC0DE, bytes(range(120)))
    for slot in range(40):
        state.set_storage(0xC0DE, slot * 0x1001, 2**slot + 1)
    state.set_balance(0x7, 0x7F)
    state.clear_journal()
    return state


#: sha256 of each framed blob as the recursive codec wrote it.
GOLDEN_SHA256 = {
    "wal": (
        "4201ad4f9e1e3e29ec0446e1e5b9d7eb52e4f591e7b39954c0070d7d52b54df9"
    ),
    "snapshot": (
        "844e529416d15b8ee46cb2b455f357c575783812d88f3443813d0f4798d4ff7d"
    ),
    "spill": (
        "b38e5293791c80d3d1dfdc8c1e08349308022a1bd1a64df8724c615e3b9cba22"
    ),
}


def test_durable_blobs_are_the_bytes_the_recursive_codec_wrote(tmp_path):
    block = golden_block()
    wal = frame_record(codec.encode_wal_payload(block, b"\x05" * 70))
    snapshot_path = write_snapshot(
        str(tmp_path), 9, golden_state(), b"\x42" * 32
    )
    with open(snapshot_path, "rb") as fh:
        snapshot = fh.read()
    spill = frame_record(codec.mempool_to_rlp([
        (tx, b"\x01\x01\x00" + bytes([index]) * 64)
        for index, tx in enumerate(block.transactions)
    ]))
    blobs = {"wal": wal, "snapshot": snapshot, "spill": spill}
    assert {
        name: hashlib.sha256(blob).hexdigest()
        for name, blob in blobs.items()
    } == GOLDEN_SHA256
    for blob in blobs.values():
        payload = unframe_record(blob)
        item = rlp.decode(payload)
        assert item == oracle_decode(payload)
        assert rlp.encode(item) == oracle_encode(item) == payload

    record = codec.decode_wal_record(unframe_record(wal))
    assert record.block == block and record.witness == b"\x05" * 70
    assert codec.encode_wal_payload(
        record.block, record.witness
    ) == unframe_record(wal)
    spilled = codec.mempool_from_rlp(unframe_record(spill))
    assert [tx for tx, _ in spilled] == block.transactions
    assert frame_record(codec.mempool_to_rlp(spilled)) == spill
    state_rlp = rlp.decode(unframe_record(snapshot))[3]
    assert codec.state_to_rlp(codec.state_from_rlp(state_rlp)) == state_rlp
