"""Canonical RLP encodings for durable artifacts.

Everything the store writes is RLP over the chain's own codec
(:mod:`repro.chain.rlp`) so the WAL, snapshots, and the spilled mempool
share one wire discipline — and one hardened decoder — with the rest of
the system. Each payload has exactly one encoding, led by one
format-version item::

    wal record      RLP([version, block_rlp, witness])
    snapshot        RLP([version, height, state_root_32, state_rlp])
    mempool spill   RLP([version, [[tx_rlp, bloom], ...]])

The one state commitment on disk is the Merkle ``state_root``: a WAL
record's is the root sealed into its block header, a snapshot's is its
third item. An intact payload in any other shape — the unversioned
records older builds wrote included — is refused with a typed
:class:`~repro.storage.errors.UnsupportedFormatError`; there is no
second decoder.

The world-state encoding is *canonical*: accounts sorted by address,
storage slots sorted, empty accounts skipped (the same filter
:meth:`~repro.chain.state.WorldState.state_digest` applies), so two
semantically equal states encode to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain import rlp
from ..chain.account import Account
from ..chain.block import Block
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto import keccak256
from .errors import UnsupportedFormatError

#: The format version leading every durable payload and the replication
#: HELLO. There is one; anything else is refused.
FORMAT_VERSION = 1
VERSION_ITEM = rlp.encode_int(FORMAT_VERSION)


def expect_version(item, what: str, length: int) -> list:
    """The *length* fields behind the version item of a decoded
    envelope; any other shape is an :class:`UnsupportedFormatError`."""
    if (
        not isinstance(item, list)
        or len(item) != length + 1
        or item[0] != VERSION_ITEM
    ):
        raise UnsupportedFormatError(
            f"{what} is not a format-{FORMAT_VERSION} payload "
            f"({length + 1} items led by the version)"
        )
    return item[1:]


def decode_envelope(payload: bytes, what: str, length: int) -> list:
    """Decode an intact payload and strip its version item."""
    try:
        item = rlp.decode(payload)
    except rlp.RLPDecodingError as exc:
        raise UnsupportedFormatError(f"{what}: {exc}") from None
    return expect_version(item, what, length)


def state_to_rlp(state: WorldState) -> bytes:
    """Canonical snapshot encoding of a world state."""
    accounts = []
    for addr, nonce, balance, code, storage in state.state_digest():
        accounts.append(
            [
                rlp.encode_int(addr),
                rlp.encode_int(nonce),
                rlp.encode_int(balance),
                code,
                [
                    [rlp.encode_int(slot), rlp.encode_int(value)]
                    for slot, value in storage
                ],
            ]
        )
    return rlp.encode(accounts)


def state_from_rlp(blob: bytes) -> WorldState:
    """Rebuild a world state from its canonical snapshot encoding."""
    state = WorldState()
    for item in rlp.as_list(rlp.decode(blob), "world state"):
        fields = rlp.as_list(item, "account", 5)
        storage: dict[int, int] = {}
        for pair in rlp.as_list(fields[4], "account storage"):
            slot_value = rlp.as_list(pair, "storage slot", 2)
            storage[rlp.decode_int(slot_value[0])] = rlp.decode_int(
                slot_value[1]
            )
        state.load_account(
            rlp.decode_int(fields[0]),
            Account(
                nonce=rlp.decode_int(fields[1]),
                balance=rlp.decode_int(fields[2]),
                code=rlp.as_bytes(fields[3], "account code"),
                storage=storage,
            ),
        )
    return state


def account_leaf_rlp(address: int, account: Account) -> bytes:
    """Canonical per-account leaf encoding (the digest commitment unit)."""
    return rlp.encode(
        [
            rlp.encode_int(address),
            rlp.encode_int(account.nonce),
            rlp.encode_int(account.balance),
            account.code,
            [
                [rlp.encode_int(slot), rlp.encode_int(value)]
                for slot, value in sorted(account.storage.items())
            ],
        ]
    )


def state_digest_bytes(state: WorldState) -> bytes:
    """32-byte flat commitment to the full world state — the
    trie-independent reference two states are compared with.

    Nothing durable or streamed carries it (the sealed ``state_root``
    is the one stamp); ``repro_health``, the recovery report, the
    drills and the tests compute it on demand to cross-check the trie.

    keccak over the sorted ``(address, leaf_hash)`` pairs of every
    non-empty account, where a leaf hash is keccak over
    :func:`account_leaf_rlp`. Leaf hashes are cached on the state and
    invalidated per-account by its mutators, so a repeated digest costs
    O(accounts touched since the last one) leaf encodings plus one
    keccak over ~52 bytes per live account. A freshly loaded state
    (empty cache) recomputes every leaf and lands on the same value.
    """
    accounts = state._accounts
    leaves = state._leaf_hashes
    dirty = state._digest_dirty
    # Dirty-driven eviction: an address whose account went away (delete,
    # or revert of a creation) is in the dirty set, so only touched
    # leaves are ever inspected — O(touched), not O(leaves).
    for address in dirty:
        if address not in accounts:
            leaves.pop(address, None)
    for address, account in accounts.items():
        if address in dirty or address not in leaves:
            if account.is_empty:
                leaves.pop(address, None)
            else:
                leaves[address] = keccak256(
                    account_leaf_rlp(address, account)
                )
    dirty.clear()
    return keccak256(
        b"".join(
            address.to_bytes(32, "big") + leaves[address]
            for address in sorted(leaves)
        )
    )


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record: the sealed block and its witness."""

    block: Block
    #: Block witness blob (see repro.trie.witness); empty unless the
    #: writer was started with witness emission on.
    witness: bytes = b""


def encode_wal_payload(block: Block, witness: bytes = b"") -> bytes:
    """One WAL record payload. The block's header must be sealed: its
    ``state_root`` is the record's post-state commitment."""
    if not block.header.state_root:
        raise ValueError("a WAL record needs a sealed block header")
    return rlp.encode([VERSION_ITEM, block.to_rlp(), witness])


def decode_wal_record(payload: bytes) -> WalRecord:
    """Decode a WAL record; see the module docstring for the layout."""
    block_rlp, witness = decode_envelope(payload, "wal record", 2)
    block = Block.from_rlp(rlp.as_bytes(block_rlp, "wal block"))
    if not block.header.state_root:
        raise UnsupportedFormatError(
            f"wal record of block {block.header.height} carries an "
            f"unsealed header"
        )
    return WalRecord(
        block=block, witness=rlp.as_bytes(witness, "wal witness")
    )


def mempool_to_rlp(entries) -> bytes:
    """Encode a spilled mempool from ``(transaction, bloom_bytes)``
    pairs (the :meth:`Mempool.spill_entries` shape — access blooms ride
    along so declared-access filters, whose tags are not on the wire,
    survive a restart)."""
    return rlp.encode([
        VERSION_ITEM,
        [[tx.to_rlp(), bytes(bloom_bytes)] for tx, bloom_bytes in entries],
    ])


def mempool_from_rlp(blob: bytes) -> list[tuple[Transaction, bytes]]:
    """Decode a spilled mempool into ``(transaction, bloom_bytes)`` pairs."""
    (items,) = decode_envelope(blob, "spilled mempool", 1)
    entries = []
    for item in rlp.as_list(items, "spilled mempool"):
        tx_rlp, bloom_bytes = rlp.as_list(item, "spilled entry", 2)
        entries.append((
            Transaction.from_rlp(
                rlp.as_bytes(tx_rlp, "spilled transaction")
            ),
            rlp.as_bytes(bloom_bytes, "spilled bloom"),
        ))
    return entries
