"""Block witnesses: one block's pre-state, as a state a node can adopt.

A witness is everything a node without the full state needs to
re-execute one block and recompute the post-state root bit-identically:

* the pre-state root it starts from,
* the account tree expanded along every touched address's path (all
  other subtrees collapsed to hash stubs),
* the pre-block contents of every touched account (fields + storage),
  which are the preimages of the expanded leaves.

Wire form (RLP, nesting kept flat so arbitrarily deep tries stay within
:data:`repro.chain.rlp.MAX_DEPTH`):

    [version=1, pre_root, tree_items, account_entries]

``tree_items`` is the flat post-order node list of
:meth:`~repro.trie.tree.MerkleTree.serialize_expanded`, each item one of
``[0x00, key, value]`` (leaf), ``[0x01, bit]`` (branch: pops right then
left off the decode stack), ``[0x02, hash]`` (stub), ``[0x03]`` (empty
tree, sole item). ``account_entries`` is
``[address, exists, nonce, balance, code, [[slot, value], ...]]``
sorted by address with nonzero slot values only.

:func:`witness_state` checks every entry against the decoded partial
tree (whose root must equal ``pre_root``) and turns the witness into a
``(WorldState, StateTrie)`` pair: the entries' accounts, and a trie over
the partial tree bound to them the way :meth:`StateTrie.attach` binds a
full one. A node adopts the pair and runs the block through
``Node.execute_block`` like any other; its seal folds the post-state
into the partial tree and checks the header's root. Execution that
strays outside the witness crosses a stub there and fails with
:class:`~repro.trie.errors.WitnessError` — under-provisioned witnesses
are detected, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain import rlp
from ..chain.account import Account
from ..chain.state import PreImage, WorldState
from ..obs import get_registry
from .errors import StateRootMismatchError, WitnessError
from .state_trie import StateTrie
from .tree import MerkleTree
from .verify import account_key

__all__ = [
    "MAX_WITNESS_BYTES",
    "Witness",
    "WitnessAccount",
    "build_witness",
    "decode_witness",
    "witness_state",
]

#: Upper bound on an encoded witness blob (hostile-input backstop; the
#: writer's own witnesses are a few KB per block at repro scale).
MAX_WITNESS_BYTES = 1 << 26

WITNESS_VERSION = 1

_NODE_LEAF = b"\x00"
_NODE_BRANCH = b"\x01"
_NODE_STUB = b"\x02"
_NODE_EMPTY = b"\x03"

_UINT256_LIMIT = 1 << 256


@dataclass(frozen=True)
class WitnessAccount:
    """Pre-block contents of one touched account (absent when not
    ``exists``: the entry then only pins the address's non-membership)."""

    address: int
    exists: bool
    nonce: int = 0
    balance: int = 0
    code: bytes = b""
    slots: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Witness:
    """A decoded block witness."""

    pre_root: bytes
    nodes: tuple[tuple, ...]
    accounts: tuple[WitnessAccount, ...]


# -- building (writer side) --------------------------------------------------

def build_witness(trie, state, block) -> bytes:
    """Encode the witness for *block*, just executed against *state*.

    Must run *before* ``trie.update`` folds the block's journal entries
    (i.e. before the post-root is sealed): the trie is still at its
    pre-block shape and the journal still holds the block's writes. The
    touched set is every address the block wrote or read
    (``state.witness_reads``), its coinbase, senders and recipients.
    """
    pres = state.pre_images()
    touched = set(pres).union(state.witness_reads or ())
    touched.add(block.header.coinbase)
    for tx in block.transactions:
        touched.add(tx.sender)
        if tx.to is not None:
            touched.add(tx.to)
    addresses = sorted(touched)
    entries = []
    for address in addresses:
        # An address the block only read is its own pre-image.
        account = state._accounts.get(address)
        pre = pres.get(address) or PreImage(account)
        if not pre.member:
            entries.append(
                [rlp.encode_int(address), b"", b"", b"", b"", []]
            )
            continue
        entries.append(
            [
                rlp.encode_int(address),
                rlp.encode_int(1),
                rlp.encode_int(pre.nonce),
                rlp.encode_int(pre.balance),
                pre.code,
                [
                    [rlp.encode_int(slot), rlp.encode_int(value)]
                    for slot, value in sorted(pre.storage(account).items())
                    if value
                ],
            ]
        )
    items = []
    for node in trie.expanded_nodes(addresses):
        tag = node[0]
        if tag == "leaf":
            items.append([_NODE_LEAF, node[1], node[2]])
        elif tag == "branch":
            items.append([_NODE_BRANCH, rlp.encode_int(node[1])])
        elif tag == "stub":
            items.append([_NODE_STUB, node[1]])
        else:
            items.append([_NODE_EMPTY])
    blob = rlp.encode(
        [rlp.encode_int(WITNESS_VERSION), trie.root(), items, entries]
    )
    registry = get_registry()
    if registry.enabled:
        registry.histogram("trie.witness_bytes").observe(len(blob))
    return blob


# -- decoding (hardened) ------------------------------------------------------

def _decode_uint(item, what: str, limit: int = _UINT256_LIMIT) -> int:
    try:
        value = rlp.decode_int(rlp.as_bytes(item, what))
    except rlp.RLPDecodingError as exc:
        raise WitnessError(str(exc)) from exc
    if value >= limit:
        raise WitnessError(f"{what} out of range")
    return value


def _decode_hash(item, what: str) -> bytes:
    try:
        data = rlp.as_bytes(item, what)
    except rlp.RLPDecodingError as exc:
        raise WitnessError(str(exc)) from exc
    if len(data) != 32:
        raise WitnessError(f"{what} must be 32 bytes")
    return data


def decode_witness(blob: bytes) -> Witness:
    """Decode witness bytes; :class:`WitnessError` on any malformation."""
    if not isinstance(blob, (bytes, bytearray)):
        raise WitnessError("witness blob must be bytes")
    if len(blob) > MAX_WITNESS_BYTES:
        raise WitnessError(f"witness exceeds {MAX_WITNESS_BYTES} bytes")
    try:
        fields = rlp.as_list(rlp.decode(bytes(blob)), "witness", 4)
        raw_items = rlp.as_list(fields[2], "witness tree")
        raw_entries = rlp.as_list(fields[3], "witness accounts")
    except rlp.RLPDecodingError as exc:
        raise WitnessError(str(exc)) from exc
    if _decode_uint(fields[0], "witness version", 256) != WITNESS_VERSION:
        raise WitnessError("unsupported witness version")
    pre_root = _decode_hash(fields[1], "witness pre-root")
    nodes: list[tuple] = []
    for raw in raw_items:
        try:
            item = rlp.as_list(raw, "witness tree node")
            if not item:
                raise WitnessError("empty witness tree node")
            tag = rlp.as_bytes(item[0], "witness node tag")
        except rlp.RLPDecodingError as exc:
            raise WitnessError(str(exc)) from exc
        if tag == _NODE_LEAF and len(item) == 3:
            nodes.append(
                (
                    "leaf",
                    _decode_hash(item[1], "leaf key"),
                    _decode_hash(item[2], "leaf value"),
                )
            )
        elif tag == _NODE_BRANCH and len(item) == 2:
            nodes.append(
                ("branch", _decode_uint(item[1], "branch bit", 256))
            )
        elif tag == _NODE_STUB and len(item) == 2:
            nodes.append(("stub", _decode_hash(item[1], "stub hash")))
        elif tag == _NODE_EMPTY and len(item) == 1:
            nodes.append(("empty",))
        else:
            raise WitnessError("malformed witness tree node")
    accounts: list[WitnessAccount] = []
    previous = -1
    for raw in raw_entries:
        try:
            entry = rlp.as_list(raw, "witness account", 6)
            raw_slots = rlp.as_list(entry[5], "witness slots")
            code = rlp.as_bytes(entry[4], "witness code")
        except rlp.RLPDecodingError as exc:
            raise WitnessError(str(exc)) from exc
        address = _decode_uint(entry[0], "witness address")
        if address <= previous:
            raise WitnessError(
                "witness accounts must be strictly address-sorted"
            )
        previous = address
        exists = _decode_uint(entry[1], "witness exists flag", 2) == 1
        slots: list[tuple[int, int]] = []
        last_slot = -1
        for raw_slot in raw_slots:
            try:
                pair = rlp.as_list(raw_slot, "witness slot", 2)
            except rlp.RLPDecodingError as exc:
                raise WitnessError(str(exc)) from exc
            slot = _decode_uint(pair[0], "witness slot key")
            value = _decode_uint(pair[1], "witness slot value")
            if slot <= last_slot:
                raise WitnessError("witness slots must be sorted")
            if value == 0:
                raise WitnessError("witness slot values must be nonzero")
            last_slot = slot
            slots.append((slot, value))
        if not exists and (
            _decode_uint(entry[2], "witness nonce")
            or _decode_uint(entry[3], "witness balance")
            or code
            or slots
        ):
            raise WitnessError("non-member witness entry carries data")
        accounts.append(
            WitnessAccount(
                address=address,
                exists=exists,
                nonce=_decode_uint(entry[2], "witness nonce"),
                balance=_decode_uint(entry[3], "witness balance"),
                code=code,
                slots=tuple(slots),
            )
        )
    return Witness(
        pre_root=pre_root, nodes=tuple(nodes), accounts=tuple(accounts)
    )


# -- adopting -----------------------------------------------------------------

def witness_state(
    blob: bytes, pre_root: bytes, height: int
) -> tuple[WorldState, StateTrie]:
    """The pre-state *blob* witnesses, as a state and its bound trie.

    *pre_root* is the root of the tip at *height* the witness must
    extend. Raises :class:`StateRootMismatchError` when it does not and
    :class:`WitnessError` when the witness is malformed, its tree does
    not hash to its own pre-root, a member entry differs from its leaf
    or a non-member entry has one.
    """
    witness = decode_witness(blob)
    if witness.pre_root != pre_root:
        raise StateRootMismatchError(height, pre_root, witness.pre_root)
    trie = StateTrie()
    tree = trie._tree = MerkleTree.from_nodes(witness.nodes, trie._counter)
    if tree.root() != witness.pre_root:
        raise WitnessError(
            "witness tree does not hash to its claimed pre-root"
        )
    state = WorldState()
    for entry in witness.accounts:
        key = account_key(entry.address)
        leaf = tree.get(key)
        if not entry.exists:
            if leaf is not None:
                raise WitnessError(
                    f"witness claims {entry.address:#x} absent but the "
                    "pre-state tree has a leaf for it"
                )
            continue
        account = Account(
            entry.nonce, entry.balance, entry.code, dict(entry.slots)
        )
        # Re-deriving the leaf from the entry must leave it unchanged.
        trie._set_leaf(entry.address, account, rebuild_storage=True)
        if tree.get(key) != leaf:
            raise WitnessError(
                f"witness account {entry.address:#x} does not match its "
                "leaf in the pre-state tree"
            )
        state.load_account(entry.address, account)
    # Bound as StateTrie.attach binds: nothing journaled yet.
    state.bind_trie()
    return state, trie
