"""The authenticated view of a :class:`~repro.chain.state.WorldState`.

One account tree plus one storage subtrie per contract. The account
leaf value commits to ``(nonce, balance, code_hash, storage_root)``, so
the single 32-byte state root authenticates every balance and every
storage slot in the system.

Incrementality is driven by the state's undo journal:
:meth:`StateTrie.update` folds the entries recorded since its last fold
(:meth:`~repro.chain.state.WorldState.pre_images`) and re-derives only
the leaves of the accounts they changed, so a block's root update costs
O(touched · depth) rather than O(state). Accounts that are absent or
*empty* (``Account.is_empty``) are not in the trie, matching the flat
digest's convention; zero-valued slots are likewise absent from their
subtrie.
"""

from __future__ import annotations

import time

from ..obs import get_registry
from .proof import AccountProof, ProofStep, StorageProof
from .tree import MerkleTree
from .verify import (
    account_key,
    account_value_hash,
    slot_key,
    storage_value_hash,
)

__all__ = ["StateTrie"]


class StateTrie:
    """Incremental Merkle trie mirror of one ``WorldState``."""

    def __init__(self) -> None:
        # Shared rehash meter: the account tree and every storage
        # subtrie increment the same cell, so per-update deltas count
        # total hashing work no matter which tree it landed in.
        self._counter = [0]
        self._tree = MerkleTree(self._counter)
        self._storage: dict[int, MerkleTree] = {}
        # address -> (nonce, balance, code_hash, storage_root), the
        # committed leaf contents proofs are cut from.
        self._info: dict[int, tuple[int, int, bytes, bytes]] = {}
        self._keys: dict[int, bytes] = {}
        self._registry = get_registry()

    # -- construction ------------------------------------------------------
    def attach(self, state) -> bytes:
        """Bind to *state*: a full build, after which :meth:`update`
        folds the writes the state journals from here on."""
        self._tree = MerkleTree(self._counter)
        self._storage.clear()
        self._info.clear()
        for address, account in state._accounts.items():
            if account.is_empty:
                continue
            self._set_leaf(address, account, rebuild_storage=True)
        state.bind_trie()
        return self.root()

    @classmethod
    def rebuild_root(cls, state) -> bytes:
        """From-scratch root of *state*, with no tracking side effects.

        The property-test oracle: the incrementally maintained root must
        be bit-identical to this after every block.
        """
        trie = cls()
        for address, account in state._accounts.items():
            if account.is_empty:
                continue
            trie._set_leaf(address, account, rebuild_storage=True)
        return trie.root()

    # -- incremental maintenance -------------------------------------------
    def update(self, state) -> bytes:
        """Fold the state's unfolded journal entries into the trie; new
        root. Accounts that end as they began are not re-derived."""
        started = time.perf_counter()
        rehashed_before = self._counter[0]
        for address, pre in state.pre_images().items():
            account = state._accounts.get(address)
            if not pre.changed(account):
                continue
            if account is None or account.is_empty:
                self._drop_leaf(address)
                continue
            # A SELFDESTRUCT replaced the storage wholesale, so the old
            # subtrie goes; slot diffs only describe in-place mutation.
            if pre.wiped is not None or address not in self._storage:
                self._set_leaf(address, account, rebuild_storage=True)
            else:
                subtrie = self._storage[address]
                for slot, old in pre.slots.items():
                    new = account.storage.get(slot, 0)
                    if new == old:
                        continue
                    if new:
                        subtrie.set(slot_key(slot), storage_value_hash(new))
                    else:
                        subtrie.delete(slot_key(slot))
                self._set_leaf(address, account, rebuild_storage=False)
        state.bind_trie()
        root = self.root()
        self._registry.counter("trie.root_updates").inc()
        self._registry.counter("trie.nodes_rehashed").inc(
            self._counter[0] - rehashed_before
        )
        self._registry.histogram("trie.root_update_ms").observe(
            (time.perf_counter() - started) * 1000.0
        )
        return root

    def root(self) -> bytes:
        return self._tree.root()

    @property
    def nodes_rehashed(self) -> int:
        return self._counter[0]

    # -- proofs ------------------------------------------------------------
    def account_proof(self, address: int) -> AccountProof:
        """Inclusion proof for *address*; KeyError when not in the trie."""
        if address not in self._info:
            raise KeyError(f"account {address:#x} is not in the trie")
        nonce, balance, code_hash, storage_root = self._info[address]
        steps = self._tree.prove(self._account_key(address))
        return AccountProof(
            address=address,
            nonce=nonce,
            balance=balance,
            code_hash=code_hash,
            storage_root=storage_root,
            steps=tuple(ProofStep(bit, sib) for bit, sib in steps),
        )

    def storage_proof(self, address: int, slot: int, value: int) -> StorageProof:
        """Inclusion proof that ``address.storage[slot] == value``.

        The trie holds only value *hashes*, so the caller (who read the
        state under its lock) supplies the claimed value; it is
        cross-checked against the committed leaf before a proof is cut.
        KeyError for absent accounts/slots — exclusion is not provable
        and the RPC maps absence to a typed error instead.
        """
        account = self.account_proof(address)
        subtrie = self._storage.get(address)
        if subtrie is None:
            raise KeyError(f"account {address:#x} has no storage entries")
        key = slot_key(slot)
        committed = subtrie.get(key)
        if committed is None:
            raise KeyError(f"slot {slot:#x} is not in the storage trie")
        if storage_value_hash(value) != committed:
            raise ValueError(
                f"value {value:#x} does not match the committed slot hash"
            )
        steps = subtrie.prove(key)
        return StorageProof(
            account=account,
            slot=slot,
            value=value,
            steps=tuple(ProofStep(bit, sib) for bit, sib in steps),
        )

    # -- witness support ---------------------------------------------------
    def expanded_nodes(self, addresses) -> list[tuple]:
        """Flat node list of the account tree, expanded along the paths
        of *addresses* (present or not); everything else stubbed."""
        keys = [self._account_key(address) for address in addresses]
        return self._tree.serialize_expanded(keys)

    # -- internals ---------------------------------------------------------
    def _account_key(self, address: int) -> bytes:
        key = self._keys.get(address)
        if key is None:
            key = account_key(address)
            self._keys[address] = key
        return key

    def _set_leaf(self, address: int, account, rebuild_storage: bool) -> None:
        if rebuild_storage:
            subtrie = MerkleTree(self._counter)
            for slot, value in account.storage.items():
                if value:
                    subtrie.set(slot_key(slot), storage_value_hash(value))
            self._storage[address] = subtrie
        storage_root = self._storage[address].root()
        code_hash = account.code_hash
        self._info[address] = (
            account.nonce,
            account.balance,
            code_hash,
            storage_root,
        )
        self._tree.set(
            self._account_key(address),
            account_value_hash(
                account.nonce, account.balance, code_hash, storage_root
            ),
        )

    def _drop_leaf(self, address: int) -> None:
        self._tree.delete(self._account_key(address))
        self._storage.pop(address, None)
        self._info.pop(address, None)
