"""The world state: account store with journaling and access tracking.

Two capabilities the rest of the system leans on:

* **Journaling / snapshots** — transaction atomicity: a frame that runs out
  of gas or REVERTs rolls back exactly its own writes (paper section 3.3.6:
  "If an exception occurs, the modified state is discarded without
  affecting the original state").
* **Access tracking** — every storage/balance/code read and write is
  recorded into an :class:`AccessSet`. Read/write sets are how the
  consensus stage discovers the inter-transaction dependency DAG that the
  spatio-temporal scheduler consumes (paper section 2.2.2).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .account import Account

#: Sentinel slot used in access sets for balance/nonce/code-level accesses
#: (as opposed to a concrete storage slot).
BALANCE_KEY = "balance"
CODE_KEY = "code"
#: Journal-only sentinel: nonces are deliberately outside access tracking
#: (they never create DAG edges) but write journals must still carry them.
NONCE_KEY = "nonce"

# Journal entries are tagged tuples describing one reversible mutation:
#   ("created", address)               — account lazily materialized
#   ("deleted", address, account)      — SELFDESTRUCT removed the account
#   ("balance", address, old_value)
#   ("nonce", address, old_value)
#   ("code", address, old_code)
#   ("storage", address, slot, old_value_or_None)
# A snapshot is an index into the journal list. The structured form (vs.
# opaque undo closures) is what lets the execute-once pipeline read the
# exact mutation set of a transaction back out of the journal.


@dataclass
class AccessSet:
    """Read and write sets of one transaction execution.

    Keys are ``(address, slot)`` pairs where ``slot`` is either a storage
    slot number or one of the sentinels :data:`BALANCE_KEY` /
    :data:`CODE_KEY`.
    """

    reads: set[tuple[int, int | str]] = field(default_factory=set)
    writes: set[tuple[int, int | str]] = field(default_factory=set)

    def conflicts_with(self, other: "AccessSet") -> bool:
        """True when the two transactions cannot be reordered freely.

        Conflict = write/write, read/write or write/read overlap — the
        standard serializability condition used to build the paper's DAG.
        """
        if self.writes & other.writes:
            return True
        if self.writes & other.reads:
            return True
        if self.reads & other.writes:
            return True
        return False

    def merge(self, other: "AccessSet") -> None:
        """Fold another access set (e.g. a child call frame) into this one."""
        self.reads |= other.reads
        self.writes |= other.writes


class _TriePre:
    """First-touch pre-image of one account within the current block.

    Captured lazily by ``WorldState._mark_dirty`` the first time a block
    touches an address, before the mutation lands. The captured fields
    are what the address looked like at block start; ``slots`` maps each
    first-touched storage slot to its old value (0 = absent), and
    ``storage_full`` snapshots the whole storage dict when an operation
    replaces it wholesale (SELFDESTRUCT, snapshot transplant) — after
    that, per-slot olds stop being recorded because block-start storage
    is already fully determined.

    The dict of these (``WorldState._trie_pre``) doubles as the Merkle
    trie's dirty set: :meth:`repro.trie.StateTrie.update` drains it.
    """

    __slots__ = ("exists", "nonce", "balance", "code", "slots",
                 "storage_full")

    def __init__(self, account: Account | None) -> None:
        if account is None:
            self.exists = False
            self.nonce = 0
            self.balance = 0
            self.code = b""
        else:
            self.exists = True
            self.nonce = account.nonce
            self.balance = account.balance
            self.code = account.code
        self.slots: dict[int, int] = {}
        self.storage_full: dict[int, int] | None = None


class WorldState:
    """Mutable account store backing transaction execution."""

    def __init__(self) -> None:
        self._accounts: dict[int, Account] = {}
        self._journal: list[tuple] = []
        self.access: AccessSet | None = None
        # Per-account digest leaf cache (maintained by
        # repro.storage.codec.state_digest_bytes): addresses whose leaf
        # must be recomputed, and the cached 32-byte leaf hashes. Every
        # mutator marks the touched address dirty so a repeated
        # on-demand digest (repro_health) costs O(accounts touched since
        # the last one), not O(total state).
        self._digest_dirty: set[int] = set()
        self._leaf_hashes: dict[int, bytes] = {}
        # First-touch pre-image capture for the authenticated state trie
        # (see _TriePre). Off by default; StateTrie.attach enables
        # mutation capture, witness-emitting nodes also enable read
        # capture so block witnesses cover every address execution saw.
        self._track_trie = False
        self._track_reads = False
        self._trie_pre: dict[int, _TriePre] = {}

    def _mark_dirty(self, address: int) -> _TriePre | None:
        """Dirty *address* for the digest and (when tracking) capture its
        first-touch pre-image. Call *before* mutating the account."""
        self._digest_dirty.add(address)
        if not self._track_trie:
            return None
        pre = self._trie_pre.get(address)
        if pre is None:
            pre = _TriePre(self._accounts.get(address))
            self._trie_pre[address] = pre
        return pre

    def _mark_read(self, address: int) -> None:
        if self._track_reads and address not in self._trie_pre:
            self._trie_pre[address] = _TriePre(self._accounts.get(address))

    # -- account lifecycle -------------------------------------------------
    def account(self, address: int) -> Account:
        """Fetch (creating lazily) the account at *address*."""
        acct = self._accounts.get(address)
        if acct is None:
            self._mark_dirty(address)
            acct = Account()
            self._accounts[address] = acct
            self._journal.append(("created", address))
        return acct

    def account_exists(self, address: int) -> bool:
        """True if the account exists and is non-empty."""
        self._mark_read(address)
        acct = self._accounts.get(address)
        return acct is not None and not acct.is_empty

    def has_account(self, address: int) -> bool:
        """True if the account record is materialized (even when empty)."""
        return address in self._accounts

    def delete_account(self, address: int) -> None:
        """SELFDESTRUCT: remove the account entirely."""
        pre = self._mark_dirty(address)
        acct = self._accounts.pop(address, None)
        if pre is not None and pre.storage_full is None:
            # Wholesale storage replacement: the per-slot diff log stops
            # here; block-start storage = this snapshot + earlier olds.
            pre.storage_full = dict(acct.storage) if acct else {}
        if acct is not None:
            self._journal.append(("deleted", address, acct))
        # The cached digest leaf must die with the account, or a
        # tombstoned address could resurface in a later digest.
        self._leaf_hashes.pop(address, None)
        self._record_write(address, CODE_KEY)
        self._record_write(address, BALANCE_KEY)

    def addresses(self) -> list[int]:
        """All known account addresses (sorted, deterministic)."""
        return sorted(self._accounts)

    # -- balances ------------------------------------------------------------
    def get_balance(self, address: int) -> int:
        self._record_read(address, BALANCE_KEY)
        self._mark_read(address)
        acct = self._accounts.get(address)
        return acct.balance if acct else 0

    def set_balance(self, address: int, value: int) -> None:
        acct = self.account(address)
        old = acct.balance
        if old != value:
            self._journal.append(("balance", address, old))
            self._mark_dirty(address)
            acct.balance = value
        self._record_write(address, BALANCE_KEY)

    def transfer(self, sender: int, recipient: int, value: int) -> None:
        """Move *value* tokens; raises ValueError on insufficient balance."""
        if value == 0:
            return
        if self.get_balance(sender) < value:
            raise ValueError(f"insufficient balance at {sender:#x}")
        self.set_balance(sender, self.get_balance(sender) - value)
        self.set_balance(recipient, self.get_balance(recipient) + value)

    # -- nonces ----------------------------------------------------------------
    def get_nonce(self, address: int) -> int:
        self._mark_read(address)
        acct = self._accounts.get(address)
        return acct.nonce if acct else 0

    def increment_nonce(self, address: int) -> None:
        acct = self.account(address)
        old = acct.nonce
        self._journal.append(("nonce", address, old))
        self._mark_dirty(address)
        acct.nonce = old + 1

    def set_nonce(self, address: int, value: int) -> None:
        """Directly set a nonce (state setup; not an EVM operation)."""
        acct = self.account(address)
        old = acct.nonce
        if old != value:
            self._journal.append(("nonce", address, old))
            self._mark_dirty(address)
            acct.nonce = value

    # -- code -------------------------------------------------------------------
    def get_code(self, address: int) -> bytes:
        self._record_read(address, CODE_KEY)
        self._mark_read(address)
        acct = self._accounts.get(address)
        return acct.code if acct else b""

    def has_code(self, address: int) -> bool:
        """True when code is deployed at *address*.

        A bookkeeping probe for choosing an execution path: it is neither
        access-tracked nor captured as a witness read, so asking leaves
        no trace the execution itself would not have left.
        """
        acct = self._accounts.get(address)
        return acct is not None and bool(acct.code)

    def set_code(self, address: int, code: bytes) -> None:
        acct = self.account(address)
        old = acct.code
        self._journal.append(("code", address, old))
        self._mark_dirty(address)
        acct.code = code
        self._record_write(address, CODE_KEY)

    # -- storage ------------------------------------------------------------------
    def get_storage(self, address: int, slot: int) -> int:
        self._record_read(address, slot)
        self._mark_read(address)
        acct = self._accounts.get(address)
        if acct is None:
            return 0
        return acct.storage.get(slot, 0)

    def set_storage(self, address: int, slot: int, value: int) -> None:
        acct = self.account(address)
        old = acct.storage.get(slot)
        self._journal.append(("storage", address, slot, old))
        pre = self._mark_dirty(address)
        if pre is not None and pre.storage_full is None:
            pre.slots.setdefault(slot, old or 0)
        if value == 0:
            acct.storage.pop(slot, None)
        else:
            acct.storage[slot] = value
        self._record_write(address, slot)

    # -- journaling -------------------------------------------------------------
    def snapshot(self) -> int:
        """Mark a rollback point; returns an opaque token for revert()."""
        return len(self._journal)

    def revert(self, token: int) -> None:
        """Undo all writes made since snapshot *token*."""
        accounts = self._accounts
        while len(self._journal) > token:
            entry = self._journal.pop()
            kind = entry[0]
            self._digest_dirty.add(entry[1])
            if kind == "storage":
                _, address, slot, old = entry
                acct = accounts[address]
                if old is None:
                    acct.storage.pop(slot, None)
                else:
                    acct.storage[slot] = old
            elif kind == "balance":
                accounts[entry[1]].balance = entry[2]
            elif kind == "nonce":
                accounts[entry[1]].nonce = entry[2]
            elif kind == "code":
                accounts[entry[1]].code = entry[2]
            elif kind == "created":
                accounts.pop(entry[1], None)
            elif kind == "deleted":
                accounts[entry[1]] = entry[2]
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown journal entry {kind!r}")

    def changes_since(self, token: int) -> list[tuple]:
        """The journal entries recorded since snapshot *token*, in order.

        Each entry carries the *old* value (see the journal format
        above): what a transaction wrote, and what each write replaced.
        """
        return self._journal[token:]

    def commit(self, token: int) -> None:
        """Discard undo entries newer than *token* (writes become final
        relative to that snapshot; outer snapshots can still revert them)."""
        # Journal entries must be kept so outer frames can still revert;
        # commit is a no-op by design. It exists to make call-frame intent
        # explicit at the interpreter layer.
        del token

    def clear_journal(self) -> None:
        """Drop all undo history (call between transactions)."""
        self._journal.clear()

    # -- access tracking -----------------------------------------------------------
    def begin_access_tracking(self) -> AccessSet:
        """Start recording reads/writes into a fresh access set."""
        self.access = AccessSet()
        return self.access

    def end_access_tracking(self) -> AccessSet:
        """Stop recording and return the collected access set."""
        access, self.access = self.access, None
        if access is None:
            raise RuntimeError("access tracking was not active")
        return access

    def _record_read(self, address: int, slot: int | str) -> None:
        if self.access is not None:
            self.access.reads.add((address, slot))

    def _record_write(self, address: int, slot: int | str) -> None:
        if self.access is not None:
            self.access.writes.add((address, slot))

    @contextmanager
    def untracked(self):
        """Suspend access tracking for bookkeeping reads/writes.

        Used wherever the infrastructure (RPC reads, fault injection)
        touches state without that touch being part of a transaction's
        semantic access set.
        """
        saved, self.access = self.access, None
        try:
            yield self
        finally:
            self.access = saved

    def load_account(self, address: int, account: Account) -> None:
        """Install an account record directly (snapshot restore).

        Bypasses the journal and access tracking — this is bulk state
        loading by the storage layer, not an EVM-visible mutation.
        """
        pre = self._mark_dirty(address)
        if pre is not None and pre.storage_full is None:
            old = self._accounts.get(address)
            pre.storage_full = dict(old.storage) if old else {}
        self._accounts[address] = account

    # -- copying -------------------------------------------------------------------
    def copy(self) -> "WorldState":
        """Deep copy with a fresh (empty) journal.

        Trie pre-image tracking does not carry over: a clone has no
        attached trie, and speculative copies (DAG discovery) must not
        feed captures back into the original's dirty set.
        """
        clone = WorldState()
        clone._accounts = {
            addr: acct.copy() for addr, acct in self._accounts.items()
        }
        clone._digest_dirty = set(self._digest_dirty)
        clone._leaf_hashes = dict(self._leaf_hashes)
        return clone

    def state_digest(self) -> tuple:
        """A hashable, order-independent summary of the full state.

        Used by tests to assert that two execution schedules produced the
        same final state (serializability).
        """
        return tuple(
            (
                addr,
                acct.nonce,
                acct.balance,
                acct.code,
                tuple(sorted(acct.storage.items())),
            )
            for addr, acct in sorted(self._accounts.items())
            if not acct.is_empty
        )
