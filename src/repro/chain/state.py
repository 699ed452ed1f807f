"""The world state: account store with journaling and access tracking.

Two capabilities the rest of the system leans on:

* **Journaling / snapshots** — transaction atomicity: a frame that runs out
  of gas or REVERTs rolls back exactly its own writes (paper section 3.3.6:
  "If an exception occurs, the modified state is discarded without
  affecting the original state"). On a node the journal spans the whole
  block, so it is also the block's one record of what it wrote:
  :meth:`WorldState.pre_images` reads the Merkle trie's dirty set and the
  block witness's pre-block accounts back out of it.
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
#: Nonces are deliberately outside access tracking (they never create DAG
#: edges); access blooms still declare the sender's nonce as written.
NONCE_KEY = "nonce"

# Journal entries are tagged tuples describing one reversible mutation:
#   ("created", address)               — account lazily materialized
#   ("deleted", address, account)      — SELFDESTRUCT removed the account
#   ("balance", address, old_value)
#   ("nonce", address, old_value)
#   ("code", address, old_code)
#   ("storage", address, slot, old_value_or_None)
# A snapshot is an index into the journal list. The structured form (vs.
# opaque undo closures) is what lets pre_images() read each touched
# account's pre-block contents back out of it, for the trie and the
# witness; the tests read a transaction's write set out of it too.


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


class PreImage:
    """One journaled address as it stood before the journal's unfolded
    entries (:meth:`WorldState.pre_images`): ``exists`` (an account
    record), its fields, the old value of every storage slot written
    (``slots``, 0 = absent) and, when a SELFDESTRUCT replaced the storage
    wholesale, the removed account (``wiped``; ``slots`` then holds only
    the writes before it)."""

    __slots__ = ("exists", "nonce", "balance", "code", "slots", "wiped")

    def __init__(self, account: Account | None) -> None:
        self.wiped: Account | None = None
        self.slots: dict[int, int] = {}
        self.become(account)

    def become(self, account: Account | None) -> None:
        if account is None:
            self.exists, self.nonce, self.balance, self.code = (
                False, 0, 0, b"")
        else:
            self.exists, self.nonce, self.balance, self.code = (
                True, account.nonce, account.balance, account.code)

    @property
    def member(self) -> bool:
        """True when the account was a trie member (present, non-empty)."""
        return self.exists and bool(self.nonce or self.balance or self.code)

    def changed(self, account: Account | None) -> bool:
        """True when *account*, as it is now, needs its leaf re-derived:
        membership, a field or a written slot differs, or it was wiped."""
        if account is None or account.is_empty:
            return self.member
        if not self.member or self.wiped is not None or (
            account.nonce, account.balance, account.code
        ) != (self.nonce, self.balance, self.code):
            return True
        storage = account.storage
        return any(storage.get(slot, 0) != old
                   for slot, old in self.slots.items())

    def storage(self, account: Account | None) -> dict[int, int]:
        """The pre-image's whole storage, given the *account* now."""
        base = self.wiped or account
        storage = dict(base.storage) if base is not None else {}
        for slot, old in self.slots.items():
            if old:
                storage[slot] = old
            else:
                storage.pop(slot, None)
        return storage


class WorldState:
    """Mutable account store backing transaction execution."""

    def __init__(self) -> None:
        self._accounts: dict[int, Account] = {}
        self._journal: list[tuple] = []
        #: Journal indices of the ``code`` entries appended since the
        #: last clear, reverted ones included (:meth:`code_written`).
        self._code_marks: list[int] = []
        self.access: AccessSet | None = None
        # Per-account digest leaf cache (maintained by
        # repro.storage.codec.state_digest_bytes): addresses whose leaf
        # must be recomputed, and the cached 32-byte leaf hashes. Every
        # mutator marks the touched address dirty so a repeated
        # on-demand digest (repro_health) costs O(accounts touched since
        # the last one), not O(total state).
        self._digest_dirty: set[int] = set()
        self._leaf_hashes: dict[int, bytes] = {}
        # A Merkle trie mirrors this state (bind_trie), and the journal
        # entries before _folded are in it already.
        self._trie_bound = False
        self._folded = 0
        #: Addresses read since the journal was last cleared, on a
        #: witness-emitting node (None elsewhere): a block witness
        #: covers what execution read as well as what it wrote.
        self.witness_reads: set[int] | None = None

    def _mark_read(self, address: int) -> None:
        if self.witness_reads is not None:
            self.witness_reads.add(address)

    # -- account lifecycle -------------------------------------------------
    def account(self, address: int) -> Account:
        """Fetch (creating lazily) the account at *address*."""
        acct = self._accounts.get(address)
        if acct is None:
            self._digest_dirty.add(address)
            acct = Account()
            self._accounts[address] = acct
            self._journal.append(("created", address))
        return acct

    def account_exists(self, address: int) -> bool:
        """True if the account exists and is non-empty."""
        self._mark_read(address)
        acct = self._accounts.get(address)
        return acct is not None and not acct.is_empty

    def delete_account(self, address: int) -> None:
        """SELFDESTRUCT: remove the account entirely."""
        self._digest_dirty.add(address)
        acct = self._accounts.pop(address, None)
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
            self._digest_dirty.add(address)
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
        self._digest_dirty.add(address)
        acct.nonce = old + 1

    def set_nonce(self, address: int, value: int) -> None:
        """Directly set a nonce (state setup; not an EVM operation)."""
        acct = self.account(address)
        old = acct.nonce
        if old != value:
            self._journal.append(("nonce", address, old))
            self._digest_dirty.add(address)
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
        access-tracked nor a witness read, so asking leaves no trace the
        execution itself would not have left.
        """
        acct = self._accounts.get(address)
        return acct is not None and bool(acct.code)

    def set_code(self, address: int, code: bytes) -> None:
        acct = self.account(address)
        old = acct.code
        self._code_marks.append(len(self._journal))
        self._journal.append(("code", address, old))
        self._digest_dirty.add(address)
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
        self._digest_dirty.add(address)
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
        # Below the fold the bound trie holds writes this undoes: only
        # a rebuild (StateTrie.attach) mirrors the state again.
        self._folded = min(self._folded, token)
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

    def pre_images(self) -> dict[int, PreImage]:
        """Every address the unfolded journal entries touched, with its
        :class:`PreImage` — the trie's dirty set and a witness's
        pre-block accounts — by undoing the entries on paper, newest
        first: the oldest entry for a field wins, ``created`` means no
        account before it, and a ``deleted`` entry restores the whole
        account as it was removed."""
        accounts = self._accounts
        pres: dict[int, PreImage] = {}
        for entry in reversed(self._journal[self._folded:]):
            pre = pres.get(entry[1])
            if pre is None:
                pre = pres[entry[1]] = PreImage(accounts.get(entry[1]))
            kind = entry[0]
            if kind == "balance":
                pre.balance = entry[2]
            elif kind == "storage":
                pre.slots[entry[2]] = entry[3] or 0
            elif kind == "nonce":
                pre.nonce = entry[2]
            elif kind == "code":
                pre.code = entry[2]
            elif kind == "created":
                pre.become(None)
            else:  # deleted: the whole account as it was removed
                pre.become(entry[2])
                pre.wiped, pre.slots = entry[2], {}
        return pres

    def code_written(self) -> set[int]:
        """Addresses whose code a journal entry since the last clear
        wrote, in O(code writes): a mark whose entry a revert popped
        either points past the journal or at whatever entry replaced
        it, and only a live ``code`` entry counts."""
        journal = self._journal
        return {
            journal[index][1] for index in self._code_marks
            if index < len(journal) and journal[index][0] == "code"
        }

    def bind_trie(self) -> None:
        """A Merkle trie now mirrors this state as it stands (built by
        :meth:`repro.trie.StateTrie.attach`, or folded by its ``update``):
        the journal so far is in it, and every later write must be
        journaled to reach it."""
        self._trie_bound = True
        self._folded = len(self._journal)

    def clear_journal(self) -> None:
        """Drop all undo history and the read set (call between blocks,
        or transactions off a node). On a trie-bound state every entry
        must be folded first, or its write would never reach the root."""
        if self._trie_bound and self._folded != len(self._journal):
            raise RuntimeError(
                "clearing journal entries the bound trie has not folded"
            )
        self._journal.clear()
        self._code_marks.clear()
        self._folded = 0
        if self.witness_reads is not None:
            self.witness_reads.clear()

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
        """Suspend access tracking and witness reads for bookkeeping
        reads/writes.

        Used wherever the infrastructure (RPC reads, fault injection,
        hotspot profiling) touches state without that touch being part
        of a transaction's semantic access set or a block's witness.
        """
        saved = self.access, self.witness_reads
        self.access = self.witness_reads = None
        try:
            yield self
        finally:
            self.access, self.witness_reads = saved

    def load_account(self, address: int, account: Account) -> None:
        """Install an account record directly (snapshot restore).

        Bypasses the journal and access tracking — this is bulk state
        loading by the storage layer, not an EVM-visible mutation — so
        a trie-bound state refuses it: the write would never reach the
        root.
        """
        if self._trie_bound:
            raise RuntimeError("load_account on a trie-bound state")
        self._digest_dirty.add(address)
        self._accounts[address] = account

    # -- copying -------------------------------------------------------------------
    def copy(self) -> "WorldState":
        """Deep copy with a fresh (empty) journal, bound to no trie and
        recording no witness reads: speculative copies (hotspot
        profiling) must not feed the original's block records."""
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
