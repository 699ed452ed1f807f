"""Mempool: the dissemination-stage transaction pool (paper Fig. 4).

The pool records *when* each transaction was first heard. The hotspot
optimizer's pre-execution relies on the paper's observation (via
Forerunner [12]) that 91.45%–98.15% of a block's transactions are already
known to a node before the block arrives; :meth:`Mempool.known_before`
exposes exactly that predicate.

Admission is hardened against hostile dissemination: transactions whose
gas limit cannot cover their intrinsic gas, or value-bearing transactions
from unfunded senders, are refused with a typed :class:`AdmissionError`
instead of silently pooling; a configurable capacity evicts oldest-first
so an attacker cannot grow the pool without bound. Re-announcing an
already-pooled hash raises :class:`DuplicateTransactionError`, and an
optional per-sender pending cap (:class:`SenderLimitError`) stops one
sender from flooding everyone else out through the capacity eviction.

Storage is insertion-ordered (Python dicts preserve insertion order and
``heard_at`` stamps are monotone in live operation), so ``take`` /
``take_packed`` / ``pending`` / eviction all walk arrival order without
re-sorting the pool; an explicit out-of-order ``heard_at`` (tests,
gossip replays) just marks the order dirty for one lazy re-sort.

Each pooled transaction has an access-set bloom filter
(:mod:`repro.chain.bloom`), which :meth:`take_packed` uses for
FAFO-style conflict-aware block packing: greedily fill the cut with
transactions grouped into mutually non-conflicting parallel *lanes*,
deferring only what would push a conflict chain past its cap — bounded
by an aging rule so nothing starves.
The bloom is derived on first use (:meth:`Mempool.bloom_of`, a packed
cut, or a spill), not at admission: a FIFO pool never reads one, so it
never pays for one. A plain-transfer bloom holds only while its
recipient has no code, so the pool indexes those by recipient and
re-derives them when a committed block writes code there
(:meth:`Mempool.code_landed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..evm.gas import DEFAULT_SCHEDULE
from ..obs import get_registry
from .bloom import AccessBloom, bloom_for_transaction, is_closed_form
from .transaction import Transaction


class AdmissionError(ValueError):
    """A disseminated transaction failed the pool's intrinsic checks."""


class IntrinsicGasError(AdmissionError):
    """gas_limit is below the transaction's intrinsic gas."""


class InsufficientFundsError(AdmissionError):
    """A value-bearing transaction from a sender with no balance."""


class DuplicateTransactionError(AdmissionError):
    """The transaction's hash is already pooled."""


class SenderLimitError(AdmissionError):
    """The sender already has the maximum pending transactions."""


class _PoolEntry:
    __slots__ = ("tx", "heard_at", "bloom", "deferrals")

    def __init__(
        self, tx: Transaction, heard_at: int, bloom: AccessBloom | None
    ):
        self.tx = tx
        self.heard_at = heard_at
        #: None until first use (see :meth:`Mempool._bloom`).
        self.bloom = bloom
        #: Consecutive packed cuts that skipped this transaction.
        self.deferrals = 0


@dataclass(frozen=True)
class PackingPolicy:
    """Knobs for :meth:`Mempool.take_packed`.

    *lane_depth* caps how many transactions one conflict chain (lane)
    contributes per block — it balances lanes for parallel dispatch;
    ``None`` leaves chains unbounded, and then nothing is ever deferred.
    A transaction that would extend a chain at its cap waits for a later
    block; with *aging_bound* deferrals behind it, it is force-included
    rather than skipped again.
    """

    lane_depth: int | None = None
    aging_bound: int = 8

    def __post_init__(self) -> None:
        if self.lane_depth is not None and self.lane_depth <= 0:
            raise ValueError("lane_depth must be positive")
        if self.aging_bound < 0:
            raise ValueError("aging_bound must be >= 0")


@dataclass
class PackedTake:
    """One conflict-aware cut: transactions, lanes, deferral stats.

    ``transactions`` preserves arrival order (the cut is a FIFO
    *subsequence*); ``lanes`` partitions its indices into serial
    conflict chains with no bloom conflicts *between* lanes, so the
    discovered DAG never crosses lanes and a parallel schedule (the
    MTPU's) can run them concurrently.
    """

    transactions: list[Transaction] = field(default_factory=list)
    lanes: list[list[int]] = field(default_factory=list)
    #: Transactions scanned but pushed to a later block this cut.
    deferred: int = 0
    #: Aged transactions force-included past a chain's cap.
    forced: int = 0
    #: Lanes folded into another because a transaction bridged them
    #: while the joined chain stayed under the cap.
    merged: int = 0

    @property
    def parallelism(self) -> float:
        """Width of the cut: transactions over the longest lane."""
        if not self.transactions:
            return 0.0
        longest = max(len(lane) for lane in self.lanes)
        return len(self.transactions) / longest


class Mempool:
    """Pending transactions, ordered by arrival."""

    def __init__(
        self,
        capacity: int | None = None,
        state=None,
        per_sender_cap: int | None = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("mempool capacity must be positive")
        if per_sender_cap is not None and per_sender_cap <= 0:
            raise ValueError("per-sender cap must be positive")
        self._pool: dict[bytes, _PoolEntry] = {}
        self._arrival_counter = 0
        #: Set when an explicit out-of-order ``heard_at`` broke the
        #: dict's insertion order; the next ordered walk re-sorts once.
        self._order_dirty = False
        #: Maximum pooled transactions; oldest are evicted beyond it.
        self.capacity = capacity
        #: Maximum pending transactions per sender; the sender's further
        #: submissions are refused (not others' evicted).
        self.per_sender_cap = per_sender_cap
        #: Pending-transaction count per sender address.
        self._by_sender: dict[int, int] = {}
        #: Sum of the pooled transactions' gas limits, kept in step by
        #: :meth:`add` / :meth:`_forget` / :meth:`put_back` so the block
        #: builder's gas-target check does not walk the pool.
        self.pending_gas = 0
        #: The entries of the cut :meth:`take` made last, in cut order —
        #: what :meth:`put_back` returns a tail of.
        self._last_cut: list[_PoolEntry] = []
        #: Optional world state used for balance-aware admission and the
        #: plain-transfer bloom derivation.
        self.state = state
        #: Recipient address -> hashes of the pooled transactions whose
        #: bloom rests on it having no code (``is_closed_form``).
        self._code_free: dict[int, set[bytes]] = {}

    def __len__(self) -> int:
        return len(self._pool)

    def _check_admission(self, tx: Transaction) -> None:
        intrinsic = DEFAULT_SCHEDULE.intrinsic_gas(tx.data, tx.is_create)
        if tx.gas_limit < intrinsic:
            raise IntrinsicGasError(
                f"gas limit {tx.gas_limit} below intrinsic gas {intrinsic}"
            )
        if tx.value > 0 and self.state is not None:
            # Bypass access tracking: admission peeks must not pollute
            # any in-progress dependency analysis.
            saved_access = self.state.access
            self.state.access = None
            try:
                balance = self.state.get_balance(tx.sender)
            finally:
                self.state.access = saved_access
            if balance == 0:
                raise InsufficientFundsError(
                    f"sender {tx.sender:#x} has no balance for a "
                    f"value-bearing transaction"
                )

    def add(
        self,
        tx: Transaction,
        heard_at: int | None = None,
        bloom: AccessBloom | None = None,
    ) -> bool:
        """Record a disseminated transaction (unique by hash).

        Returns True when newly pooled. Raises :class:`AdmissionError`
        when the transaction fails intrinsic checks, is a duplicate of a
        pooled hash, or would push its sender past the per-sender cap
        (in every case it is not pooled). *bloom* carries a previously
        derived access bloom across a spill/readmit cycle; by default
        the entry has none until something reads it.
        """
        registry = get_registry()
        tx_hash = tx.hash()
        try:
            if tx_hash in self._pool:
                registry.counter("mempool.duplicates").inc()
                raise DuplicateTransactionError(
                    f"transaction {tx_hash.hex()[:16]}… already pooled"
                )
            if (
                self.per_sender_cap is not None
                and self._by_sender.get(tx.sender, 0) >= self.per_sender_cap
            ):
                raise SenderLimitError(
                    f"sender {tx.sender:#x} already has "
                    f"{self.per_sender_cap} pending transactions"
                )
            self._check_admission(tx)
        except AdmissionError as err:
            registry.counter(
                "mempool.rejections", reason=type(err).__name__
            ).inc()
            raise
        if heard_at is None:
            heard_at = self._arrival_counter
        elif self._pool and heard_at < next(
            reversed(self._pool.values())
        ).heard_at:
            self._order_dirty = True
        self._arrival_counter = max(self._arrival_counter, heard_at) + 1
        self._pool[tx_hash] = entry = _PoolEntry(tx, heard_at, bloom)
        if bloom is not None:
            self._watch(entry, tx_hash)
        self._by_sender[tx.sender] = self._by_sender.get(tx.sender, 0) + 1
        self.pending_gas += tx.gas_limit
        registry.counter("mempool.added").inc()
        if self.capacity is not None and len(self._pool) > self.capacity:
            self._evict_oldest(len(self._pool) - self.capacity)
        registry.gauge("mempool.size").set(len(self._pool))
        return True

    def _bloom(self, entry: _PoolEntry) -> AccessBloom:
        """The entry's access bloom, derived on first use.

        The plain-transfer derivation probes :attr:`state`, so the first
        use must happen under whatever lock guards it.
        """
        bloom = entry.bloom
        if bloom is None:
            bloom = entry.bloom = bloom_for_transaction(
                entry.tx, state=self.state
            )
            self._watch(entry, entry.tx.hash())
        return bloom

    def _watch(self, entry: _PoolEntry, tx_hash: bytes) -> None:
        """Index *entry* under its recipient when its bloom holds only
        while the recipient has no code."""
        if is_closed_form(entry.tx, entry.bloom):
            watchers = self._code_free.get(entry.tx.to)
            if watchers is None:
                self._code_free[entry.tx.to] = {tx_hash}
            else:
                watchers.add(tx_hash)

    def code_landed(self, addresses) -> None:
        """Code was written at *addresses* (a committed block's code
        writes): re-derive, against :attr:`state`, every pooled bloom
        that rested on one of them having no code. Costs the entries
        indexed under *addresses*, not the pool. Called under whatever
        lock guards the state, like any derivation."""
        for address in addresses:
            for tx_hash in self._code_free.pop(address, ()):
                entry = self._pool[tx_hash]
                entry.bloom = None
                self._bloom(entry)

    def rebase(self, state) -> None:
        """Derive from *state*, which replaced :attr:`state` wholesale:
        code may now sit at any indexed recipient."""
        self.state = state
        self.code_landed(
            [address for address in self._code_free
             if state.has_code(address)]
        )

    def bloom_of(self, tx: Transaction) -> AccessBloom:
        """The access bloom of a pooled transaction (``KeyError`` when
        it is not pooled). A caller that will :meth:`take_packed`
        without the state lock calls this once per admission with it."""
        return self._bloom(self._pool[tx.hash()])

    def _ordered(self) -> dict[bytes, _PoolEntry]:
        """The pool in arrival order; re-sorts only after an
        out-of-order ``heard_at`` dirtied the insertion order."""
        if self._order_dirty:
            self._pool = dict(
                sorted(
                    self._pool.items(), key=lambda item: item[1].heard_at
                )
            )
            self._order_dirty = False
        return self._pool

    def _forget(self, tx_hash: bytes) -> None:
        entry = self._pool.pop(tx_hash)
        watchers = self._code_free.get(entry.tx.to)
        if watchers is not None:
            watchers.discard(tx_hash)
            if not watchers:
                del self._code_free[entry.tx.to]
        self.pending_gas -= entry.tx.gas_limit
        remaining = self._by_sender.get(entry.tx.sender, 0) - 1
        if remaining > 0:
            self._by_sender[entry.tx.sender] = remaining
        else:
            self._by_sender.pop(entry.tx.sender, None)

    def _evict_oldest(self, count: int) -> None:
        victims = []
        for tx_hash in self._ordered():
            if len(victims) >= count:
                break
            victims.append(tx_hash)
        for tx_hash in victims:
            self._forget(tx_hash)
        get_registry().counter("mempool.evicted").inc(count)

    def contains(self, tx: Transaction) -> bool:
        return tx.hash() in self._pool

    @property
    def clock(self) -> int:
        """The current dissemination timestamp (monotone arrival counter).

        ``known_before(tx, pool.clock)`` asks: had this node already heard
        the transaction by *now*?
        """
        return self._arrival_counter

    def known_before(self, tx: Transaction, time: int) -> bool:
        """Was *tx* disseminated to this node before *time*?"""
        entry = self._pool.get(tx.hash())
        return entry is not None and entry.heard_at < time

    def take(self, count: int) -> list[Transaction]:
        """Remove and return up to *count* transactions, oldest first."""
        cut: list[_PoolEntry] = []
        for entry in self._ordered().values():
            if len(cut) >= count:
                break
            cut.append(entry)
        for entry in cut:
            self._forget(entry.tx.hash())
        self._last_cut = cut
        return [entry.tx for entry in cut]

    def put_back(self, transactions: list[Transaction]) -> None:
        """Return the tail of the cut :meth:`take` just made to the
        front of the pool.

        The proposer cuts candidates by count and fills the block by
        the gas its pre-execution measured
        (:func:`~repro.chain.dag.discover_access_sets`); what did not
        fit comes back here. This is *not* admission: the transactions
        were admitted once and never left the node, so nothing is
        re-checked, nothing counts as ``mempool.added`` and capacity is
        left to the next :meth:`add`. Each entry returns as it was —
        its ``heard_at``, bloom and deferral count — ahead of everything
        admitted since the cut, so the pool is again in arrival order
        and a sender's later nonce is never cut before an earlier one.
        Anything but a tail of the last cut raises ``ValueError``.
        """
        if not transactions:
            return
        hashes = [tx.hash() for tx in transactions]
        tail = self._last_cut[-len(hashes):]
        if [entry.tx.hash() for entry in tail] != hashes:
            raise ValueError(
                "put_back takes a tail of the cut take() made last"
            )
        del self._last_cut[-len(tail):]
        by_sender = self._by_sender
        for tx_hash, entry in zip(hashes, tail):
            sender = entry.tx.sender
            by_sender[sender] = by_sender.get(sender, 0) + 1
            self.pending_gas += entry.tx.gas_limit
            if entry.bloom is not None:
                self._watch(entry, tx_hash)
        returned = dict(zip(hashes, tail))
        returned.update(self._pool)
        self._pool = returned
        registry = get_registry()
        registry.counter("mempool.returned").inc(len(tail))
        registry.gauge("mempool.size").set(len(self._pool))

    def take_packed(
        self,
        count: int,
        gas_target: int | None = None,
        policy: PackingPolicy | None = None,
    ) -> PackedTake:
        """Cut up to *count* transactions, conflict-aware (FAFO-style).

        Scans arrival order and greedily groups transactions into
        parallel *lanes* (serial conflict chains) via their access
        blooms:

        * no conflict with any lane → opens a new lane;
        * conflicts with one or more lanes that together hold fewer than
          ``lane_depth`` transactions → joins them, merging several into
          one chain (the transaction orders after all of them, so they
          are one chain now);
        * the chain it would extend is at its cap → deferred to a later
          block — unless it has already been deferred ``aging_bound``
          times, in which case it is included anyway (no starvation).

        Lanes are found through an inverted index over bloom bit
        positions — each write position has the one lane that owns it,
        each read-only position the lanes that read it — so placing a
        transaction costs its own handful of positions, however many
        lanes are open. Merged lanes are tracked by union-find over lane
        ids; the index is never rewritten.

        **Skipped-set rule** (the pack-equivalence invariant): once a
        transaction is deferred, every later transaction whose bloom
        conflicts with the deferred set is deferred too. The cut is
        therefore a FIFO subsequence in which every pair of potentially
        conflicting transactions keeps its arrival order — across the
        whole chain the packed history is a conflict-preserving
        permutation of FIFO, so receipts and state digest are
        bit-identical to FIFO replay (property-tested). Merging does not
        touch the argument: which lane a selected transaction sits in
        never decides *whether* a conflicting pair is reordered, only
        the deferrals do.

        The oldest pooled transaction is always selected (scanned first,
        nothing deferred yet), so every transaction's backlog rank
        strictly shrinks each cut: inclusion within (rank + 1) cuts is
        structural, the aging bound just tightens it.

        Gas is promised gas (the limits): the scan stops before the
        transaction that would exceed *gas_target* (first always fits).
        The scan looks at most 8× *count* transactions deep for fill.
        """
        policy = policy or PackingPolicy()
        lane_depth = policy.lane_depth
        horizon = count * 8

        #: Lane id -> selected indices; None once merged into another.
        lanes: list[list[int] | None] = []
        #: Union-find over lane ids: a merged lane points at its heir.
        heir: list[int] = []
        #: Bit position -> the lane that writes it. Two writers of one
        #: position conflict, so they share a lane: one owner suffices.
        writer: dict[int, int] = {}
        #: Bit position nobody writes -> the lanes that read it.
        readers: dict[int, list[int]] = {}
        #: The lane holding the opaque transactions (they all conflict).
        opaque_lane: int | None = None

        def root(lane: int) -> int:
            while heir[lane] != lane:
                heir[lane] = lane = heir[heir[lane]]
            return lane

        def conflicting(bloom: AccessBloom) -> set[int]:
            """The open lanes *bloom* conflicts with."""
            if bloom.reads is None:
                # Opaque: ordered after everything selected so far.
                return {root(lane) for lane in range(len(lanes))}
            hits = set()
            for position in bloom.writes:
                if position in writer:
                    hits.add(root(writer[position]))
                for lane in readers.get(position, ()):
                    hits.add(root(lane))
            for position in bloom.reads:
                if position in writer:
                    hits.add(root(writer[position]))
            if opaque_lane is not None and (bloom.reads or bloom.writes):
                hits.add(root(opaque_lane))
            return hits

        selected: list[Transaction] = []
        #: Union of the deferred blooms (the skipped set).
        skipped: AccessBloom | None = None
        deferred = forced = merged = scanned = 0
        gas = 0
        for entry in self._ordered().values():
            if len(selected) >= count or scanned >= horizon:
                break
            scanned += 1
            bloom = self._bloom(entry)
            if (
                gas_target is not None
                and selected
                and gas + entry.tx.gas_limit > gas_target
            ):
                break
            # Skipped-set rule: never jump the queue past a deferred
            # conflicter — that would reorder a conflicting pair.
            waits = skipped is not None and bloom.may_conflict(skipped)
            if not waits:
                hits = conflicting(bloom)
                capped = lane_depth is not None and lane_depth <= sum(
                    len(lanes[lane]) for lane in hits
                )
                # A chain at its cap makes the transaction wait — until
                # it has aged out: it does not conflict with the deferred
                # set (checked above), so including it keeps FIFO order
                # among conflicters intact.
                waits = capped and entry.deferrals < policy.aging_bound
            if waits:
                entry.deferrals += 1
                if skipped is None:
                    skipped = AccessBloom(bloom.bits, bloom.hashes)
                skipped.merge(bloom)
                deferred += 1
                continue
            if capped:
                forced += 1
            elif len(hits) > 1:
                merged += len(hits) - 1
            if hits:
                # The oldest lane inherits the others, so lanes stay in
                # the order their first transactions arrived.
                lane, *others = sorted(hits)
                for other in others:
                    lanes[lane].extend(lanes[other])
                    lanes[other] = None
                    heir[other] = lane
                if others:
                    lanes[lane].sort()
            else:
                lane = len(lanes)
                lanes.append([])
                heir.append(lane)
            lanes[lane].append(len(selected))
            if bloom.reads is None:
                opaque_lane = lane
            else:
                for position in bloom.writes:
                    writer[position] = lane
                    # Its readers conflicted with this write, so they
                    # are in this lane now: the owner answers for them.
                    readers.pop(position, None)
                for position in bloom.reads:
                    if position not in writer:
                        readers.setdefault(position, []).append(lane)
            selected.append(entry.tx)
            gas += entry.tx.gas_limit

        for tx in selected:
            self._forget(tx.hash())
        registry = get_registry()
        if registry.enabled:
            registry.counter("mempool.packed_deferred").inc(deferred)
            if forced:
                registry.counter("mempool.packed_forced").inc(forced)
            if merged:
                registry.counter("mempool.packed_merged").inc(merged)
            registry.gauge("mempool.size").set(len(self._pool))
        return PackedTake(
            transactions=selected,
            lanes=[lane for lane in lanes if lane is not None],
            deferred=deferred,
            forced=forced,
            merged=merged,
        )

    def remove(self, transactions: list[Transaction]) -> None:
        """Drop transactions that were included in a block."""
        for tx in transactions:
            if tx.hash() in self._pool:
                self._forget(tx.hash())
        get_registry().gauge("mempool.size").set(len(self._pool))

    def pending(self) -> list[Transaction]:
        """All pooled transactions, oldest first (non-destructive)."""
        return [entry.tx for entry in self._ordered().values()]

    def spill_entries(self) -> list[tuple[Transaction, bytes]]:
        """(transaction, serialized bloom) pairs for the spill file.

        Blooms ride along so declared-access filters (whose tags are
        not on the wire) survive a drain/restart cycle; arrival order is
        preserved.
        """
        return [
            (entry.tx, self._bloom(entry).to_bytes())
            for entry in self._ordered().values()
        ]
