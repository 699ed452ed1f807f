"""Per-transaction access-set bloom filters for conflict-aware packing.

FAFO (PAPERS.md, arxiv 2507.10757) reorders transactions *at block
formation time* using compact per-transaction access summaries: two bit
masks (read side / write side) over hashed ``(address, slot)`` keys. Two
transactions *may* conflict when write∩write, write∩read, or read∩write
of their masks is non-empty — the same predicate as
:meth:`repro.chain.state.AccessSet.conflicts_with`. A transaction sets a
handful of the mask's bits, so each side is held as the set of its bit
positions and the test costs those few positions; the dense masks are
the spill-file form only. Bloom filters have **no false negatives**: if
the masks are disjoint the underlying key sets are disjoint, so packing
non-conflicting lanes from blooms can never miss a real conflict (it can
only be conservative about phantom ones).

Reordering user transactions is only sound when the summary is a
*superset* of what the transaction will actually touch, so a bloom is
built only from an access set that is established, never guessed. Two
sources:

* **declared** — the submitter attached explicit read/write key sets in
  ``Transaction.tags`` (``"reads"`` / ``"writes"``); trusted as given,
  and built by :meth:`AccessBloom.from_keys`.
* **plain transfer** — the recipient has no code at admission time, so
  nothing executes (calldata or not): the access set is the closed form
  of :func:`repro.chain.transfer.transfer_keys` — the one discovery
  uses.

Every other transaction gets the :meth:`AccessBloom.opaque` filter,
which conflicts with everything and therefore keeps it in FIFO order
relative to *all* neighbours — safe degradation, never divergence.

Every bloom additionally records the sender's implicit balance + nonce
writes (fee payment, nonce bump), so two transactions from one sender
always conflict and keep their nonce order under any packing.

**The plain-transfer bloom in closed form.** Its keys are fixed: the
sender's balance and nonce on both sides, the recipient's code read,
and, when value moves, the recipient's balance on both sides. So
:func:`bloom_for_transaction` writes the two position sets straight from
:func:`~repro.chain.transfer.transfer_keys` with a key function that
returns each key's digest, with no access set, no key tuples and no
``from_keys`` pass; the positions, and so the spill bytes, are the ones
``from_keys`` derives over the same keys. The digests
(:func:`_key_hash`) come from a per-slot memo keyed by the address int,
so a repeat sender or a hot recipient costs dict lookups, not blake2b.
The memo holds digests, not positions, so it serves every geometry; a
slot's table is emptied when it reaches :data:`MEMO_ENTRIES`.

**A plain-transfer bloom rests on the recipient having no code.** Code
can land there after admission (a CREATE, inner or not, at a pre-funded
address); the pooled bloom is then no longer a superset, and the packer
could let a transaction that really conflicts with it jump ahead. The
mempool therefore indexes its closed-form blooms by recipient, and each
committed block's code writes re-derive the blooms pooled for those
addresses (:meth:`repro.chain.mempool.Mempool.code_landed`).
"""

from __future__ import annotations

from hashlib import blake2b

from .state import BALANCE_KEY, CODE_KEY, NONCE_KEY
from .transfer import is_plain_transfer, transfer_keys

#: Default filter geometry. Conflict tests are *mask intersections*, so
#: the false-positive rate is ~(k·n₁)(k·n₂)/m per side pair — unlike a
#: membership bloom, fewer hashes and a sparse mask win: one hash over
#: 8192 bits holds the pairwise rate near 0.4% for a typical transfer
#: (4 reads / 3 writes) and ~1% for 10-key sets (measured in
#: ``tests/chain/test_access_bloom.py``) at 1 KiB per side in the
#: spill file.
DEFAULT_BITS = 8192
DEFAULT_HASHES = 1

_LOW64 = (1 << 64) - 1

#: Entries per slot table of the plain-transfer digest memo (balance,
#: nonce, code) before the table is emptied: ≈ 0.5 MB per full table.
MEMO_ENTRIES = 4096


def _key_hash(key: tuple) -> int:
    """Stable 128-bit hash of an ``(address, slot)`` key.

    ``repr`` keeps integer slots and the string sentinels (``"balance"``,
    ``"code"``, ``"nonce"``) in disjoint namespaces.
    """
    address, slot = key
    blob = f"{address}:{slot!r}".encode()
    return int.from_bytes(blake2b(blob, digest_size=16).digest(), "big")


def _spread(digest: int, bits: int, hashes: int) -> list[int]:
    """The bit positions of a key with this digest (double hashing)."""
    h1, h2 = digest >> 64, digest & _LOW64
    return [(h1 + i * h2) % bits for i in range(hashes)]


#: slot sentinel -> {address: _key_hash((address, slot))}. A cache of a
#: pure function, so every pool and thread in the process may share it.
_DIGESTS: dict[str, dict[int, int]] = {
    BALANCE_KEY: {}, NONCE_KEY: {}, CODE_KEY: {},
}


def _digest(address: int, slot: str) -> int:
    """``_key_hash((address, slot))`` through the per-slot memo."""
    memo = _DIGESTS[slot]
    digest = memo.get(address)
    if digest is None:
        if len(memo) >= MEMO_ENTRIES:
            memo.clear()
        digest = memo[address] = _key_hash((address, slot))
    return digest


def _mask_of(side: set | None, bits: int) -> int:
    if side is None:
        return (1 << bits) - 1
    mask = 0
    for position in side:
        mask |= 1 << position
    return mask


def _positions_of(mask: int) -> set:
    positions = set()
    while mask:
        low = mask & -mask
        positions.add(low.bit_length() - 1)
        mask ^= low
    return positions


class AccessBloom:
    """Read/write filters over hashed access keys, held sparse.

    A filter of 8192 bits with four of them set is four integers, not a
    kilobyte: ``reads`` and ``writes`` are the *sets of bit positions*
    set on each side, and every test is a set operation over a
    transaction's own handful of positions. The dense masks exist only
    on disk (:meth:`to_bytes` / :meth:`from_bytes`) and behind the
    :attr:`read_mask` / :attr:`write_mask` views. An opaque filter —
    every bit set on both sides — holds ``None`` for both.

    A filter that is not opaque covers a superset of the keys the
    transaction will actually touch (both of its sources are established
    access sets) — the precondition for reordering, and the only thing
    the packer asks of it.
    """

    __slots__ = ("bits", "hashes", "reads", "writes")

    def __init__(
        self, bits: int = DEFAULT_BITS, hashes: int = DEFAULT_HASHES
    ) -> None:
        if bits <= 0 or bits % 8:
            raise ValueError("bloom bits must be a positive multiple of 8")
        if hashes <= 0:
            raise ValueError("bloom hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        #: Set bit positions per side; both ``None`` when opaque.
        self.reads: set | None = set()
        self.writes: set | None = set()

    # -- construction ------------------------------------------------------
    def _positions(self, key: tuple) -> list[int]:
        return _spread(_key_hash(key), self.bits, self.hashes)

    @classmethod
    def from_keys(
        cls,
        reads,
        writes,
        bits: int = DEFAULT_BITS,
        hashes: int = DEFAULT_HASHES,
    ) -> "AccessBloom":
        """The filter of two key collections; a key on both sides (or
        repeated) is hashed once."""
        bloom = cls(bits=bits, hashes=hashes)
        hashed: dict[tuple, list[int]] = {}
        for side, keys in ((bloom.reads, reads), (bloom.writes, writes)):
            for key in keys:
                key = tuple(key)
                positions = hashed.get(key)
                if positions is None:
                    positions = hashed[key] = bloom._positions(key)
                side.update(positions)
        return bloom

    @classmethod
    def opaque(
        cls, bits: int = DEFAULT_BITS, hashes: int = DEFAULT_HASHES
    ) -> "AccessBloom":
        """A filter that conflicts with everything (unknown access set).

        Opaque transactions are never reordered relative to anything —
        the packer treats them exactly as FIFO does.
        """
        bloom = cls(bits=bits, hashes=hashes)
        bloom.reads = bloom.writes = None
        return bloom

    @property
    def is_opaque(self) -> bool:
        if self.reads is None:
            return True
        return len(self.reads) == len(self.writes) == self.bits

    @property
    def read_mask(self) -> int:
        """The read side as the dense integer mask (the spill form)."""
        return _mask_of(self.reads, self.bits)

    @property
    def write_mask(self) -> int:
        return _mask_of(self.writes, self.bits)

    # -- queries -----------------------------------------------------------
    def may_read(self, key: tuple) -> bool:
        return self.reads is None or self.reads.issuperset(
            self._positions(key)
        )

    def may_write(self, key: tuple) -> bool:
        return self.writes is None or self.writes.issuperset(
            self._positions(key)
        )

    def may_conflict(self, other: "AccessBloom") -> bool:
        """True unless the two access sets are *provably* disjoint.

        Mirrors :meth:`AccessSet.conflicts_with`: W∩W, W∩R, or R∩W.
        A ``False`` here is definitive (no false negatives); ``True``
        may be a bloom collision.
        """
        mine, theirs = self.writes, other.writes
        # An opaque filter meets whatever bits the other one has set.
        if mine is None:
            return theirs is None or bool(theirs or other.reads)
        if theirs is None:
            return bool(mine or self.reads)
        return not (
            mine.isdisjoint(theirs)
            and mine.isdisjoint(other.reads)
            and theirs.isdisjoint(self.reads)
        )

    def merge(self, other: "AccessBloom") -> None:
        """Fold *other* into this filter (the packer's deferred set)."""
        if other.bits != self.bits:
            raise ValueError("cannot merge blooms of different widths")
        if self.reads is None or other.reads is None:
            self.reads = self.writes = None
        else:
            self.reads |= other.reads
            self.writes |= other.writes

    # -- serialization (mempool spill file) --------------------------------
    def to_bytes(self) -> bytes:
        """Stable encoding: version, hashes, a flag byte, then the masks.

        The flag is ``0`` for an opaque filter and ``1`` otherwise —
        what version 1 has always written for declared, plain-transfer
        and opaque filters, so the layout is unchanged byte for byte.
        """
        width = self.bits // 8
        return bytes([1, self.hashes, 0 if self.is_opaque else 1]) + (
            self.read_mask.to_bytes(width, "big")
            + self.write_mask.to_bytes(width, "big")
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AccessBloom":
        """Decode :meth:`to_bytes`. The flag byte is not read: the masks
        say whether the filter is opaque, so a blob with ``0`` beside
        unsaturated masks is a filter over those positions."""
        if len(blob) < 3 or blob[0] != 1:
            raise ValueError("unknown access-bloom encoding")
        body = blob[3:]
        if len(body) % 2:
            raise ValueError("truncated access-bloom masks")
        width = len(body) // 2
        bloom = cls(bits=width * 8, hashes=blob[1])
        if body.count(0xFF) == len(body):
            bloom.reads = bloom.writes = None
        else:
            bloom.reads = _positions_of(int.from_bytes(body[:width], "big"))
            bloom.writes = _positions_of(int.from_bytes(body[width:], "big"))
        return bloom

    def __eq__(self, other) -> bool:
        # Equal filters are the ones that spill to the same bytes: bits,
        # hashes and both masks, a saturated side and an opaque one
        # alike.
        return (
            isinstance(other, AccessBloom)
            and self.to_bytes() == other.to_bytes()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "opaque" if self.is_opaque else "reorderable"
        return f"AccessBloom({kind}, bits={self.bits})"


def _declared(tx):
    """``(reads, writes)`` the submitter declared in ``tx.tags``, or
    None."""
    reads, writes = tx.tags.get("reads"), tx.tags.get("writes")
    if reads is None and writes is None:
        return None
    return reads or (), writes or ()


def _transfer_bloom(tx, bits: int, hashes: int) -> AccessBloom:
    """The closed-form bloom of a plain transfer (module docstring):
    equal to ``from_keys`` over ``transfer_keys(tx)`` plus the sender's
    implicit keys, each distinct key hashed at most once."""
    sender = tx.sender
    fee, nonce = _digest(sender, BALANCE_KEY), _digest(sender, NONCE_KEY)
    reads, writes = transfer_keys(tx, _digest)
    bloom = AccessBloom(bits, hashes)
    if hashes == 1:
        # One position per key, the first of _spread's.
        fee, nonce = (fee >> 64) % bits, (nonce >> 64) % bits
        bloom.reads = positions = {fee, nonce}
        for digest in reads:
            positions.add((digest >> 64) % bits)
        bloom.writes = positions = {fee, nonce}
        for digest in writes:
            positions.add((digest >> 64) % bits)
        return bloom
    for side, digests in ((bloom.reads, reads), (bloom.writes, writes)):
        for digest in (fee, nonce, *digests):
            side.update(_spread(digest, bits, hashes))
    return bloom


def bloom_for_transaction(
    tx,
    state=None,
    bits: int = DEFAULT_BITS,
    hashes: int = DEFAULT_HASHES,
) -> AccessBloom:
    """Build the admission-time bloom for *tx* (see module docstring).

    Callers hold whatever lock guards *state*: the code probe for the
    plain-transfer case reads shared world state.
    """
    declared = _declared(tx)
    if declared is not None:
        reads, writes = declared
        # The sender's fee and nonce keys are read and written too;
        # ``from_keys`` hashes a key on both sides once.
        implicit = ((tx.sender, BALANCE_KEY), (tx.sender, NONCE_KEY))
        return AccessBloom.from_keys(
            (*reads, *implicit), (*writes, *implicit), bits, hashes
        )
    if state is not None and is_plain_transfer(tx, state):
        # Nothing executes at a code-free target, with or without
        # calldata.
        return _transfer_bloom(tx, bits, hashes)
    return AccessBloom.opaque(bits=bits, hashes=hashes)


def is_closed_form(tx, bloom: AccessBloom) -> bool:
    """True when *bloom*, pooled for *tx*, may be a plain-transfer bloom:
    a reorderable filter of an undeclared call, which holds only while
    ``tx.to`` has no code. (A bloom readmitted from a spill file counts:
    tags never travel, so its source is not known.)"""
    return (
        bloom.reads is not None
        and tx.to is not None
        and _declared(tx) is None
    )
