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
*superset* of what the transaction will actually touch. Three sources,
in decreasing precision:

* **declared** — the submitter attached explicit read/write key sets in
  ``Transaction.tags`` (``"reads"`` / ``"writes"``); trusted as exact.
* **plain transfer** — the recipient has no code at admission time, so
  nothing executes (calldata or not): the access set is the closed form
  of :func:`repro.chain.transfer.transfer_access` — the one discovery
  uses; derived and exact.
* **estimated** — last-seen access keys for the same ``(to, selector)``
  from committed execution artifacts (the hotspot-profile shape). A
  heuristic: marked ``exact=False`` and only used for reordering when
  the operator opts in (``trust_estimates``); otherwise such
  transactions get the :meth:`AccessBloom.opaque` filter, which
  conflicts with everything and therefore keeps them in FIFO order
  relative to *all* neighbours — safe degradation, never divergence.

Every bloom additionally records the sender's implicit balance + nonce
writes (fee payment, nonce bump), so two transactions from one sender
always conflict and keep their nonce order under any packing.
"""

from __future__ import annotations

from hashlib import blake2b

from ..obs import get_registry
from .state import BALANCE_KEY, NONCE_KEY
from .transfer import is_plain_transfer, transfer_access

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


def _key_hash(key: tuple) -> int:
    """Stable 128-bit hash of an ``(address, slot)`` key.

    ``repr`` keeps integer slots and the string sentinels (``"balance"``,
    ``"code"``, ``"nonce"``) in disjoint namespaces.
    """
    address, slot = key
    blob = f"{address}:{slot!r}".encode()
    return int.from_bytes(blake2b(blob, digest_size=16).digest(), "big")


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

    ``exact=True`` promises the filter covers a superset of the keys the
    transaction will actually touch — the precondition for reordering.
    """

    __slots__ = ("bits", "hashes", "reads", "writes", "exact")

    def __init__(
        self,
        bits: int = DEFAULT_BITS,
        hashes: int = DEFAULT_HASHES,
        exact: bool = True,
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
        self.exact = exact

    # -- construction ------------------------------------------------------
    def _positions(self, key: tuple) -> list[int]:
        digest = _key_hash(key)
        h1, h2 = digest >> 64, digest & _LOW64
        bits = self.bits
        return [(h1 + i * h2) % bits for i in range(self.hashes)]

    @classmethod
    def from_keys(
        cls,
        reads,
        writes,
        bits: int = DEFAULT_BITS,
        hashes: int = DEFAULT_HASHES,
        exact: bool = True,
    ) -> "AccessBloom":
        """The filter of two key collections; a key on both sides (or
        repeated) is hashed once."""
        bloom = cls(bits=bits, hashes=hashes, exact=exact)
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
        bloom = cls(bits=bits, hashes=hashes, exact=False)
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
        self.exact = self.exact and other.exact

    # -- serialization (mempool spill file) --------------------------------
    def to_bytes(self) -> bytes:
        """Stable encoding: version, hashes, exact flag, then the masks."""
        width = self.bits // 8
        return bytes([1, self.hashes, 1 if self.exact else 0]) + (
            self.read_mask.to_bytes(width, "big")
            + self.write_mask.to_bytes(width, "big")
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AccessBloom":
        if len(blob) < 3 or blob[0] != 1:
            raise ValueError("unknown access-bloom encoding")
        body = blob[3:]
        if len(body) % 2:
            raise ValueError("truncated access-bloom masks")
        width = len(body) // 2
        bloom = cls(bits=width * 8, hashes=blob[1], exact=bool(blob[2]))
        if body.count(0xFF) == len(body):
            bloom.reads = bloom.writes = None
        else:
            bloom.reads = _positions_of(int.from_bytes(body[:width], "big"))
            bloom.writes = _positions_of(int.from_bytes(body[width:], "big"))
        return bloom

    def __eq__(self, other) -> bool:
        # Equal filters are the ones that spill to the same bytes: bits,
        # hashes, exactness and both masks, a saturated side and an
        # opaque one alike.
        return (
            isinstance(other, AccessBloom)
            and self.to_bytes() == other.to_bytes()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "opaque" if self.is_opaque else (
            "exact" if self.exact else "estimate"
        )
        return f"AccessBloom({kind}, bits={self.bits})"


class AccessEstimator:
    """Last-seen access keys per ``(to, selector)`` call shape.

    Fed from committed execution artifacts (the same signal the hotspot
    profile aggregates); :meth:`estimate` unions every key the shape was
    ever seen touching, which tracks stable access patterns (token
    transfers between varying parties still differ in *values*, so the
    union keeps growing toward a superset for hot shapes) but stays a
    heuristic — callers must treat the result as ``exact=False``.
    """

    def __init__(self, max_shapes: int = 4096, decay: int = 4) -> None:
        self.max_shapes = max_shapes
        #: Consecutive mispredictions (missed keys or OCC aborts) per
        #: shape before the stale union is *replaced* by the latest
        #: actual access set instead of widened further.
        self.decay = decay
        self._shapes: dict[tuple, tuple[set, set]] = {}
        #: shape -> current misprediction streak.
        self._stale: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._shapes)

    @staticmethod
    def _shape(tx) -> tuple | None:
        if tx.is_create or not tx.data:
            return None
        return (tx.to, bytes(tx.selector))

    def observe(self, artifact) -> None:
        """Record one committed artifact's access set."""
        shape = self._shape(artifact.tx)
        if shape is None:
            return
        entry = self._shapes.get(shape)
        if entry is None:
            if len(self._shapes) >= self.max_shapes:
                evicted = next(iter(self._shapes))
                self._shapes.pop(evicted)
                self._stale.pop(evicted, None)
            entry = (set(), set())
            self._shapes[shape] = entry
        entry[0].update(artifact.reads)
        entry[1].update(artifact.writes)

    def observe_actual(self, artifact, aborts: int = 0) -> None:
        """Record an *OCC outcome*: actual access set plus conflict cost.

        Where :meth:`observe` only ever widens a shape's union (safe for
        reorder-soundness, but unions drift stale as contracts change
        behaviour), this closes the loop from the speculative engine: a
        shape whose estimate keeps mispredicting — the actual execution
        touched keys the estimate missed, or the transaction kept
        aborting under OCC — is *replaced* by the latest actual access
        set after :attr:`decay` consecutive mispredictions. Each
        misprediction increments the ``packing.estimate_corrections``
        counter so the drift is visible in ``repro obs-report``.
        """
        shape = self._shape(artifact.tx)
        if shape is None:
            return
        entry = self._shapes.get(shape)
        if entry is None:
            self.observe(artifact)
            return
        reads, writes = set(artifact.reads), set(artifact.writes)
        missed = not (reads <= entry[0] and writes <= entry[1])
        if missed or aborts:
            self._stale[shape] = self._stale.get(shape, 0) + 1
            registry = get_registry()
            if registry.enabled:
                registry.counter("packing.estimate_corrections").inc()
            if self._stale[shape] >= self.decay:
                # The accumulated union is stale: start over from what
                # the engine actually observed.
                self._shapes[shape] = (reads, writes)
                self._stale[shape] = 0
                return
        else:
            self._stale.pop(shape, None)
        entry[0].update(reads)
        entry[1].update(writes)

    def estimate(self, tx) -> tuple[set, set] | None:
        """(reads, writes) last seen for this call shape, or None."""
        shape = self._shape(tx)
        if shape is None:
            return None
        entry = self._shapes.get(shape)
        if entry is None:
            return None
        return entry


def _access_sets(tx, state, estimator, trust_estimates):
    """``(reads, writes, exact)`` from the most precise source that
    knows *tx* (see module docstring), or None when none does."""
    reads, writes = tx.tags.get("reads"), tx.tags.get("writes")
    if reads is not None or writes is not None:
        return reads or (), writes or (), True
    if state is not None and is_plain_transfer(tx, state):
        # Nothing executes at a code-free target, with or without
        # calldata: the access set is the closed form discovery itself
        # uses.
        access = transfer_access(tx)
        return access.reads, access.writes, True
    if trust_estimates and estimator is not None:
        estimate = estimator.estimate(tx)
        if estimate is not None:
            return (*estimate, False)
    return None


def bloom_for_transaction(
    tx,
    state=None,
    estimator: AccessEstimator | None = None,
    trust_estimates: bool = False,
    bits: int = DEFAULT_BITS,
    hashes: int = DEFAULT_HASHES,
) -> AccessBloom:
    """Build the admission-time bloom for *tx* (see module docstring).

    Callers hold whatever lock guards *state*: the code probe for the
    plain-transfer case reads shared world state.
    """
    source = _access_sets(tx, state, estimator, trust_estimates)
    if source is None:
        return AccessBloom.opaque(bits=bits, hashes=hashes)
    reads, writes, exact = source
    # Whatever the source, the sender's fee and nonce keys are read and
    # written; ``from_keys`` hashes a key on both sides once.
    implicit = ((tx.sender, BALANCE_KEY), (tx.sender, NONCE_KEY))
    return AccessBloom.from_keys(
        (*reads, *implicit), (*writes, *implicit), bits, hashes, exact
    )
