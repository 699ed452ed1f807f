"""Per-transaction access-set bloom filters for conflict-aware packing.

FAFO (PAPERS.md, arxiv 2507.10757) reorders transactions *at block
formation time* using compact per-transaction access summaries: two bit
masks (read side / write side) over hashed ``(address, slot)`` keys. Two
transactions *may* conflict when write∩write, write∩read, or read∩write
of their masks is non-empty — the same predicate as
:meth:`repro.chain.state.AccessSet.conflicts_with`, evaluated with two
integer ANDs. Bloom filters have **no false negatives**: if the masks
are disjoint the underlying key sets are disjoint, so packing
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


def _key_hash(key: tuple) -> int:
    """Stable 128-bit hash of an ``(address, slot)`` key.

    ``repr`` keeps integer slots and the string sentinels (``"balance"``,
    ``"code"``, ``"nonce"``) in disjoint namespaces.
    """
    address, slot = key
    blob = f"{address}:{slot!r}".encode()
    return int.from_bytes(blake2b(blob, digest_size=16).digest(), "big")


class AccessBloom:
    """Read/write bit masks over hashed access keys.

    ``exact=True`` promises the masks cover a superset of the keys the
    transaction will actually touch — the precondition for reordering.
    """

    __slots__ = ("bits", "hashes", "read_mask", "write_mask", "exact")

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
        self.read_mask = 0
        self.write_mask = 0
        self.exact = exact

    # -- construction ------------------------------------------------------
    def _mask_for(self, key: tuple) -> int:
        digest = _key_hash(key)
        h1, h2 = digest >> 64, digest & ((1 << 64) - 1)
        mask = 0
        for i in range(self.hashes):
            mask |= 1 << ((h1 + i * h2) % self.bits)
        return mask

    def add_read(self, key: tuple) -> None:
        self.read_mask |= self._mask_for(key)

    def add_write(self, key: tuple) -> None:
        self.write_mask |= self._mask_for(key)

    @classmethod
    def from_keys(
        cls,
        reads,
        writes,
        bits: int = DEFAULT_BITS,
        hashes: int = DEFAULT_HASHES,
        exact: bool = True,
    ) -> "AccessBloom":
        bloom = cls(bits=bits, hashes=hashes, exact=exact)
        for key in reads:
            bloom.add_read(tuple(key))
        for key in writes:
            bloom.add_write(tuple(key))
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
        bloom.read_mask = bloom.write_mask = (1 << bits) - 1
        return bloom

    @property
    def is_opaque(self) -> bool:
        full = (1 << self.bits) - 1
        return self.read_mask == full and self.write_mask == full

    # -- queries -----------------------------------------------------------
    def may_read(self, key: tuple) -> bool:
        mask = self._mask_for(key)
        return (self.read_mask & mask) == mask

    def may_write(self, key: tuple) -> bool:
        mask = self._mask_for(key)
        return (self.write_mask & mask) == mask

    def may_conflict(self, other: "AccessBloom") -> bool:
        """True unless the two access sets are *provably* disjoint.

        Mirrors :meth:`AccessSet.conflicts_with`: W∩W, W∩R, or R∩W.
        A ``False`` here is definitive (no false negatives); ``True``
        may be a bloom collision.
        """
        return bool(
            (self.write_mask & other.write_mask)
            | (self.write_mask & other.read_mask)
            | (self.read_mask & other.write_mask)
        )

    def merge(self, other: "AccessBloom") -> None:
        """Fold *other* into this filter (lane / deferred aggregates)."""
        if other.bits != self.bits:
            raise ValueError("cannot merge blooms of different widths")
        self.read_mask |= other.read_mask
        self.write_mask |= other.write_mask
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
        bloom.read_mask = int.from_bytes(body[:width], "big")
        bloom.write_mask = int.from_bytes(body[width:], "big")
        return bloom

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AccessBloom)
            and self.bits == other.bits
            and self.hashes == other.hashes
            and self.exact == other.exact
            and self.read_mask == other.read_mask
            and self.write_mask == other.write_mask
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


def _declared_sets(tx) -> tuple[list, list] | None:
    reads = tx.tags.get("reads")
    writes = tx.tags.get("writes")
    if reads is None and writes is None:
        return None
    return (list(reads or ()), list(writes or ()))


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
    declared = _declared_sets(tx)
    if declared is not None:
        reads, writes = declared
        bloom = AccessBloom.from_keys(reads, writes, bits, hashes)
        bloom.add_read((tx.sender, BALANCE_KEY))
        bloom.add_write((tx.sender, BALANCE_KEY))
        bloom.add_read((tx.sender, NONCE_KEY))
        bloom.add_write((tx.sender, NONCE_KEY))
        return bloom
    if state is not None and is_plain_transfer(tx, state):
        # Nothing executes at a code-free target, with or without
        # calldata: the access set is the closed form discovery itself
        # uses, plus the sender's implicit fee and nonce keys.
        access = transfer_access(tx)
        implicit = ((tx.sender, BALANCE_KEY), (tx.sender, NONCE_KEY))
        return AccessBloom.from_keys(
            reads={*access.reads, *implicit},
            writes={*access.writes, *implicit},
            bits=bits,
            hashes=hashes,
        )
    if trust_estimates and estimator is not None:
        estimate = estimator.estimate(tx)
        if estimate is not None:
            reads, writes = estimate
            bloom = AccessBloom.from_keys(
                reads, writes, bits, hashes, exact=False
            )
            bloom.add_read((tx.sender, BALANCE_KEY))
            bloom.add_write((tx.sender, BALANCE_KEY))
            bloom.add_read((tx.sender, NONCE_KEY))
            bloom.add_write((tx.sender, NONCE_KEY))
            return bloom
    return AccessBloom.opaque(bits=bits, hashes=hashes)
