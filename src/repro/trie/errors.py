"""Typed errors of the authenticated-state subsystem.

Everything that decodes untrusted bytes (proofs, witnesses) raises a
subclass of :class:`ValueError`, mirroring the discipline of
:class:`repro.chain.rlp.RLPDecodingError`: hostile input produces a
typed, catchable error — never an ``IndexError``/``TypeError`` escaping
from the middle of a parser, and never a silently "verified" result.
"""

from __future__ import annotations


class ProofDecodingError(ValueError):
    """Proof bytes are malformed (structure, widths, bounds, RLP)."""


class WitnessError(ValueError):
    """A block witness is malformed, insufficient, or inconsistent.

    Raised both by the witness decoder (structural damage) and, on a
    node running a block on a witness's state, when execution needs
    state the witness did not cover (a traversal crossing an unexpanded
    subtree stub).
    """


class StateRootMismatchError(RuntimeError):
    """A block's claimed ``state_root`` disagrees with the recomputed one.

    The system's one divergence signal: raised by
    :meth:`repro.chain.node.Node.seal_state_root` when a header already
    carries a root (replication, recovery replay) that the local trie
    update does not reproduce bit-identically. By the time a caller
    catches it the node has rolled back: *actual* is only here.
    """

    def __init__(self, height: int, claimed: bytes, actual: bytes) -> None:
        super().__init__(
            f"block {height} claims state root {claimed.hex()[:16]}…, "
            f"local trie computed {actual.hex()[:16]}…"
        )
        self.height = height
        self.claimed = claimed
        self.actual = actual
