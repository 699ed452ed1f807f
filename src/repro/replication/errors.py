"""Typed replication-tier errors.

Divergence is the error that must never be silent: a replica that
re-executed a block and produced a different state root than the
writer sealed into its header is serving a different universe. It gets a
type of its own, it is counted, and the replica's reaction is mandatory
(drop the diverged state, resync from the writer's snapshot) — never
"log and keep serving".
"""

from __future__ import annotations


class ReplicationError(Exception):
    """Base class for replication-tier failures."""


class StreamProtocolError(ReplicationError):
    """A peer sent a frame that does not decode as a stream message."""


class ReplicaDivergenceError(ReplicationError):
    """A replica's re-executed state root differs from the writer's.

    Carries enough to debug the divergence offline; the replica's
    required response is a snapshot resync, never continued serving.
    """

    def __init__(self, height: int, expected: bytes, actual: bytes):
        super().__init__(
            f"replica diverged at block {height}: re-executed root "
            f"{actual.hex()[:16]}… != writer's {expected.hex()[:16]}…"
        )
        self.height = height
        self.expected = expected
        self.actual = actual
