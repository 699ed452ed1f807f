"""Typed JSON-RPC error codes for the serving layer.

Standard JSON-RPC 2.0 codes cover protocol failures; the ``-320xx``
range carries the node's *operational* refusals, each of which a client
is expected to handle distinctly: back off on ``BUSY``/``RATE_LIMITED``,
give up on ``DEADLINE``, re-resolve the endpoint on ``SHUTTING_DOWN``
and fix the transaction on ``ADMISSION``.
"""

from __future__ import annotations

# -- standard JSON-RPC 2.0 codes -------------------------------------------
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# -- operational codes (node refusals, all retriable-or-actionable) --------
#: Ingress queue at capacity: admission refused instead of buffering
#: unboundedly. Retry after backoff.
BUSY = -32001
#: The client exceeded its token-bucket rate allowance.
RATE_LIMITED = -32002
#: The transaction failed mempool admission (``data.reason`` names the
#: :class:`~repro.chain.mempool.AdmissionError` subclass).
ADMISSION_REJECTED = -32003
#: The request's deadline elapsed before its receipt committed. The
#: transaction may still commit; poll ``repro_getReceipt``.
DEADLINE_EXCEEDED = -32004
#: The server is draining and no longer admits transactions.
SHUTTING_DOWN = -32005
#: Block execution failed even after the sequential fallback, or the
#: store refused the block. The transaction was dropped without
#: committing (it is in neither the chain nor the state): safe to resubmit.
EXECUTION_FAILED = -32006
#: This node is a read replica; it serves reads and subscriptions but
#: never admits transactions. Send writes to the writer.
READ_ONLY = -32007
#: A Merkle proof cannot be served: the account/slot is absent from the
#: trie (only inclusion is provable; ``data.reason`` is ``absent``).
PROOF_UNAVAILABLE = -32008
#: A state read (balance, proof) on a node that does not hold the state:
#: a witness replica keeps only its last block's witnessed accounts
#: (``data.reason`` is ``stateless``). Ask a node that holds it.
STATE_UNAVAILABLE = -32009


class RpcError(Exception):
    """A request failure that maps onto a JSON-RPC error object."""

    def __init__(self, code: int, message: str, data: dict | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data

    def to_obj(self) -> dict:
        obj: dict = {"code": self.code, "message": self.message}
        if self.data is not None:
            obj["data"] = self.data
        return obj


class BusyError(RpcError):
    def __init__(self, depth: int, limit: int):
        super().__init__(
            BUSY, "ingress queue full",
            {"pending": depth, "max_pending": limit},
        )


class RateLimitedError(RpcError):
    def __init__(self, retry_after: float):
        super().__init__(
            RATE_LIMITED, "rate limit exceeded",
            {"retry_after_s": round(retry_after, 4)},
        )


class DeadlineExceededError(RpcError):
    def __init__(self, deadline_ms: float):
        super().__init__(
            DEADLINE_EXCEEDED, "deadline exceeded",
            {"deadline_ms": deadline_ms},
        )


class ShuttingDownError(RpcError):
    def __init__(self):
        super().__init__(SHUTTING_DOWN, "server is draining")


class ReadOnlyError(RpcError):
    def __init__(self):
        super().__init__(
            READ_ONLY, "node is a read replica; writes go to the writer"
        )


class ExecutionFailedError(RpcError):
    def __init__(self, detail: str):
        super().__init__(
            EXECUTION_FAILED, "block execution failed",
            {"detail": detail},
        )
