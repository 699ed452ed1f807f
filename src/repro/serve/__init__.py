"""repro.serve — the node's serving layer.

An asyncio JSON-RPC front-end (:class:`RpcServer`) feeding a continuous
block builder (:class:`BlockBuilder`): client transactions stream in
over newline-delimited JSON-RPC, pass mempool admission (typed errors
for duplicates, sender floods, underfunded/underpriced traffic), and are
cut into blocks when a size target, gas target, or time budget is hit —
the continuous-batching shape. Receipts resolve per-transaction response
futures; ``repro.serve.loadgen`` drives the whole path over real sockets
and ``python -m repro.drill serve`` gates it in CI.
"""

from ..chain.receipt import CommittedReceipt
from .batcher import BlockBuilder
from .config import ServeConfig
from .errors import (
    ADMISSION_REJECTED,
    BUSY,
    DEADLINE_EXCEEDED,
    EXECUTION_FAILED,
    RATE_LIMITED,
    READ_ONLY,
    SHUTTING_DOWN,
    ExecutionFailedError,
    ReadOnlyError,
    RpcError,
)
from .loadgen import (
    LoadGenerator,
    LoadResult,
    RetryPolicy,
    RpcClient,
    RpcClientError,
)
from .ratelimit import RateLimiter, TokenBucket
from .server import RpcServer

__all__ = [
    "ADMISSION_REJECTED",
    "BUSY",
    "BlockBuilder",
    "CommittedReceipt",
    "DEADLINE_EXCEEDED",
    "EXECUTION_FAILED",
    "ExecutionFailedError",
    "LoadGenerator",
    "LoadResult",
    "RATE_LIMITED",
    "READ_ONLY",
    "RateLimiter",
    "ReadOnlyError",
    "RetryPolicy",
    "RpcClient",
    "RpcClientError",
    "RpcError",
    "RpcServer",
    "SHUTTING_DOWN",
    "ServeConfig",
    "TokenBucket",
]
