"""Serving-layer configuration: the one statement of a served process's
settings and their defaults (``repro serve`` flags only override them)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.node import _engine
from ..storage.config import StorageConfig


@dataclass
class ServeConfig:
    """Everything the server and its block builder need to know.

    The block-cutting policy is the inference-stack continuous-batching
    shape. The batching window closes as soon as the pool *could* fill a
    block: ``block_size_target`` transactions are pending, *or* the gas
    they promise (their limits) reaches ``gas_target``, *or*
    ``block_interval_ms`` has elapsed since the window opened —
    whichever comes first. The block then holds what *does* fit: up to
    ``block_size_target`` transactions whose measured gas — what the
    proposer's pre-execution saw them use — stays within
    ``gas_target``; the rest wait in the pool for the next block. Small
    targets trade throughput for latency.
    """

    host: str = "127.0.0.1"
    port: int = 8545

    # -- role --------------------------------------------------------------
    #: "writer" runs the block builder and admits transactions;
    #: "replica" serves reads/subscriptions only (sendTransaction gets a
    #: typed READ_ONLY error) and is fed by a replication stream.
    role: str = "writer"
    #: Writer-side WAL stream listener for replicas (requires
    #: ``data_dir``; 0 binds an ephemeral port, read back after start;
    #: None: no replication stream).
    replication_port: int | None = None

    # -- block cutting ----------------------------------------------------
    #: Cut a block at this many transactions.
    block_size_target: int = 128
    #: Cumulative gas a block may use, at most the header's gas limit
    #: (None: off). Pending gas *limits* reaching it close the batching
    #: window; the gas the block's transactions *used* fills it. A cut
    #: that fixes its lanes at the cut (``packing="conflict_aware"``)
    #: stays on limits.
    gas_target: int | None = 30_000_000
    #: Cut a block this long after the first pending transaction arrived.
    block_interval_ms: float = 50.0

    # -- admission control ------------------------------------------------
    #: Bound on admitted-but-uncommitted transactions (mempool + the
    #: block in flight). Beyond it, sendTransaction gets a typed BUSY
    #: error instead of unbounded buffering.
    max_pending: int = 4096
    #: Per-sender pending cap the server sets on the mempool (None:
    #: off).
    per_sender_cap: int | None = 1024
    #: Per-client token-bucket refill rate, requests/second (None: off);
    #: each bucket holds ``serve.server.RATE_BURST`` requests.
    rate_limit: float | None = None

    # -- connections ------------------------------------------------------
    #: Drop connections silent longer than this (None: never). Dead
    #: sockets must not pin per-connection tasks forever; subscribers
    #: are exempt (their traffic is server-push by design).
    idle_timeout_s: float | None = None

    # -- retention --------------------------------------------------------
    #: Keep receipts for this many recent blocks (getReceipt and the
    #: idempotent-resubmission window). Older receipts are evicted from
    #: the server *and* the node; None retains everything (archival —
    #: memory then grows with committed transactions).
    receipt_history_blocks: int | None = 1024

    # -- durability -------------------------------------------------------
    #: Chain data directory. None serves purely in memory; set, every
    #: committed block is WAL-appended (and fsynced per
    #: ``storage.fsync``) before client futures resolve, and startup
    #: recovers whatever the directory already holds.
    data_dir: str | None = None
    #: The store's fsync policy and snapshot cadence, used with
    #: ``data_dir``.
    storage: StorageConfig = field(default_factory=StorageConfig)

    # -- execution --------------------------------------------------------
    #: The engine behind ``Node.execute_block``: a name from
    #: :data:`repro.chain.node.ENGINES`, which describes each.
    executor: str = "sequential"
    #: The lanes a block is cut for, which ``mtpu`` runs as PUs: a
    #: conflict-aware cut caps one conflict chain at
    #: ``max(1, block_size_target // num_workers)`` transactions.
    num_workers: int = 4

    # -- block packing ----------------------------------------------------
    #: "fifo" cuts blocks in arrival order; "conflict_aware" cuts via
    #: :meth:`Mempool.take_packed` — FAFO-style: conflicting
    #: transactions spread across blocks and lanes, receipts and state
    #: digest bit-identical to FIFO (the pack-equivalence property).
    packing: str = "fifo"

    def __post_init__(self) -> None:
        _engine(self.executor)  # refuses an unknown name, naming the rest
        if self.packing not in ("fifo", "conflict_aware"):
            raise ValueError(f"unknown packing {self.packing!r}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be positive")
        if self.role not in ("writer", "replica"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.replication_port is not None and self.data_dir is None:
            raise ValueError("replication_port requires data_dir")
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if self.block_size_target <= 0:
            raise ValueError("block_size_target must be positive")
        if self.gas_target is not None:
            from ..evm.context import BlockContext

            if self.gas_target <= 0:
                raise ValueError("gas_target must be positive")
            # A block uses at most gas_target; its header declares
            # BlockContext.gas_limit.
            if self.gas_target > BlockContext.gas_limit:
                raise ValueError(
                    f"gas_target {self.gas_target} exceeds the block "
                    f"gas limit {BlockContext.gas_limit}"
                )
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if self.per_sender_cap is not None and self.per_sender_cap <= 0:
            raise ValueError("per_sender_cap must be positive")
        if self.block_interval_ms < 0:
            raise ValueError("block_interval_ms must be >= 0")
        if (
            self.receipt_history_blocks is not None
            and self.receipt_history_blocks <= 0
        ):
            raise ValueError("receipt_history_blocks must be positive")
