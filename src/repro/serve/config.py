"""Serving-layer configuration: block cutting, admission, and SLO knobs."""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.node import EXECUTORS


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
    #: window; the gas the block's transactions *used* fills it. Cuts
    #: that are not pre-executed (the ``occ`` engine) or that fix their
    #: lanes at the cut (``packing="conflict_aware"``) stay on limits.
    gas_target: int | None = 30_000_000
    #: Cut a block this long after the first pending transaction arrived.
    block_interval_ms: float = 50.0

    # -- admission control ------------------------------------------------
    #: Bound on admitted-but-uncommitted transactions (mempool + the
    #: block in flight). Beyond it, sendTransaction gets a typed BUSY
    #: error instead of unbounded buffering.
    max_pending: int = 4096
    #: Per-sender pending cap forwarded to the mempool (None: off).
    per_sender_cap: int | None = 1024
    #: Per-client token-bucket refill rate, requests/second (None: off).
    rate_limit: float | None = None
    #: Token-bucket burst size.
    rate_burst: int = 64

    # -- latency SLOs -----------------------------------------------------
    #: Default sendTransaction wait deadline; requests may override.
    default_deadline_ms: float = 30_000.0
    #: How long shutdown() waits for the drain before force-closing.
    drain_timeout_s: float = 30.0
    #: Drop connections silent longer than this (None: never). Dead
    #: sockets must not pin per-connection tasks forever; subscribers
    #: are exempt (their traffic is server-push by design).
    idle_timeout_s: float | None = None

    # -- retention / egress bounds ----------------------------------------
    #: Keep receipts for this many recent blocks (getReceipt and the
    #: idempotent-resubmission window). Older receipts are evicted from
    #: the server *and* the node; None retains everything (archival —
    #: memory then grows with committed transactions).
    receipt_history_blocks: int | None = 1024
    #: Drop a newHeads subscription whose transport write buffer exceeds
    #: this many bytes — a stalled subscriber must not buffer without
    #: bound.
    max_subscriber_buffer: int = 1 << 20

    # -- durability -------------------------------------------------------
    #: Chain data directory. None serves purely in memory; set, every
    #: committed block is WAL-appended (and fsynced per ``fsync``)
    #: before client futures resolve, and startup recovers whatever the
    #: directory already holds.
    data_dir: str | None = None
    #: WAL fsync policy: "always", "interval", or "never".
    fsync: str = "always"
    #: World-state snapshot cadence (blocks) — the recovery anchors.
    snapshot_interval_blocks: int = 64
    #: fsync cadence under the "interval" policy.
    fsync_interval_blocks: int = 16

    # -- authenticated state ----------------------------------------------
    #: Emit a block witness per block (rides in the WAL; witness-mode
    #: replicas run each block on the state it proves).
    emit_witness: bool = False

    # -- execution --------------------------------------------------------
    #: The engine behind ``Node.execute_block``: a name from
    #: :data:`repro.chain.node.ENGINES`, which describes each.
    executor: str = "sequential"
    #: PUs (mtpu) and the lanes packing's default lane depth is sized
    #: for; no other engine reads it.
    num_workers: int = 4

    # -- block packing ----------------------------------------------------
    #: "fifo" cuts blocks in arrival order; "conflict_aware" cuts via
    #: :meth:`Mempool.take_packed` — FAFO-style: conflicting
    #: transactions spread across blocks and lanes, receipts and state
    #: digest bit-identical to FIFO (the pack-equivalence property).
    packing: str = "fifo"
    #: Cap on one conflict chain's transactions per block (None:
    #: ``max(1, block_size_target // num_workers)``, sized so every
    #: worker gets a lane).
    packing_lane_depth: int | None = None
    #: Deferred cuts before a conflicting transaction is force-included
    #: (the anti-starvation bound).
    packing_aging_bound: int = 8

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.packing not in ("fifo", "conflict_aware"):
            raise ValueError(f"unknown packing {self.packing!r}")
        if (
            self.packing_lane_depth is not None
            and self.packing_lane_depth <= 0
        ):
            raise ValueError("packing_lane_depth must be positive")
        if self.packing_aging_bound < 0:
            raise ValueError("packing_aging_bound must be >= 0")
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
        if self.block_interval_ms < 0:
            raise ValueError("block_interval_ms must be >= 0")
        if (
            self.receipt_history_blocks is not None
            and self.receipt_history_blocks <= 0
        ):
            raise ValueError("receipt_history_blocks must be positive")
        if self.max_subscriber_buffer <= 0:
            raise ValueError("max_subscriber_buffer must be positive")
        from ..storage.config import FSYNC_POLICIES

        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {self.fsync!r}")
        if self.snapshot_interval_blocks <= 0:
            raise ValueError("snapshot_interval_blocks must be positive")
        if self.fsync_interval_blocks <= 0:
            raise ValueError("fsync_interval_blocks must be positive")
