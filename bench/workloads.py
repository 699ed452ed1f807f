"""The four workloads: traffic, server flags, fixed rates, frame pools.

Everything here is a constant of the benchmark. Rates, windows and pool
sizes were sized for 2 cores at the commit that introduced the benchmark
and are never derived from a measurement at run time, so two commits are
always offered the same load. ``--seed`` is the only source of
randomness: one seed gives one byte-identical frame pool.

The program under test sees only the generated frames and its CLI flags
— no workload name, no bench-only flag or environment variable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Share of ``--seconds`` spent in each phase (8 s + 12 s of a 20 s run)
#: and the leading share of each phase that is discarded as warm-up.
OPEN_SHARE = 0.4
CLOSED_SHARE = 0.6
OPEN_WARMUP_SHARE = 1.0 / 8.0
CLOSED_WARMUP_SHARE = 1.0 / 6.0
#: Write requests kept in flight during the closed loop: one full block.
CLOSED_IN_FLIGHT = 128
#: Reads kept in flight on the read connection.
READS_IN_FLIGHT = 4
#: Genesis accounts of ``repro serve`` (its ``--accounts`` default).
NUM_ACCOUNTS = 64

#: Flags every workload's server gets: the ``repro serve`` defaults
#: (block-size 128, interval 50 ms, gas target 30M, max-pending 4096,
#: Merkleize on, 64 accounts) plus durability, so "committed" always
#: means sealed state root + WAL record fsynced before the reply.
COMMON_FLAGS = ("--fsync", "always")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The ``repro.serve.loadgen.make_transactions`` mix the writes are.
    traffic: str
    #: Extra ``repro serve`` flags on top of :data:`COMMON_FLAGS`.
    server_flags: tuple
    #: Fixed open-loop arrival rate, tx/s.
    open_rate: float
    #: Frames pre-encoded per closed-loop second: at least 4x what the
    #: commit that defined the benchmark commits per second, so a faster
    #: future server does not run the pool dry (``loadgen.pool_exhausted``
    #: says if one did).
    pool_rate: float
    #: True: connection 2 keeps READS_IN_FLIGHT reads in flight for the
    #: whole round and connection 1 alone carries the writes. False: no
    #: reads, both connections write.
    reads_beside_writes: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="transfer",
            why="plain value transfers: EVM work is near zero, so serve, "
                "chain, trie and storage do most of the work; an evm "
                "change should not move it",
            traffic="transfer",
            server_flags=(),
            open_rate=600.0,
            pool_rate=14000.0,
        ),
        Workload(
            name="contracts",
            why="TOP8 calls drawn Zipf(1.0): evm and discovery "
                "dominate (~5 ms CPU/tx), small gas-cut blocks show "
                "per-block costs; a serve change should not move it",
            traffic="erc20",
            server_flags=(),
            open_rate=60.0,
            pool_rate=900.0,
        ),
        Workload(
            name="hotburst_packed",
            why="16-tx bursts crediting 2 hot accounts, else fresh "
                "recipients: the only run through blooms, take_packed "
                "and repro.parallel (2 workers); state grows",
            traffic="hotburst",
            server_flags=("--packing", "conflict_aware",
                          "--executor", "parallel", "--workers", "2"),
            open_rate=400.0,
            pool_rate=7000.0,
        ),
        Workload(
            name="reads_beside_writes",
            why="transfer writes beside a closed loop of 4 "
                "balance/proof/receipt reads: a write gain bought with a "
                "longer lock hold or slower proofs shows as a loss",
            traffic="transfer",
            server_flags=(),
            open_rate=400.0,
            pool_rate=8000.0,
            reads_beside_writes=True,
        ),
    )
}


def phase_seconds(seconds: float) -> dict:
    """The phase windows a run of *seconds* is cut into."""
    open_s = seconds * OPEN_SHARE
    closed_s = seconds * CLOSED_SHARE
    return {
        "open_s": open_s,
        "open_warmup_s": open_s * OPEN_WARMUP_SHARE,
        "closed_s": closed_s,
        "closed_warmup_s": closed_s * CLOSED_WARMUP_SHARE,
    }


# -- frame pools ------------------------------------------------------------
_FRAME = (
    b'{"jsonrpc":"2.0","id":%d,"method":"repro_sendTransaction",'
    b'"params":{"tx":"%s"}}\n'
)


@dataclass
class FramePool:
    """Pre-encoded ``repro_sendTransaction`` frames; request id = index."""

    transactions: list
    frames: list
    accounts: list
    sha256: str


def pool_size(workload: Workload, seconds: float) -> int:
    phases = phase_seconds(seconds)
    return (
        int(workload.open_rate * phases["open_s"])
        + int(workload.pool_rate * phases["closed_s"])
        + CLOSED_IN_FLIGHT
    )


def build_pool(workload: Workload, seed: int, count: int) -> FramePool:
    """Generate *count* transactions from *seed* and encode their frames.

    The transactions are the product's own load mixes (``repro loadgen
    --workload transfer|hotburst|erc20``), not a copy of them: an edit
    to those mixes changes the load, and ``frames_sha256`` in the output
    says so.
    """
    from repro.contracts.registry import build_deployment
    from repro.serve.loadgen import make_transactions

    deployment = build_deployment(num_accounts=NUM_ACCOUNTS)
    transactions = make_transactions(
        deployment, count, workload.traffic, seed
    )
    digest = hashlib.sha256()
    frames = []
    for index, tx in enumerate(transactions):
        frame = _FRAME % (index, tx.to_rlp().hex().encode())
        digest.update(frame)
        frames.append(frame)
    return FramePool(
        transactions=transactions,
        frames=frames,
        accounts=list(deployment.accounts),
        sha256=digest.hexdigest(),
    )
