"""Serve-path smoke test: boot a server, drive it over real sockets.

``python -m repro.serve.smoke`` starts an in-process :class:`RpcServer`
on an ephemeral localhost port, runs a short closed-loop load test
through :class:`~repro.serve.loadgen.LoadGenerator`, drains the server,
and asserts the acceptance gates:

* every request answered (zero unanswered, zero dropped receipts);
* the server's receipts/state digest are bit-identical to offline
  sequential execution of the same transactions;
* p99 end-to-end latency under a (generous) bound.

The CI ``serve-smoke`` job runs exactly this. (Throughput is measured
by the repo's benchmark, ``bench/run.py`` — from a separate process,
over sustained runs — not here.)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from ..chain.node import EXECUTORS, Node
from ..contracts.registry import build_deployment
from ..obs.report import LatencyReport
from .config import ServeConfig
from .loadgen import LoadGenerator, make_transactions
from .server import RpcServer


async def _run(
    transactions: int,
    clients: int,
    config: ServeConfig,
    workload: str,
    seed: int,
    check_digest: bool = True,
    num_accounts: int = 64,
) -> dict:
    deployment = build_deployment(num_accounts=num_accounts)
    node = Node(state=deployment.state.copy(),
                per_sender_cap=config.per_sender_cap,
                emit_witness=config.emit_witness)
    arrival: list = []
    if config.packing == "conflict_aware" and check_digest:
        # Record admission order (the event loop admits serially), so
        # the reference below can replay the *FIFO* history the packed
        # server reordered — the pack-equivalence check over sockets.
        original_add = node.mempool.add

        def recording_add(tx, heard_at=None, bloom=None):
            admitted = original_add(tx, heard_at=heard_at, bloom=bloom)
            if admitted:
                arrival.append(tx)
            return admitted

        node.mempool.add = recording_add
    server = RpcServer(node=node, config=config)
    await server.start()
    try:
        loadgen = LoadGenerator(
            config.host, config.port, deployment=deployment
        )
        result = await loadgen.run_closed_loop(
            transactions, clients=clients, workload=workload, seed=seed
        )
    finally:
        await server.shutdown()

    out = {
        "transactions": transactions,
        "clients": clients,
        "executor": config.executor,
        "load": result.to_dict(),
        "stats": server.stats(),
        "dropped_receipts": result.requested - result.ok
        - sum(result.errors.values()),
    }

    if check_digest:
        # Offline reference: replay the server's own blocks through the
        # plain sequential baseline on a fresh copy of genesis; receipts
        # and final state must be bit-identical.
        from ..chain.receipt import receipts_root

        # The Merkleizing reference *checks* the sealed roots as it
        # replays.
        reference = Node(state=deployment.state.copy())
        started = time.perf_counter()
        roots_match = True
        for block in node.chain:
            ref_receipts = reference.execute_block(block)
            if (receipts_root(ref_receipts)
                    != receipts_root(node.receipts[block.hash()])):
                roots_match = False
        out["offline_seconds"] = time.perf_counter() - started
        out["offline_tx_per_second"] = (
            result.ok / out["offline_seconds"]
            if out["offline_seconds"] > 0 else 0.0
        )
        out["digest_match"] = (
            roots_match
            and node.state.state_digest()
            == reference.state.state_digest()
        )
        if arrival:
            # Pack-equivalence: a fresh node executing the admitted
            # transactions in strict arrival (FIFO) order must land on
            # the same state the packed server committed.
            fifo = Node(state=deployment.state.copy())
            for start in range(0, len(arrival), config.block_size_target):
                chunk = arrival[start:start + config.block_size_target]
                fifo.execute_block(
                    fifo.propose_block(transactions=chunk)
                )
            out["fifo_digest_match"] = (
                fifo.state.state_digest() == node.state.state_digest()
            )
    return out


def run_serve_load(
    transactions: int = 256,
    clients: int = 16,
    executor: str = "sequential",
    workload: str = "transfer",
    seed: int = 7,
    block_size_target: int = 16,
    block_interval_ms: float = 25.0,
    check_digest: bool = True,
    data_dir: str | None = None,
    fsync: str = "always",
    packing: str = "fifo",
    packing_lane_depth: int | None = None,
    packing_aging_bound: int = 8,
    emit_witness: bool = False,
) -> dict:
    """Boot + load + drain, synchronously; returns the result dict."""
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        block_size_target=block_size_target,
        block_interval_ms=block_interval_ms,
        executor=executor,
        data_dir=data_dir,
        fsync=fsync,
        packing=packing,
        packing_lane_depth=packing_lane_depth,
        packing_aging_bound=packing_aging_bound,
        emit_witness=emit_witness,
    )
    return asyncio.run(_run(
        transactions, clients, config, workload, seed,
        check_digest=check_digest,
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=256)
    parser.add_argument(
        "--clients", type=int, default=16,
        help="closed-loop concurrency; blocks cut as soon as all "
             "in-flight transactions arrive when this matches "
             "--block-size-target",
    )
    parser.add_argument("--block-size-target", type=int, default=16)
    parser.add_argument(
        "--executor", choices=EXECUTORS, default="sequential",
    )
    parser.add_argument(
        "--workload",
        choices=("transfer", "hotburst", "erc20", "mixed", "dynamic"),
        default="transfer",
    )
    parser.add_argument(
        "--packing", choices=("fifo", "conflict_aware"), default="fifo",
    )
    parser.add_argument("--packing-lane-depth", type=int, default=None)
    parser.add_argument("--packing-aging-bound", type=int, default=8)
    parser.add_argument(
        "--min-parallelism", type=float, default=None,
        help="fail when the mean packed-block parallelism is below this",
    )
    parser.add_argument(
        "--max-blocks", type=int, default=None,
        help="fail when the load took more blocks than this (blocks "
             "cut on promised instead of measured gas run small)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-tps", type=float, default=500.0,
        help="fail below this closed-loop throughput (tx/s)",
    )
    parser.add_argument(
        "--max-p99-ms", type=float, default=2000.0,
        help="fail above this p99 end-to-end latency",
    )
    args = parser.parse_args(argv)

    result = run_serve_load(
        transactions=args.transactions,
        clients=args.clients,
        executor=args.executor,
        workload=args.workload,
        seed=args.seed,
        block_size_target=args.block_size_target,
        packing=args.packing,
        packing_lane_depth=args.packing_lane_depth,
        packing_aging_bound=args.packing_aging_bound,
    )
    print(json.dumps(result, indent=2, sort_keys=True))

    load = result["load"]
    latency = LatencyReport.from_dict(load["latency"])
    failures = []
    if load["unanswered"]:
        failures.append(f"{load['unanswered']} unanswered requests")
    if result["dropped_receipts"]:
        failures.append(f"{result['dropped_receipts']} dropped receipts")
    if load["errors"]:
        failures.append(f"typed errors under closed loop: {load['errors']}")
    if not result.get("digest_match", True):
        failures.append("serve state/receipts diverged from offline")
    if not result.get("fifo_digest_match", True):
        failures.append("packed state diverged from FIFO replay")
    if args.min_parallelism is not None:
        parallelism = result["stats"]["packedParallelism"]
        if parallelism < args.min_parallelism:
            failures.append(
                f"packed parallelism {parallelism:.2f} "
                f"< floor {args.min_parallelism:.2f}"
            )
    blocks_built = result["stats"]["blocksBuilt"]
    if args.max_blocks is not None and blocks_built > args.max_blocks:
        failures.append(
            f"{blocks_built} blocks > bound {args.max_blocks}"
        )
    if load["tx_per_second"] < args.min_tps:
        failures.append(
            f"throughput {load['tx_per_second']:.0f} tx/s "
            f"< floor {args.min_tps:.0f}"
        )
    if latency.p99_ms > args.max_p99_ms:
        failures.append(
            f"p99 {latency.p99_ms:.1f} ms > bound {args.max_p99_ms:.0f}"
        )
    if failures:
        print("SMOKE FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(
        f"serve-smoke ok: {load['tx_per_second']:.0f} tx/s closed-loop, "
        f"p50/p99 {latency.p50_ms:.1f}/{latency.p99_ms:.1f} ms, "
        f"{blocks_built} blocks",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
