"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro run fig12 table7
    python -m repro run all --out results/
    python -m repro obs-report --transactions 32 --pus 4
    python -m repro serve --port 8545
    python -m repro loadgen --port 8545 --requests 1000
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time

from . import experiments
from .chain.node import EXECUTORS
from .serve.config import ServeConfig
from .storage.config import StorageConfig

#: CLI name -> experiment callable.
EXPERIMENTS = {
    "table1": experiments.table1_ethereum_stats,
    "fig2": experiments.fig2_consensus,
    "table2": experiments.table2_bytecode_share,
    "table5": experiments.table5_area,
    "table6": experiments.table6_instruction_mix,
    "fig12": experiments.fig12_ilp_ablation,
    "fig13": experiments.fig13_cache_hit_ratio,
    "table7": experiments.table7_ipc,
    "fig14": experiments.fig14_scheduling_speedup,
    "fig15": experiments.fig15_utilization,
    "fig16": experiments.fig16_redundancy_hotspot,
    "table8": experiments.table8_bpu_erc20,
    "table9": experiments.table9_bpu_parallel,
    "headline": experiments.headline_speedup,
    # Design-choice ablations beyond the paper's own figures.
    "ablation-window": experiments.ablation_window_size,
    "ablation-statebuffer": experiments.ablation_state_buffer,
    "ablation-unitcap": experiments.ablation_unit_capacity,
    "ablation-selection": experiments.ablation_selection_overhead,
    "ablation-pus": experiments.ablation_pu_scaling,
}

#: How long ``loadgen --mode open`` offers its ``--rate``.
OPEN_LOOP_SECONDS = 5.0


def _defaulted(text: str, config, name: str) -> str:
    """*text* and the default the *config* dataclass states for *name*."""
    return f"{text} (default: {getattr(config, name)})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the MTPU paper's tables and figures on "
                    "the Python reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run experiments and print tables")
    run.add_argument(
        "names", nargs="+",
        help="experiment ids (e.g. fig12 table7), or 'all'",
    )
    run.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write each rendered table to this directory",
    )
    run.add_argument(
        "--json", action="store_true",
        help="with --out, additionally write machine-readable JSON",
    )

    obs = sub.add_parser(
        "obs-report",
        help="run one instrumented block and print its BlockPerfReport",
    )
    obs.add_argument(
        "--transactions", type=int, default=32,
        help="transactions in the generated block (default: 32)",
    )
    obs.add_argument(
        "--pus", type=int, default=4,
        help="PUs in the MTPU (default: 4)",
    )
    obs.add_argument(
        "--ratio", type=float, default=0.5,
        help="target dependency ratio of the block (default: 0.5)",
    )
    obs.add_argument(
        "--seed", type=int, default=7,
        help="workload generator seed (default: 7)",
    )
    obs.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the JSON report here instead of stdout",
    )
    obs.add_argument(
        "--wall-clock", action="store_true",
        help=(
            "also time the block on every wall-clock lane — one EVM "
            "pass (the sequential engine: the baseline) and parallel "
            "(discover + DAG), as a node runs them — "
            "receipts and state digest held to the baseline's, each "
            "lane's tx/s and ratio to sequential printed"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the JSON-RPC node front-end (newline-delimited "
             "JSON-RPC 2.0 over TCP)",
        # A flag not given stays unset: ServeConfig states the default.
        argument_default=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--host", help=_defaulted("listen address", ServeConfig, "host"),
    )
    serve.add_argument(
        "--port", type=int,
        help=_defaulted("JSON-RPC port, 0 for an ephemeral one",
                        ServeConfig, "port"),
    )
    serve.add_argument(
        "--accounts", type=int, default=64,
        help="genesis accounts (loadgen must use the same value)",
    )
    serve.add_argument(
        "--executor", choices=EXECUTORS,
        help=_defaulted("block execution backend", ServeConfig, "executor"),
    )
    serve.add_argument(
        "--workers", dest="num_workers", type=int, metavar="N",
        help=_defaulted(
            "the lanes a block is cut for, which mtpu runs as PUs; "
            "conflict-aware packing caps one conflict chain at block "
            "size / workers per block", ServeConfig, "num_workers",
        ),
    )
    serve.add_argument(
        "--block-size", dest="block_size_target", type=int, metavar="N",
        help=_defaulted(
            "cut a block at this many transactions",
            ServeConfig, "block_size_target",
        ),
    )
    serve.add_argument(
        "--gas-target", type=int, metavar="GAS",
        help=_defaulted(
            "cumulative gas a block may use, at most the 30M block gas "
            "limit; pending gas limits reaching it cut a block early",
            ServeConfig, "gas_target",
        ),
    )
    serve.add_argument(
        "--interval-ms", dest="block_interval_ms", type=float,
        metavar="MS",
        help=_defaulted(
            "cut a block this long after the first pending tx",
            ServeConfig, "block_interval_ms",
        ),
    )
    serve.add_argument(
        "--max-pending", type=int, metavar="N",
        help=_defaulted(
            "admitted-but-uncommitted bound; beyond it clients get typed "
            "BUSY errors", ServeConfig, "max_pending",
        ),
    )
    serve.add_argument(
        "--rate-limit", type=float, metavar="TX_PER_S",
        help="per-client token-bucket rate (default: off)",
    )
    serve.add_argument(
        "--data-dir",
        help="durable chain directory (WAL + snapshots); restarting "
             "with the same directory recovers and resumes the chain "
             "(default: in-memory only)",
    )
    serve.add_argument(
        "--fsync", choices=("always", "interval", "never"),
        help=_defaulted(
            "WAL fsync policy with --data-dir", StorageConfig, "fsync",
        ),
    )
    serve.add_argument(
        "--snapshot-interval", dest="snapshot_interval_blocks", type=int,
        metavar="BLOCKS",
        help=_defaulted(
            "world-state snapshot cadence in blocks",
            StorageConfig, "snapshot_interval_blocks",
        ),
    )
    serve.add_argument(
        "--replication-port", type=int, metavar="PORT",
        help="with --data-dir: stream the WAL to verifying replicas on "
             "this port (0 = ephemeral; the bound port is announced on "
             "stderr)",
    )
    serve.add_argument(
        "--idle-timeout", dest="idle_timeout_s", type=float,
        metavar="SECONDS",
        help="drop connections silent this long (subscribers exempt; "
             "default: never)",
    )
    serve.add_argument(
        "--packing", choices=("fifo", "conflict_aware"),
        help=_defaulted(
            "block cut policy: fifo (arrival order) or conflict_aware "
            "(spread conflicting transactions across blocks and parallel "
            "lanes; state stays bit-identical to fifo)",
            ServeConfig, "packing",
        ),
    )
    serve.add_argument(
        "--emit-witness", action="store_true", default=False,
        help="emit a block witness per block (rides in the WAL; "
             "witness-mode replicas run each block on its witness)",
    )

    replicate = sub.add_parser(
        "replicate",
        help="run a verifying read replica fed by a writer's WAL "
             "stream (serves reads/subscriptions; writes get a typed "
             "READ_ONLY error)",
    )
    replicate.add_argument("--host", default="127.0.0.1")
    replicate.add_argument("--port", type=int, default=8546)
    replicate.add_argument(
        "--accounts", type=int, default=64,
        help="genesis accounts (must match the writer's --accounts)",
    )
    replicate.add_argument(
        "--writer-host", default="127.0.0.1",
        help="the writer's stream host",
    )
    replicate.add_argument(
        "--writer-stream-port", type=int, required=True,
        help="the writer's --replication-port (as announced on stderr)",
    )
    replicate.add_argument("--seed", type=int, default=0)
    replicate.add_argument(
        "--mode", choices=("execute", "witness"), default="execute",
        help="execute: re-run every block against full local state; "
             "witness: re-run each block on the state its witness "
             "proves, refusing state reads (writer must run "
             "--emit-witness)",
    )
    replicate.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="drop connections silent this long (subscribers exempt)",
    )
    replicate.add_argument(
        "--corrupt-at-height", type=int, default=None, metavar="H",
        help="chaos drill: silently corrupt one balance before applying "
             "block H — the state-root check must detect it and heal "
             "via snapshot resync",
    )

    proxy = sub.add_parser(
        "proxy",
        help="front a writer and N replicas with one read endpoint "
             "(round-robin healthy replicas, eject on failure, fail "
             "over to the writer)",
    )
    proxy.add_argument("--host", default="127.0.0.1")
    proxy.add_argument("--port", type=int, default=8550)
    proxy.add_argument(
        "--writer", required=True, metavar="HOST:PORT",
        help="the writer's RPC endpoint",
    )
    proxy.add_argument(
        "--replica", action="append", default=[], metavar="HOST:PORT",
        help="a replica RPC endpoint (repeatable)",
    )
    proxy.add_argument(
        "--health-interval", type=float, default=0.25,
        help="backend health-probe cadence in seconds (default: 0.25)",
    )
    proxy.add_argument(
        "--max-lag-blocks", type=int, default=1024,
        help="eject replicas lagging the writer by more than this: the "
             "staleness a proxied read may have (default: 1024)",
    )

    recover = sub.add_parser(
        "recover",
        help="rebuild node state from a data directory and report "
             "(replays the WAL, repairs torn tails)",
    )
    recover.add_argument("data_dir", help="chain data directory")
    recover.add_argument(
        "--json", action="store_true",
        help="print the recovery report as JSON",
    )

    verify = sub.add_parser(
        "verify-store",
        help="read-only integrity audit of a data directory "
             "(non-zero exit on unrecoverable damage)",
    )
    verify.add_argument("data_dir", help="chain data directory")
    verify.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON",
    )

    proof = sub.add_parser(
        "proof",
        help="fetch a Merkle proof from a running server and verify it "
             "locally against the served state root (the light-client "
             "quickstart)",
    )
    proof.add_argument("--host", default="127.0.0.1")
    proof.add_argument("--port", type=int, default=8545)
    proof.add_argument(
        "--address", required=True,
        help="account address (hex)",
    )
    proof.add_argument(
        "--slot", default=None,
        help="storage slot (hex); omitted: prove the account itself",
    )
    proof.add_argument(
        "--json", action="store_true",
        help="print the server response as JSON",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running `repro serve` with generated traffic",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8545)
    loadgen.add_argument(
        "--accounts", type=int, default=64,
        help="genesis accounts (must match the server's --accounts)",
    )
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
    )
    loadgen.add_argument(
        "--requests", type=int, default=1000,
        help="closed loop: total transactions to send (default: 1000)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=16,
        help="concurrent connections (default: 16)",
    )
    loadgen.add_argument(
        "--rate", type=float, default=500.0,
        help=f"open loop: offered load in tx/s for {OPEN_LOOP_SECONDS:g} s "
             "(default: 500)",
    )
    loadgen.add_argument(
        "--workload",
        choices=("transfer", "hotburst", "erc20", "mixed", "dynamic"),
        default="transfer",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--json", action="store_true",
        help="print the full LoadResult as JSON",
    )
    return parser


def _run_obs_report(args) -> int:
    from .experiments import measure_block

    report = measure_block(
        num_transactions=args.transactions,
        num_pus=args.pus,
        ratio=args.ratio,
        seed=args.seed,
    )
    rendered = report.to_json(indent=2)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)
    print(
        f"[{report.label}: speedup {report.headline_speedup:.2f}x, "
        f"cache hit rate {report.cache_hit_rate:.1%}, "
        f"utilization {report.utilization:.1%}, "
        f"p50/p99 tx cycles {report.p50_tx_cycles}/{report.p99_tx_cycles}]",
        file=sys.stderr,
    )
    if args.wall_clock:
        from .experiments.perf import lane_lines, measure_engines
        from .workload.generator import generate_dependency_block

        wall = measure_engines(
            generate_dependency_block(
                num_transactions=args.transactions,
                target_ratio=args.ratio, seed=args.seed,
            ),
        )
        for line in lane_lines(wall):
            print(f"[wall-clock {line}]", file=sys.stderr)
    return 0


def serve_config(args) -> ServeConfig:
    """The :class:`ServeConfig` of a parsed ``serve`` command line: the
    flags that were given, every other setting the dataclass default."""
    given = vars(args)

    def settings(config) -> dict:
        return {
            f.name: given[f.name]
            for f in dataclasses.fields(config)
            if f.name in given
        }

    storage = StorageConfig(**settings(StorageConfig))
    return ServeConfig(**settings(ServeConfig), storage=storage)


def _run_serve(args) -> int:
    import asyncio

    from .chain.node import Node
    from .collector import CollectorPolicy
    from .contracts.registry import build_deployment
    from .serve import RpcServer

    config = serve_config(args)
    deployment = build_deployment(num_accounts=args.accounts)
    node = Node(state=deployment.state, emit_witness=args.emit_witness)
    server = RpcServer(node=node, config=config)
    if server.recovery is not None:
        recovery = server.recovery
        for warning in recovery.warnings:
            print(f"recovery: {warning}", file=sys.stderr)
        print(
            f"recovered height {recovery.height} from "
            f"{config.data_dir} (snapshot {recovery.snapshot_height} + "
            f"{recovery.replayed_blocks} replayed blocks, "
            f"digest {recovery.state_digest.hex()[:16]}…)",
            file=sys.stderr,
        )

    async def _serve() -> None:
        await server.start()
        print(
            f"repro serve: listening on "
            f"{config.host}:{config.port} "
            f"({args.accounts} genesis accounts, "
            f"{config.executor} executor)",
            file=sys.stderr,
        )
        if server.streamer is not None:
            print(
                f"repro serve: streaming on "
                f"{config.host}:{config.replication_port}",
                file=sys.stderr,
            )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining…", file=sys.stderr)
            await server.shutdown()
            stats = server.stats()
            print(
                f"served {stats['txsCommitted']} transactions in "
                f"{stats['blocksBuilt']} blocks",
                file=sys.stderr,
            )

    try:
        with CollectorPolicy(server.metrics):
            asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _run_replicate(args) -> int:
    import asyncio

    from .chain.node import Node
    from .collector import CollectorPolicy
    from .contracts.registry import build_deployment
    from .replication import Replica, ReplicationConfig
    from .serve import RpcServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        role="replica",
        idle_timeout_s=args.idle_timeout,
    )
    deployment = build_deployment(num_accounts=args.accounts)
    node = Node(state=deployment.state)
    server = RpcServer(node=node, config=config)
    injector = None
    if args.corrupt_at_height is not None:
        from .faults import FaultInjector, FaultPlan, NetworkFault

        injector = FaultInjector(FaultPlan(
            seed=args.seed,
            network=NetworkFault(
                corrupt_at_height=args.corrupt_at_height
            ),
        ))
    replica = Replica(
        node=node,
        builder=server.builder,
        writer_host=args.writer_host,
        writer_stream_port=args.writer_stream_port,
        config=ReplicationConfig(seed=args.seed),
        fault_injector=injector,
        mode=args.mode,
    )
    server.replication = replica

    async def _serve() -> None:
        await server.start()
        replica.start()
        print(
            f"repro replica: listening on "
            f"{config.host}:{config.port} "
            f"(writer stream {args.writer_host}:"
            f"{args.writer_stream_port})",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("stopping replica…", file=sys.stderr)
            await replica.stop()
            await server.shutdown()
            stats = replica.stats()
            print(
                f"applied {stats['blocksApplied']} blocks at height "
                f"{stats['height']} (reconnects {stats['reconnects']}, "
                f"resyncs {stats['resyncs']}, divergences "
                f"{stats['divergences']})",
                file=sys.stderr,
            )

    try:
        with CollectorPolicy(server.metrics):
            asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_endpoint(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad endpoint {value!r} (want HOST:PORT)")
    return host, int(port)


def _run_proxy(args) -> int:
    import asyncio

    from .replication import ReadProxy, ReplicationConfig

    proxy = ReadProxy(
        writer_addr=_parse_endpoint(args.writer),
        replica_addrs=[_parse_endpoint(r) for r in args.replica],
        config=ReplicationConfig(
            health_interval_s=args.health_interval,
            max_lag_blocks=args.max_lag_blocks,
        ),
        host=args.host,
        port=args.port,
    )

    async def _serve() -> None:
        await proxy.start()
        print(
            f"repro proxy: listening on {proxy.host}:{proxy.port} "
            f"(writer {args.writer}, "
            f"{len(args.replica)} replica(s))",
            file=sys.stderr,
        )
        try:
            await proxy._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await proxy.stop()
            stats = proxy.stats()
            print(
                f"proxied {stats['readsProxied']} reads "
                f"(failovers {stats['failovers']}, "
                f"ejects {stats['ejects']})",
                file=sys.stderr,
            )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _run_loadgen(args) -> int:
    import asyncio

    from .obs.report import LatencyReport
    from .serve import LoadGenerator

    loadgen = LoadGenerator(
        args.host, args.port, num_accounts=args.accounts
    )
    if args.mode == "closed":
        result = asyncio.run(loadgen.run_closed_loop(
            args.requests, clients=args.clients,
            workload=args.workload, seed=args.seed,
        ))
    else:
        result = asyncio.run(loadgen.run_open_loop(
            args.rate, OPEN_LOOP_SECONDS, clients=args.clients,
            workload=args.workload, seed=args.seed,
        ))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    latency = result.latency or LatencyReport()
    print(
        f"[{result.mode}-loop: {result.ok}/{result.requested} ok "
        f"({result.tx_per_second:.0f} tx/s), errors {result.errors}, "
        f"unanswered {result.unanswered}, latency p50/p99 "
        f"{latency.p50_ms:.1f}/{latency.p99_ms:.1f} ms]",
        file=sys.stderr,
    )
    return 1 if result.unanswered else 0


def _run_proof(args) -> int:
    """Fetch + locally verify a Merkle proof — the light-client path.

    Only :mod:`repro.trie.verify` touches the proof bytes, exactly as a
    vendored light client would: the server is trusted for nothing but
    the blob and the root it claims.
    """
    import asyncio

    from .serve.loadgen import RpcClient, RpcClientError
    from .trie.errors import ProofDecodingError
    from .trie.verify import verify_proof_blob

    async def _fetch() -> int:
        client = await RpcClient.connect(args.host, args.port)
        try:
            params = {"address": args.address}
            method = "repro_getProof"
            if args.slot is not None:
                params["slot"] = args.slot
                method = "repro_getStorageProof"
            try:
                result = await client.call(method, params)
            except RpcClientError as exc:
                print(f"proof refused: {exc}", file=sys.stderr)
                return 1
            head = await client.call(
                "repro_getBlock", {"height": "latest"}
            )
        finally:
            await client.close()
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
        state_root = bytes.fromhex(result["stateRoot"])
        blob = bytes.fromhex(result["proof"])
        try:
            proof, ok = verify_proof_blob(blob, state_root)
        except ProofDecodingError as exc:
            print(f"malformed proof: {exc}", file=sys.stderr)
            return 1
        if not ok:
            print("proof does NOT verify against the served root",
                  file=sys.stderr)
            return 1
        if head is not None and head.get("stateRoot"):
            anchored = head["stateRoot"] == result["stateRoot"]
            anchor_note = (
                "anchored to the latest sealed header"
                if anchored
                else f"NOTE: head at height {head['height']} seals a "
                     f"different root (chain advanced mid-request)"
            )
        else:
            anchor_note = "no sealed header to anchor against"
        if args.slot is not None:
            print(
                f"verified: slot {result['slot']} of "
                f"{result['address']} = {result['value']} under root "
                f"{result['stateRoot'][:16]}… ({len(blob)} proof "
                f"bytes; {anchor_note})"
            )
        else:
            print(
                f"verified: account {result['address']} balance "
                f"{result['balance']} nonce {result['nonce']} under "
                f"root {result['stateRoot'][:16]}… ({len(blob)} proof "
                f"bytes; {anchor_note})"
            )
        return 0

    return asyncio.run(_fetch())


def _run_recover(args) -> int:
    from .storage import StorageError, recover

    try:
        # The retention window a served node with this directory keeps.
        result = recover(
            args.data_dir,
            receipt_history_blocks=ServeConfig.receipt_history_blocks,
        )
    except StorageError as exc:
        print(f"recover failed: {exc}", file=sys.stderr)
        return 1
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "height": result.height,
            "snapshotHeight": result.snapshot_height,
            "replayedBlocks": result.replayed_blocks,
            "truncatedRecords": result.truncated_records,
            "truncatedBytes": result.truncated_bytes,
            "corruption": result.corruption,
            "skippedSnapshots": result.skipped_snapshots,
            "spilledPending": result.spilled_pending,
            "stateDigest": result.state_digest.hex(),
            "hotspots": [hex(a) for a in result.hotspots],
        }, indent=2, sort_keys=True))
    else:
        print(
            f"recovered height {result.height} "
            f"(snapshot {result.snapshot_height} + "
            f"{result.replayed_blocks} replayed blocks)\n"
            f"state digest {result.state_digest.hex()}\n"
            f"spilled pending transactions: {result.spilled_pending}"
        )
    return 0


def _run_verify_store(args) -> int:
    from .storage import verify_store

    report = verify_store(args.data_dir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"wal: {report.wal_records} records, "
            f"{report.wal_bytes} bytes, chain height "
            f"{report.chain_height}"
        )
        print(
            "snapshots: "
            + (", ".join(str(h) for h, _ in report.snapshots) or "none")
        )
        for note in report.notes:
            print(f"note: {note}", file=sys.stderr)
    if not report.ok:
        print("verify-store: FAILED (unrecoverable damage or "
              "unsupported format)", file=sys.stderr)
        return 1
    if report.corruption is not None:
        print("verify-store: ok with recoverable tail damage",
              file=sys.stderr)
    else:
        print("verify-store: ok", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "replicate":
        return _run_replicate(args)

    if args.command == "proxy":
        return _run_proxy(args)

    if args.command == "proof":
        return _run_proof(args)

    if args.command == "loadgen":
        return _run_loadgen(args)

    if args.command == "recover":
        return _run_recover(args)

    if args.command == "verify-store":
        return _run_verify_store(args)

    if args.command == "list":
        for name, fn in EXPERIMENTS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {summary}")
        return 0

    if args.command == "obs-report":
        return _run_obs_report(args)

    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    for name in names:
        started = time.time()
        result = EXPERIMENTS[name]()
        elapsed = time.time() - started
        rendered = result.render()
        print(rendered)
        print(f"[{name}: {elapsed:.1f}s]\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(rendered + "\n")
            if args.json:
                (args.out / f"{name}.json").write_text(
                    json.dumps(result.to_dict(), indent=2) + "\n"
                )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
