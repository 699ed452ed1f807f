"""Replication chaos drill: SIGKILL a replica mid-stream, prove it heals.

``python -m repro.replication.smoke`` runs the full fault-tolerance
drill over real processes and sockets:

1. start a writer (``repro serve --replication-port``), two verifying
   replicas (``repro replicate``) and a read proxy (``repro proxy``)
   as subprocesses;
2. drive the writer with closed-loop write load while continuously
   reading balances (and subscribing to newHeads) through the proxy;
3. SIGKILL one replica mid-stream — no drain, no goodbye;
4. restart it on the same port and let reconnect/backoff + catch-up
   heal it;
5. assert: every proxy read was answered (zero unanswered, zero
   errors), the proxy ejected or failed over around the dead replica,
   and both replicas reconverge to a state digest *bit-identical* to
   the writer's at the same height.

With ``--divergence`` a third replica is started with an injected
silent state corruption (``--corrupt-at-height``); the drill then also
asserts the divergence was detected by the per-block state-root check
and healed by a snapshot resync — never served.

The CI ``replication-smoke`` job runs exactly this.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import repro

from ..contracts.registry import build_deployment

_ANNOUNCE_RE = re.compile(r"(listening|streaming) on ([\d.]+):(\d+)")


class ManagedProcess:
    """One ``repro`` subcommand subprocess plus its announced ports."""

    def __init__(self, argv: list[str], announcements: int = 1):
        self.argv = argv
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env.get("PYTHONPATH", "")
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines: list[str] = []
        #: Ports in announcement order (writer: [rpc, stream]).
        self.ports: list[int] = []
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            self.stderr_lines.append(line.rstrip())
            match = _ANNOUNCE_RE.search(line)
            if match:
                self.ports.append(int(match.group(3)))
                if len(self.ports) >= announcements:
                    return
        raise RuntimeError(
            f"{argv[0]} never announced its port(s):\n"
            + "\n".join(self.stderr_lines)
        )

    @property
    def port(self) -> int:
        return self.ports[0]

    def kill(self) -> None:
        """SIGKILL — no drain, no cleanup; the stream just tears."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.proc.kill()
            self.proc.wait()
        if self.proc.stderr is not None:
            self.stderr_lines.extend(
                line.rstrip() for line in self.proc.stderr
            )
        return self.proc.returncode


def _replica_argv(
    writer_stream_port: int,
    accounts: int,
    port: int = 0,
    corrupt_at_height: int | None = None,
) -> list[str]:
    argv = [
        "replicate",
        "--host", "127.0.0.1",
        "--port", str(port),
        "--accounts", str(accounts),
        "--writer-stream-port", str(writer_stream_port),
    ]
    if corrupt_at_height is not None:
        argv += ["--corrupt-at-height", str(corrupt_at_height)]
    return argv


async def _rpc(port: int, method: str, params=None, timeout=5.0):
    from ..serve.loadgen import RpcClient

    client = await RpcClient.connect("127.0.0.1", port)
    try:
        return await asyncio.wait_for(
            client.call(method, params), timeout=timeout
        )
    finally:
        await client.close()


async def _read_forever(
    proxy_port: int, accounts: list[int], stats: dict,
    stop: asyncio.Event,
) -> None:
    """Hammer the proxy with balance reads until told to stop.

    Every read is accounted for: the acceptance gate is zero
    unanswered and zero errors — the proxy must route around whatever
    the drill kills.
    """
    from ..serve.loadgen import RpcClient, RpcClientError

    client = await RpcClient.connect("127.0.0.1", proxy_port)
    index = 0
    try:
        while not stop.is_set():
            address = accounts[index % len(accounts)]
            index += 1
            stats["attempted"] += 1
            try:
                await asyncio.wait_for(
                    client.call(
                        "repro_getBalance", {"address": hex(address)}
                    ),
                    timeout=10.0,
                )
            except RpcClientError as err:
                stats["errors"] += 1
                stats.setdefault("error_samples", []).append(str(err))
            except (ConnectionError, asyncio.TimeoutError):
                stats["unanswered"] += 1
            else:
                stats["answered"] += 1
            await asyncio.sleep(0.002)
    finally:
        await client.close()


async def _subscribe_heads(
    proxy_port: int, heads: list[int], stop: asyncio.Event
) -> None:
    from ..serve.loadgen import RpcClient

    client = await RpcClient.connect("127.0.0.1", proxy_port)
    try:
        await client.call("repro_subscribe", {"topic": "newHeads"})
        while not stop.is_set():
            try:
                note = await client.next_notification(timeout=0.25)
            except asyncio.TimeoutError:
                continue
            head = (note.get("params") or {}).get("result") or {}
            heads.append(int(head.get("height", 0)))
    finally:
        await client.close()


async def _wait_converged(
    writer_port: int, replica_ports: list[int], timeout_s: float
) -> tuple[dict | None, list[dict]]:
    """Poll health until every replica matches the writer bit-for-bit."""
    deadline = time.monotonic() + timeout_s
    writer_health: dict | None = None
    replica_healths: list[dict] = []
    while time.monotonic() < deadline:
        try:
            writer_health = await _rpc(writer_port, "repro_health")
            replica_healths = [
                await _rpc(port, "repro_health")
                for port in replica_ports
            ]
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await asyncio.sleep(0.2)
            continue
        if writer_health["height"] > 0 and all(
            h["height"] == writer_health["height"]
            and h["stateDigest"] == writer_health["stateDigest"]
            for h in replica_healths
        ):
            return writer_health, replica_healths
        await asyncio.sleep(0.1)
    return writer_health, replica_healths


async def _drive(
    writer: ManagedProcess,
    replicas: list[ManagedProcess],
    proxy: ManagedProcess,
    accounts: int,
    clients: int,
    total: int,
    kill_after_blocks: int,
    converge_timeout_s: float,
) -> dict:
    from ..serve.loadgen import LoadGenerator

    deployment = build_deployment(num_accounts=accounts)
    loadgen = LoadGenerator(
        "127.0.0.1", writer.port, deployment=deployment
    )
    load_task = asyncio.ensure_future(
        loadgen.run_closed_loop(total, clients=clients, seed=13)
    )
    stop = asyncio.Event()
    read_stats = {"attempted": 0, "answered": 0, "errors": 0,
                  "unanswered": 0}
    reader = asyncio.ensure_future(
        _read_forever(
            proxy.port, list(deployment.accounts), read_stats, stop
        )
    )
    heads: list[int] = []
    subscriber = asyncio.ensure_future(
        _subscribe_heads(proxy.port, heads, stop)
    )
    failures: list[str] = []
    victim = replicas[0]
    victim_port = victim.port
    restarted: ManagedProcess | None = None
    try:
        # -- wait until the stream is live, then pull the plug ------------
        while True:
            stats = await _rpc(writer.port, "repro_stats")
            if stats["chainHeight"] >= kill_after_blocks:
                break
            if load_task.done():
                break
            await asyncio.sleep(0.02)
        victim.kill()
        killed_at = (await _rpc(writer.port, "repro_stats"))[
            "chainHeight"
        ]
        # -- restart on the same port (the proxy knows this endpoint);
        # process spawn blocks, so keep reads flowing via the executor.
        loop = asyncio.get_running_loop()
        restarted = await loop.run_in_executor(
            None,
            lambda: ManagedProcess(
                _replica_argv(
                    writer.ports[1], accounts, port=victim_port
                )
            ),
        )
        replicas[0] = restarted
        await load_task
        # -- reconvergence: bit-identical digests at the same height ------
        writer_health, replica_healths = await _wait_converged(
            writer.port,
            [r.port for r in replicas],
            converge_timeout_s,
        )
        if writer_health is None:
            failures.append("writer health never answered")
            replica_healths = []
        else:
            for health in replica_healths:
                if (
                    health["height"] != writer_health["height"]
                    or health["stateDigest"]
                    != writer_health["stateDigest"]
                ):
                    failures.append(
                        f"replica at height {health['height']} digest "
                        f"{health['stateDigest'][:16]}… never "
                        f"reconverged with writer height "
                        f"{writer_health['height']} digest "
                        f"{writer_health['stateDigest'][:16]}…"
                    )
        proxy_stats = await _rpc(proxy.port, "repro_stats")
    finally:
        stop.set()
        await asyncio.gather(
            reader, subscriber, return_exceptions=True
        )
        if not load_task.done():
            load_task.cancel()
            await asyncio.gather(load_task, return_exceptions=True)
    load = load_task.result() if not load_task.cancelled() else None

    # -- the acceptance gates ---------------------------------------------
    if read_stats["unanswered"]:
        failures.append(
            f"{read_stats['unanswered']} proxy reads went unanswered"
        )
    if read_stats["errors"]:
        failures.append(
            f"{read_stats['errors']} proxy reads errored "
            f"(first: {read_stats.get('error_samples', ['?'])[0]})"
        )
    if read_stats["answered"] == 0:
        failures.append("no proxy read was answered")
    if proxy_stats["ejects"] + proxy_stats["failovers"] == 0:
        failures.append(
            "proxy never ejected or failed over around the killed "
            "replica"
        )
    if not heads:
        failures.append("proxy subscriber saw no newHeads")
    if load is not None and load.ok == 0:
        failures.append("write load got nothing committed")
    restart_stats = (
        replica_healths[0].get("replication", {})
        if replica_healths
        else {}
    )
    return {
        "killed_at_height": killed_at,
        "writer_height": (
            writer_health["height"] if writer_health else None
        ),
        "writer_digest": (
            writer_health["stateDigest"] if writer_health else None
        ),
        "reads": read_stats,
        "heads_seen": len(heads),
        "proxy": proxy_stats,
        "restarted_replica": restart_stats,
        "write_load": load.to_dict() if load is not None else None,
        "failures": failures,
    }


async def _divergence_drill(
    writer: ManagedProcess,
    accounts: int,
    corrupt_at_height: int,
    converge_timeout_s: float,
) -> dict:
    """A replica with injected silent corruption must detect and heal.

    The corrupted block's trie root cannot match the root the writer
    sealed into its header, so the replica must raise the typed divergence, roll back, and
    resync from a snapshot — ending bit-identical anyway.
    """
    replica = ManagedProcess(
        _replica_argv(
            writer.ports[1], accounts,
            corrupt_at_height=corrupt_at_height,
        )
    )
    failures: list[str] = []
    try:
        writer_health, healths = await _wait_converged(
            writer.port, [replica.port], converge_timeout_s
        )
        replication = (
            healths[0].get("replication", {}) if healths else {}
        )
        if not healths or writer_health is None or (
            healths[0]["stateDigest"] != writer_health["stateDigest"]
        ):
            failures.append(
                "diverged replica never reconverged to the writer's "
                "digest"
            )
        if replication.get("divergences", 0) < 1:
            failures.append(
                "injected corruption was never detected as a "
                "divergence"
            )
        if replication.get("resyncs", 0) < 1:
            failures.append(
                "divergence did not heal through a snapshot resync"
            )
    finally:
        replica.stop()
    return {"replication": replication, "failures": failures}


def run_replication_drill(
    accounts: int = 32,
    replicas: int = 2,
    clients: int = 8,
    total: int = 600,
    kill_after_blocks: int = 8,
    block_size: int = 8,
    snapshot_interval: int = 4,
    divergence: bool = False,
    corrupt_at_height: int = 3,
    converge_timeout_s: float = 60.0,
    data_dir: str | None = None,
) -> dict:
    """The full drill; returns a result dict with a ``failures`` list."""
    data_dir = data_dir or tempfile.mkdtemp(prefix="repro-repl-smoke-")
    writer = ManagedProcess(
        [
            "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--data-dir", data_dir,
            "--accounts", str(accounts),
            "--fsync", "never",
            "--block-size", str(block_size),
            "--interval-ms", "10",
            "--snapshot-interval", str(snapshot_interval),
            "--replication-port", "0",
        ],
        announcements=2,  # the RPC port, then the stream port
    )
    followers: list[ManagedProcess] = []
    proxy: ManagedProcess | None = None
    try:
        followers = [
            ManagedProcess(_replica_argv(writer.ports[1], accounts))
            for _ in range(replicas)
        ]
        proxy_argv = [
            "proxy",
            "--host", "127.0.0.1", "--port", "0",
            "--writer", f"127.0.0.1:{writer.port}",
            "--health-interval", "0.1",
        ]
        for follower in followers:
            proxy_argv += ["--replica", f"127.0.0.1:{follower.port}"]
        proxy = ManagedProcess(proxy_argv)

        result = asyncio.run(_drive(
            writer, followers, proxy, accounts, clients, total,
            kill_after_blocks, converge_timeout_s,
        ))
        if divergence:
            result["divergence"] = asyncio.run(_divergence_drill(
                writer, accounts, corrupt_at_height,
                converge_timeout_s,
            ))
            result["failures"].extend(
                result["divergence"]["failures"]
            )
    finally:
        if proxy is not None:
            proxy.stop()
        for follower in followers:
            if follower.proc.poll() is None:
                follower.stop()
        writer.stop()
    result["data_dir"] = data_dir
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accounts", type=int, default=32)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--transactions", type=int, default=600)
    parser.add_argument(
        "--kill-after-blocks", type=int, default=8,
        help="SIGKILL the first replica once the writer reaches this "
             "height",
    )
    parser.add_argument("--block-size", type=int, default=8)
    parser.add_argument("--snapshot-interval", type=int, default=4)
    parser.add_argument(
        "--divergence", action="store_true",
        help="additionally run the injected-corruption divergence drill",
    )
    parser.add_argument(
        "--corrupt-at-height", type=int, default=3,
        help="height the divergence drill corrupts (default: 3)",
    )
    parser.add_argument(
        "--converge-timeout", type=float, default=60.0,
        help="seconds to wait for digest reconvergence (default: 60)",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="reuse a directory instead of a fresh tempdir",
    )
    args = parser.parse_args(argv)

    result = run_replication_drill(
        accounts=args.accounts,
        replicas=args.replicas,
        clients=args.clients,
        total=args.transactions,
        kill_after_blocks=args.kill_after_blocks,
        block_size=args.block_size,
        snapshot_interval=args.snapshot_interval,
        divergence=args.divergence,
        corrupt_at_height=args.corrupt_at_height,
        converge_timeout_s=args.converge_timeout,
        data_dir=args.data_dir,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["failures"]:
        print(
            "REPLICATION SMOKE FAILED: "
            + "; ".join(result["failures"]),
            file=sys.stderr,
        )
        return 1
    print(
        f"replication-smoke ok: killed a replica at height "
        f"{result['killed_at_height']}, reconverged bit-identical at "
        f"height {result['writer_height']}; "
        f"{result['reads']['answered']}/{result['reads']['attempted']} "
        f"proxy reads answered (0 unanswered), "
        f"{result['heads_seen']} heads pushed, proxy ejects "
        f"{result['proxy']['ejects']} failovers "
        f"{result['proxy']['failovers']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
