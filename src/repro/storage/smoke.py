"""Crash-recovery smoke drill: SIGKILL a serving node, prove nothing lied.

``python -m repro.storage.smoke`` runs the full durability drill over
real processes and sockets:

1. start ``repro serve --data-dir … --fsync always`` as a subprocess;
2. drive it with concurrent closed-loop clients, recording the hash of
   every transaction whose receipt was acknowledged;
3. SIGKILL the server mid-load (no drain, no spill, no atexit);
4. recover the data directory offline and assert the recovered state
   digest is bit-identical to an independent sequential replay of the
   WAL's blocks from the genesis snapshot;
5. restart the server on the same directory and assert it resumes at
   the recovered height and serves a receipt for every acknowledged
   hash over RPC (fsync=always: an ack means durable, full stop).

The CI ``storage-smoke`` job runs exactly this.
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

from ..chain.node import Node
from ..contracts.registry import build_deployment
from . import codec, recovery, snapshot

_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")


class ServerProcess:
    """A ``repro serve`` subprocess plus its parsed listen port."""

    def __init__(self, data_dir: str, accounts: int, extra: list[str]):
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env.get("PYTHONPATH", "")
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--data-dir", data_dir,
                "--accounts", str(accounts),
                *extra,
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port: int | None = None
        self.stderr_lines: list[str] = []
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            self.stderr_lines.append(line.rstrip())
            match = _LISTEN_RE.search(line)
            if match:
                self.port = int(match.group(2))
                return
        raise RuntimeError(
            "server never announced its port:\n"
            + "\n".join(self.stderr_lines)
        )

    def kill(self) -> None:
        """SIGKILL — the whole point: no drain, no cleanup, no spill."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self) -> int:
        """Graceful stop (SIGINT → drain) and exit code."""
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


async def _drive_until_kill(
    server: ServerProcess,
    accounts: int,
    clients: int,
    total: int,
    kill_after_blocks: int,
) -> tuple[list[str], int]:
    """Closed-loop load; SIGKILL mid-load once the chain is tall enough.

    Returns (acked tx hashes, chain height last observed before the
    kill). Workers treat a dead connection as the expected end of the
    drill, not an error.
    """
    from ..serve import protocol
    from ..serve.loadgen import (
        RpcClient,
        RpcClientError,
        make_transactions,
    )

    deployment = build_deployment(num_accounts=accounts)
    txs = make_transactions(deployment, total, seed=11)
    queue: asyncio.Queue = asyncio.Queue()
    for tx in txs:
        queue.put_nowait(tx)
    acked: list[str] = []

    async def worker() -> None:
        try:
            client = await RpcClient.connect("127.0.0.1", server.port)
        except ConnectionError:
            return
        try:
            while True:
                try:
                    tx = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                try:
                    await client.call(
                        "repro_sendTransaction",
                        {"tx": protocol.tx_to_wire(tx)},
                    )
                except ConnectionError:
                    return  # the kill landed
                except RpcClientError:
                    continue
                acked.append(tx.hash().hex())
        finally:
            await client.close()

    workers = [
        asyncio.ensure_future(worker()) for _ in range(clients)
    ]
    height = 0
    try:
        stats_client = await RpcClient.connect("127.0.0.1", server.port)
        while height < kill_after_blocks:
            await asyncio.sleep(0.02)
            stats = await stats_client.call("repro_stats")
            height = stats["chainHeight"]
            if all(w.done() for w in workers):
                break  # load exhausted before the target height
    finally:
        # SIGKILL while acks are still streaming back.
        server.kill()
        await asyncio.gather(*workers, return_exceptions=True)
    return acked, height


def _offline_replay_digest(data_dir: str) -> tuple[int, bytes]:
    """Independent check: sequential replay from the genesis snapshot.

    Deliberately does *not* use :func:`repro.storage.recovery.recover` —
    it re-derives the final state with nothing but the genesis snapshot,
    the WAL's decoded blocks, and the plain sequential executor, so a
    bug in recovery's own replay can't vouch for itself.
    """
    from .wal import scan_wal

    genesis = os.path.join(data_dir, snapshot.snapshot_name(0))
    _height, _root, state, _trie = snapshot.read_snapshot(genesis)
    node = Node(state=state)
    scan = scan_wal(os.path.join(data_dir, "wal.log"))
    for payload in scan.records:
        node.execute_block(codec.decode_wal_record(payload).block)
    return len(scan.records), codec.state_digest_bytes(node.state)


async def _fetch_receipts(
    port: int, hashes: list[str]
) -> tuple[int, list[str]]:
    from ..serve.loadgen import RpcClient

    client = await RpcClient.connect("127.0.0.1", port)
    missing: list[str] = []
    try:
        for tx_hash in hashes:
            receipt = await client.call(
                "repro_getReceipt", {"txHash": tx_hash}
            )
            if receipt is None:
                missing.append(tx_hash)
    finally:
        await client.close()
    return len(hashes) - len(missing), missing


def run_crash_drill(
    accounts: int = 32,
    clients: int = 8,
    total: int = 400,
    kill_after_blocks: int = 6,
    block_size: int = 8,
    snapshot_interval: int = 4,
    data_dir: str | None = None,
) -> dict:
    """The full drill; returns a result dict with a ``failures`` list."""
    data_dir = data_dir or tempfile.mkdtemp(prefix="repro-crash-smoke-")
    serve_args = [
        "--fsync", "always",
        "--block-size", str(block_size),
        "--interval-ms", "10",
        "--snapshot-interval", str(snapshot_interval),
    ]
    failures: list[str] = []

    server = ServerProcess(data_dir, accounts, serve_args)
    acked, observed_height = asyncio.run(
        _drive_until_kill(
            server, accounts, clients, total, kill_after_blocks
        )
    )

    # -- offline recovery --------------------------------------------------
    result = recovery.recover(data_dir)
    if result.height < observed_height:
        failures.append(
            f"recovered height {result.height} < height "
            f"{observed_height} the server reported before the kill"
        )
    replay_height, replay_digest = _offline_replay_digest(data_dir)
    if replay_height != result.height:
        failures.append(
            f"offline replay height {replay_height} != recovered "
            f"{result.height}"
        )
    if replay_digest != result.state_digest:
        failures.append(
            "recovered state digest is not bit-identical to the "
            "independent sequential replay"
        )
    report = recovery.verify_store(data_dir)
    if not report.ok:
        failures.append(f"verify-store failed: {report.notes}")

    # -- restart on the same directory -------------------------------------
    restarted = ServerProcess(data_dir, accounts, serve_args)
    try:
        resumed = any(
            f"recovered height {result.height} " in line
            for line in restarted.stderr_lines
        )
        if not resumed:
            failures.append(
                f"restart did not announce recovered height "
                f"{result.height}: {restarted.stderr_lines}"
            )
        served, missing = asyncio.run(
            _fetch_receipts(restarted.port, acked)
        )
        if missing:
            failures.append(
                f"{len(missing)} of {len(acked)} acknowledged "
                f"receipts unfetchable after restart "
                f"(first: {missing[0][:16]}…)"
            )
    finally:
        code = restarted.stop()
    if code != 0:
        failures.append(f"restarted server exited {code}")

    return {
        "data_dir": data_dir,
        "acked": len(acked),
        "killed_at_height": observed_height,
        "recovered_height": result.height,
        "snapshot_height": result.snapshot_height,
        "replayed_blocks": result.replayed_blocks,
        "state_digest": result.state_digest.hex(),
        "receipts_served_after_restart": served,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accounts", type=int, default=32)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--transactions", type=int, default=400)
    parser.add_argument(
        "--kill-after-blocks", type=int, default=6,
        help="SIGKILL once the chain reaches this height",
    )
    parser.add_argument("--block-size", type=int, default=8)
    parser.add_argument("--snapshot-interval", type=int, default=4)
    parser.add_argument(
        "--data-dir", default=None,
        help="reuse a directory instead of a fresh tempdir",
    )
    args = parser.parse_args(argv)

    result = run_crash_drill(
        accounts=args.accounts,
        clients=args.clients,
        total=args.transactions,
        kill_after_blocks=args.kill_after_blocks,
        block_size=args.block_size,
        snapshot_interval=args.snapshot_interval,
        data_dir=args.data_dir,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["acked"] == 0:
        result["failures"].append(
            "no transaction was acknowledged before the kill"
        )
    if result["failures"]:
        print(
            "CRASH SMOKE FAILED: " + "; ".join(result["failures"]),
            file=sys.stderr,
        )
        return 1
    print(
        f"crash-smoke ok: killed at height "
        f"{result['killed_at_height']}, recovered "
        f"{result['recovered_height']} "
        f"(snapshot {result['snapshot_height']} + "
        f"{result['replayed_blocks']} replayed), "
        f"{result['receipts_served_after_restart']}/{result['acked']} "
        f"acked receipts served after restart",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
