"""Drills: boot → drive → kill → assert, over real processes and sockets.

``python -m repro.drill NAME [key=value …]`` runs one row of
:data:`SCENARIOS`, prints its measurements as JSON and exits 0, 1 (a
gate failed, or the scenario raised) or 2 (no such name or key). Each CI
``drills`` matrix entry is exactly one row; ``key=value`` overrides a
row's parameter, typed by the row's own value.

A scenario is a function returning its measurements plus ``failures``
(one string per gate that did not hold) and a one-line ``summary``. The
pieces every scenario shares are stated once here: the process handle
(:class:`ReproProcess`), the client helpers (:func:`rpc`,
:func:`load_until_height`) and the reference every served chain is held
to (:func:`sequential_reference`).

What is *not* here is parity that needs no process: every engine,
wall-clock lane and proof check against sequential execution is a tier-1
test (``tests/parallel``, ``tests/experiments``, ``tests/evm``,
``tests/trie``). A drill exists
where the claim is about a real SIGKILL, a real socket or a real clock.
Throughput is measured by the repo's benchmark (``bench/run.py``, from a
separate process, over sustained runs); ``min_tps`` below is a floor an
order of magnitude under that figure, not a measurement, and is held
against the drill process's CPU time rather than the wall clock.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
import traceback

import repro

from .chain.node import Node
from .chain.receipt import receipts_root
from .contracts.registry import build_deployment
from .serve.loadgen import LoadGenerator, RpcClient, RpcClientError
from .storage.codec import state_digest_bytes

_ANNOUNCE_RE = re.compile(rb"(?:listening|streaming) on [\d.]+:(\d+)")
#: How long a SIGINT drain may take before the child is killed instead.
DRAIN_TIMEOUT_S = 60.0


# -- the process handle --------------------------------------------------------
class ReproProcess:
    """One ``python -m repro *argv`` subprocess and the ports it announced.

    The constructor returns once the child has printed *announcements*
    ``listening on`` / ``streaming on`` lines (a writer announces its RPC
    port, then its stream port) and raises :class:`RuntimeError` — with
    the stderr seen so far, the child already reaped — if it exits first
    or stays silent past *boot_timeout* seconds. As a context manager it
    kills the child on the way out, so a scenario that raises leaves no
    process behind.
    """

    def __init__(self, argv: list[str], announcements: int = 1,
                 boot_timeout: float = 60.0):
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        # stderr is a raw pipe: the boot loop selects on its fd, and a
        # buffered reader could hold the line select is waiting for.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env, stderr=subprocess.PIPE, bufsize=0,
        )
        #: Every stderr line read so far (boot lines, then the drain's).
        self.stderr_lines: list[str] = []
        #: Ports in announcement order.
        self.ports: list[int] = []
        try:
            self._await_announcements(
                argv[0], announcements, time.monotonic() + boot_timeout
            )
        except BaseException:
            self.kill()
            raise

    def _await_announcements(self, name, announcements, deadline) -> None:
        fd = self.proc.stderr.fileno()
        pending = b""
        while len(self.ports) < announcements:
            # select, not readline: the deadline has to hold while the
            # child is alive and silent.
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic())
            )
            chunk = os.read(fd, 65536) if ready else b""
            if not chunk:
                how = "exited before announcing" if ready else (
                    "stayed silent past its boot deadline, short of"
                )
                self.stderr_lines.append(pending.decode(errors="replace"))
                raise RuntimeError(
                    f"{name} {how} {announcements} port(s):\n"
                    + "\n".join(self.stderr_lines)
                )
            # Whole lines only: a chunk may end inside the port number.
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                self.stderr_lines.append(line.decode(errors="replace"))
                match = _ANNOUNCE_RE.search(line)
                if match:
                    self.ports.append(int(match.group(1)))

    @property
    def port(self) -> int:
        return self.ports[0]

    def kill(self) -> None:
        """SIGKILL and reap — no drain, no spill, no goodbye."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> int:
        """SIGINT → drain; the exit code (-9 if the drain never ended)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self._reap(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.proc.returncode

    def _reap(self, timeout: float | None = None) -> None:
        if self.proc.stderr.closed:
            return  # reaped before: kill() after kill(), or after stop()
        _, rest = self.proc.communicate(timeout=timeout)
        self.stderr_lines.extend(
            rest.decode(errors="replace").splitlines()
        )

    def __enter__(self) -> "ReproProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


# -- the client side -----------------------------------------------------------
async def rpc(port: int, method: str, params=None, timeout: float = 5.0):
    """One JSON-RPC call on a short-lived connection."""
    client = await RpcClient.connect("127.0.0.1", port)
    try:
        return await asyncio.wait_for(
            client.call(method, params), timeout=timeout
        )
    finally:
        await client.close()


async def load_until_height(port, deployment, total, clients, seed, height):
    """Start a closed-loop write load; return ``(its task, the chain
    height last seen)`` once ``repro_stats`` reports *height* or the load
    ran out first. What the caller kills then dies mid-load."""
    load = asyncio.ensure_future(
        LoadGenerator("127.0.0.1", port, deployment=deployment)
        .run_closed_loop(total, clients=clients, seed=seed)
    )
    seen = 0
    while seen < height and not load.done():
        await asyncio.sleep(0.02)
        seen = (await rpc(port, "repro_stats"))["chainHeight"]
    return load, seen


# -- the reference -------------------------------------------------------------
def sequential_reference(genesis, blocks) -> tuple[list[bytes], bytes]:
    """A fresh :class:`Node` on *genesis* executes *blocks* with the
    default sequential engine: per-block receipts roots and the final
    ``state_digest_bytes``. ``execute_block`` checks every sealed state
    root on the way, so a chain that replays here is a chain any honest
    node reaches."""
    node = Node(state=genesis)
    roots = [receipts_root(node.execute_block(block)) for block in blocks]
    return roots, state_digest_bytes(node.state)


# -- scenarios: serving --------------------------------------------------------
def serve(*, transactions, clients, block_size_target, min_tps, max_p99_ms,
          executor="sequential", workload="transfer", packing="fifo",
          num_workers=4, min_parallelism=None, max_blocks=None) -> dict:
    """Boot an in-process :class:`RpcServer` on an ephemeral port, drive
    it closed-loop over real sockets, drain, and hold the chain it built
    to the sequential reference."""
    from .serve.config import ServeConfig
    from .serve.server import RpcServer

    config = ServeConfig(
        host="127.0.0.1", port=0, block_size_target=block_size_target,
        block_interval_ms=25.0, executor=executor, packing=packing,
        num_workers=num_workers,
    )
    deployment = build_deployment()
    node = Node(state=deployment.state.copy())
    arrival: list = []
    if packing == "conflict_aware":
        # Record admission order (the event loop admits serially), so
        # the FIFO history the packed server reordered can be replayed —
        # the pack-equivalence check over sockets.
        original_add = node.mempool.add

        def recording_add(tx, heard_at=None, bloom=None):
            admitted = original_add(tx, heard_at=heard_at, bloom=bloom)
            if admitted:
                arrival.append(tx)
            return admitted

        node.mempool.add = recording_add

    async def drive():
        server = RpcServer(node=node, config=config)
        await server.start()
        try:
            cpu_started = time.process_time()
            load = await LoadGenerator(
                config.host, config.port, deployment=deployment
            ).run_closed_loop(
                transactions, clients=clients, workload=workload, seed=7
            )
            cpu_s = time.process_time() - cpu_started
            # What an operator reads off the live process, over the wire.
            return load, cpu_s, await rpc(config.port, "repro_stats")
        finally:
            await server.shutdown()

    load, cpu_s, stats = asyncio.run(drive())
    # The floor is on this process's CPU time (server, worker thread and
    # load generator alike), so a neighbour sharing the cores does not
    # count against it; the wall-clock rate is reported beside it.
    cpu_tps = load.ok / cpu_s if cpu_s > 0 else float("inf")
    dropped = load.requested - load.ok - sum(load.errors.values())
    failures = []
    if load.unanswered:
        failures.append(f"{load.unanswered} unanswered requests")
    if dropped:
        failures.append(f"{dropped} dropped receipts")
    if load.errors:
        failures.append(f"typed errors under closed loop: {load.errors}")
    # One set of books, and a process with no registry installed
    # publishes it: the series, its legacy view and the load agree.
    published = stats["metrics"]["counters"].get("serve.txs_committed")
    if not (published == stats["txsCommitted"] == transactions):
        failures.append(
            f"serve.txs_committed {published} / txsCommitted "
            f"{stats['txsCommitted']} / {transactions} sent disagree"
        )

    roots, digest = sequential_reference(deployment.state.copy(), node.chain)
    served_roots = [
        receipts_root(node.receipts[block.hash()]) for block in node.chain
    ]
    served_digest = state_digest_bytes(node.state)
    if roots != served_roots or digest != served_digest:
        failures.append("serve state/receipts diverged from offline")
    if arrival:
        # Pack-equivalence: a fresh node executing the admitted
        # transactions in strict arrival (FIFO) order must land on the
        # state the packed server committed.
        fifo = Node(state=deployment.state.copy())
        for start in range(0, len(arrival), block_size_target):
            fifo.execute_block(fifo.propose_block(
                transactions=arrival[start:start + block_size_target]
            ))
        if state_digest_bytes(fifo.state) != served_digest:
            failures.append("packed state diverged from FIFO replay")
    if (min_parallelism is not None
            and stats["packedParallelism"] < min_parallelism):
        failures.append(
            f"packed parallelism {stats['packedParallelism']:.2f} "
            f"< floor {min_parallelism:.2f}"
        )
    blocks_built = stats["blocksBuilt"]
    if max_blocks is not None and blocks_built > max_blocks:
        # Blocks cut on promised instead of measured gas run small.
        failures.append(f"{blocks_built} blocks > bound {max_blocks}")
    if cpu_tps < min_tps:
        failures.append(
            f"throughput {cpu_tps:.0f} tx per CPU-second "
            f"< floor {min_tps:.0f}"
        )
    latency = load.latency
    if latency.p99_ms > max_p99_ms:
        failures.append(
            f"p99 {latency.p99_ms:.1f} ms > bound {max_p99_ms:.0f}"
        )
    return {
        "executor": executor,
        "load": load.to_dict(),
        "cpu_tx_per_s": cpu_tps,
        "stats": stats,
        "dropped_receipts": dropped,
        "failures": failures,
        "summary": (
            f"{load.tx_per_second:.0f} tx/s closed-loop "
            f"({cpu_tps:.0f} per CPU-second), p50/p99 "
            f"{latency.p50_ms:.1f}/{latency.p99_ms:.1f} ms, "
            f"{blocks_built} blocks"
        ),
    }


# -- scenarios: SIGKILL --------------------------------------------------------
#: Genesis size of both SIGKILL drills (server and load build the same
#: deployment independently, so the two sides must agree).
KILL_DRILL_ACCOUNTS = 32


def _writer_argv(data_dir: str, fsync: str) -> list[str]:
    """Small blocks on a short timer and frequent snapshots, so a few
    hundred transactions cross several snapshot boundaries."""
    return [
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--data-dir", data_dir, "--accounts", str(KILL_DRILL_ACCOUNTS),
        "--fsync", fsync, "--block-size", "8", "--interval-ms", "10",
        "--snapshot-interval", "4",
    ]


def storage(*, transactions, clients, kill_after_blocks) -> dict:
    """SIGKILL a durably serving node mid-load; nothing acked may be
    lost and recovery may not vouch for itself."""
    from .storage import codec, recovery, snapshot
    from .storage.wal import scan_wal

    deployment = build_deployment(num_accounts=KILL_DRILL_ACCOUNTS)
    failures: list[str] = []
    with contextlib.ExitStack() as stack:
        data_dir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-drill-storage-")
        )
        # fsync=always: an ack means durable, full stop.
        argv = _writer_argv(data_dir, "always")
        server = stack.enter_context(ReproProcess(argv))

        async def drive():
            load_task, seen = await load_until_height(
                server.port, deployment, transactions, clients, 11,
                kill_after_blocks,
            )
            server.kill()  # while acks are still streaming back
            return await load_task, seen

        load, observed_height = asyncio.run(drive())
        acked = [tx.hash().hex() for tx in load.acked]
        if not acked:
            failures.append("no transaction was acknowledged before the kill")

        recovered = recovery.recover(data_dir)
        if recovered.height < observed_height:
            failures.append(
                f"recovered height {recovered.height} < height "
                f"{observed_height} the server reported before the kill"
            )
        # Deliberately not recovery.recover: nothing but the genesis
        # snapshot, the WAL's decoded blocks and the sequential engine,
        # so a bug in recovery's own replay cannot vouch for itself.
        _, _, genesis, _ = snapshot.read_snapshot(
            os.path.join(data_dir, snapshot.snapshot_name(0))
        )
        roots, digest = sequential_reference(genesis, [
            codec.decode_wal_record(payload).block
            for payload in scan_wal(os.path.join(data_dir, "wal.log")).records
        ])
        if len(roots) != recovered.height:
            failures.append(
                f"offline replay height {len(roots)} != recovered "
                f"{recovered.height}"
            )
        if digest != recovered.state_digest:
            failures.append(
                "recovered state digest is not bit-identical to the "
                "independent sequential replay"
            )
        report = recovery.verify_store(data_dir)
        if not report.ok:
            failures.append(f"verify-store failed: {report.notes}")

        restarted = stack.enter_context(ReproProcess(argv))
        if not any(f"recovered height {recovered.height} " in line
                   for line in restarted.stderr_lines):
            failures.append(
                f"restart did not announce recovered height "
                f"{recovered.height}: {restarted.stderr_lines}"
            )

        async def fetch_missing():
            return [
                tx_hash for tx_hash in acked
                if await rpc(
                    restarted.port, "repro_getReceipt", {"txHash": tx_hash}
                ) is None
            ]

        missing = asyncio.run(fetch_missing())
        if missing:
            failures.append(
                f"{len(missing)} of {len(acked)} acknowledged receipts "
                f"unfetchable after restart (first: {missing[0][:16]}…)"
            )
        code = restarted.stop()
        if code != 0:
            failures.append(f"restarted server exited {code}")
    served = len(acked) - len(missing)
    return {
        "acked": len(acked),
        "killed_at_height": observed_height,
        "recovered_height": recovered.height,
        "snapshot_height": recovered.snapshot_height,
        "replayed_blocks": recovered.replayed_blocks,
        "state_digest": recovered.state_digest.hex(),
        "receipts_served_after_restart": served,
        "failures": failures,
        "summary": (
            f"killed at height {observed_height}, recovered "
            f"{recovered.height} (snapshot {recovered.snapshot_height} + "
            f"{recovered.replayed_blocks} replayed), {served}/{len(acked)} "
            f"acked receipts served after restart"
        ),
    }


def _replica_argv(stream_port: int, port: int = 0,
                  corrupt_at_height: int | None = None) -> list[str]:
    argv = [
        "replicate", "--host", "127.0.0.1", "--port", str(port),
        "--accounts", str(KILL_DRILL_ACCOUNTS),
        "--writer-stream-port", str(stream_port),
    ]
    if corrupt_at_height is not None:
        argv += ["--corrupt-at-height", str(corrupt_at_height)]
    return argv


async def _read_balances(proxy_port, accounts, reads, stop) -> None:
    """Hammer the proxy with balance reads until told to stop. Every read
    is accounted for: the proxy must route around whatever dies."""
    client = await RpcClient.connect("127.0.0.1", proxy_port)
    try:
        while not stop.is_set():
            address = accounts[reads["attempted"] % len(accounts)]
            reads["attempted"] += 1
            try:
                await asyncio.wait_for(client.call(
                    "repro_getBalance", {"address": hex(address)}
                ), timeout=10.0)
            except RpcClientError as err:
                reads["errors"] += 1
                reads.setdefault("error_samples", []).append(str(err))
            except (ConnectionError, asyncio.TimeoutError):
                reads["unanswered"] += 1
            else:
                reads["answered"] += 1
            await asyncio.sleep(0.002)
    finally:
        await client.close()


async def _subscribe_heads(proxy_port, heads, stop) -> None:
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


async def _wait_converged(writer_port, replica_ports, timeout_s=60.0):
    """Poll ``repro_health`` until every replica matches the writer bit
    for bit; returns the last ``(writer, [replicas])`` healths read."""
    deadline = time.monotonic() + timeout_s
    writer_health, healths = None, []
    while time.monotonic() < deadline:
        try:
            writer_health = await rpc(writer_port, "repro_health")
            healths = [
                await rpc(port, "repro_health") for port in replica_ports
            ]
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await asyncio.sleep(0.2)
            continue
        if writer_health["height"] > 0 and all(
            _same_state(health, writer_health) for health in healths
        ):
            break
        await asyncio.sleep(0.1)
    return writer_health, healths


def _same_state(health: dict, writer_health: dict) -> bool:
    return (health["height"] == writer_health["height"]
            and health["stateDigest"] == writer_health["stateDigest"])


def replication(*, transactions, clients, kill_after_blocks,
                divergence) -> dict:
    """Writer + two verifying replicas + read proxy as real processes;
    SIGKILL a replica mid-stream under write load, restart it on the
    same port, and require bit-identical reconvergence while the proxy
    answers every read. With *divergence* a third replica starts with an
    injected silent corruption and must detect it by the per-block
    state-root check and heal by a snapshot resync — never serve it."""
    deployment = build_deployment(num_accounts=KILL_DRILL_ACCOUNTS)
    failures: list[str] = []
    reads = {"attempted": 0, "answered": 0, "errors": 0, "unanswered": 0}
    heads: list[int] = []
    with contextlib.ExitStack() as stack:
        data_dir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-drill-replication-")
        )
        writer = stack.enter_context(ReproProcess(
            _writer_argv(data_dir, "never") + ["--replication-port", "0"],
            announcements=2,  # the RPC port, then the stream port
        ))
        stream_port = writer.ports[1]
        replicas = [
            stack.enter_context(ReproProcess(_replica_argv(stream_port)))
            for _ in range(2)
        ]
        proxy_argv = [
            "proxy", "--host", "127.0.0.1", "--port", "0",
            "--writer", f"127.0.0.1:{writer.port}",
            "--health-interval", "0.1",
        ]
        for replica in replicas:
            proxy_argv += ["--replica", f"127.0.0.1:{replica.port}"]
        proxy = stack.enter_context(ReproProcess(proxy_argv))

        async def drive():
            stop = asyncio.Event()
            watchers = [
                asyncio.ensure_future(_read_balances(
                    proxy.port, list(deployment.accounts), reads, stop
                )),
                asyncio.ensure_future(
                    _subscribe_heads(proxy.port, heads, stop)
                ),
            ]
            try:
                load_task, _ = await load_until_height(
                    writer.port, deployment, transactions, clients, 13,
                    kill_after_blocks,
                )
                victim_port = replicas[0].port
                replicas[0].kill()
                killed_at = (
                    await rpc(writer.port, "repro_stats")
                )["chainHeight"]
                # Same port: it is the endpoint the proxy knows. Process
                # spawn blocks, so it runs off-loop and reads keep flowing.
                replicas[0] = stack.enter_context(
                    await asyncio.get_running_loop().run_in_executor(
                        None, ReproProcess,
                        _replica_argv(stream_port, port=victim_port),
                    )
                )
                load = await load_task
                writer_health, healths = await _wait_converged(
                    writer.port, [replica.port for replica in replicas]
                )
                proxy_stats = await rpc(proxy.port, "repro_stats")
            finally:
                stop.set()
                await asyncio.gather(*watchers, return_exceptions=True)
            return killed_at, load, writer_health, healths, proxy_stats

        killed_at, load, writer_health, healths, proxy_stats = asyncio.run(
            drive()
        )
        if writer_health is None:
            failures.append("writer health never answered")
        failures += [
            f"replica at height {health['height']} digest "
            f"{health['stateDigest'][:16]}… never reconverged with writer "
            f"height {writer_health['height']} digest "
            f"{writer_health['stateDigest'][:16]}…"
            for health in healths if not _same_state(health, writer_health)
        ]
        if reads["unanswered"]:
            failures.append(
                f"{reads['unanswered']} proxy reads went unanswered"
            )
        if reads["errors"]:
            failures.append(
                f"{reads['errors']} proxy reads errored "
                f"(first: {reads['error_samples'][0]})"
            )
        if reads["answered"] == 0:
            failures.append("no proxy read was answered")
        if proxy_stats["ejects"] + proxy_stats["failovers"] == 0:
            failures.append(
                "proxy never ejected or failed over around the killed replica"
            )
        if not heads:
            failures.append("proxy subscriber saw no newHeads")
        if load.ok == 0:
            failures.append("write load got nothing committed")
        result = {
            "killed_at_height": killed_at,
            "writer_height": writer_health and writer_health["height"],
            "writer_digest": writer_health and writer_health["stateDigest"],
            "reads": reads,
            "heads_seen": len(heads),
            "proxy": proxy_stats,
            "restarted_replica": (
                healths[0].get("replication", {}) if healths else {}
            ),
            "write_load": load.to_dict(),
        }

        if divergence:
            # The corrupted block's trie root cannot match the root the
            # writer sealed into its header: the replica must raise the
            # typed divergence, roll back and resync from a snapshot —
            # ending bit-identical anyway.
            corrupted = stack.enter_context(ReproProcess(
                _replica_argv(stream_port, corrupt_at_height=3)
            ))
            writer_health, healths = asyncio.run(
                _wait_converged(writer.port, [corrupted.port])
            )
            counters = healths[0].get("replication", {}) if healths else {}
            if not healths or not _same_state(healths[0], writer_health):
                failures.append(
                    "diverged replica never reconverged to the writer's "
                    "digest"
                )
            if counters.get("divergences", 0) < 1:
                failures.append(
                    "injected corruption was never detected as a divergence"
                )
            if counters.get("resyncs", 0) < 1:
                failures.append(
                    "divergence did not heal through a snapshot resync"
                )
            result["divergence"] = {"replication": counters}
    return {
        **result,
        "failures": failures,
        "summary": (
            f"killed a replica at height {killed_at}, reconverged "
            f"bit-identical at height {result['writer_height']}; "
            f"{reads['answered']}/{reads['attempted']} proxy reads answered "
            f"(0 unanswered), {len(heads)} heads pushed, proxy ejects "
            f"{proxy_stats['ejects']} failovers {proxy_stats['failovers']}"
        ),
    }


# -- the table -----------------------------------------------------------------
#: name -> (scenario, the parameters CI runs it with).
SCENARIOS: dict[str, tuple] = {
    # Any unanswered request, dropped receipt, typed error, divergence
    # from the sequential reference, sub-floor throughput or p99 above
    # the (generous) bound fails.
    "serve": (serve, dict(
        transactions=512, clients=16, block_size_target=16,
        min_tps=500.0, max_p99_ms=2000.0,
    )),
    # The one served configuration on the observed (Tracer) loop.
    "serve-mtpu": (serve, dict(
        transactions=128, clients=16, block_size_target=16,
        executor="mtpu", min_tps=50.0, max_p99_ms=5000.0,
    )),
    # TOP8 calls promise 5M gas and use about 50k. Blocks filled by the
    # gas pre-execution measured hold the 64 in flight (about 8 blocks);
    # cut on promised gas they hold 6 (86 blocks).
    "serve-erc20": (serve, dict(
        workload="erc20", transactions=512, clients=64,
        block_size_target=64, max_blocks=40,
        min_tps=50.0, max_p99_ms=5000.0,
    )),
    # Conflict-heavy load through packing=conflict_aware, blocks cut for
    # 8 lanes of 4: digest parity with a FIFO replay of the submission
    # order, a packed-parallelism floor, no dropped receipt.
    "packing": (serve, dict(
        transactions=256, clients=16, block_size_target=32,
        workload="hotburst", packing="conflict_aware",
        num_workers=8, min_parallelism=1.5,
        min_tps=100.0, max_p99_ms=5000.0,
    )),
    # SIGKILL a durably serving node mid-load, recover offline, hold the
    # result to an independent WAL replay, restart on the same directory
    # and require every acknowledged receipt to be served again.
    "storage": (storage, dict(
        transactions=400, clients=8, kill_after_blocks=6,
    )),
    # SIGKILL a replica mid-stream under write load, restart it, require
    # bit-identical reconvergence with zero unanswered proxy reads; then
    # a replica with injected corruption must detect it and resync.
    "replication": (replication, dict(
        transactions=600, clients=8, kill_after_blocks=8, divergence=True,
    )),
}


def parse_overrides(scenario, row: dict, pairs: list[str]) -> dict:
    """``key=value`` strings → parameters of *scenario*, each typed by
    the row's value, else by the function's default. A parameter the
    function defaults to ``None`` also takes ``none``, and with no value
    in the row to type it, an int, a float or a string. Raises
    :class:`ValueError` on an unknown key or an untypable value."""
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(scenario).parameters.items()
    }
    overrides = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or key not in defaults:
            raise ValueError(
                f"unknown override {pair!r}; keys: {', '.join(defaults)}"
            )
        typed_by = row.get(key, defaults[key])
        if defaults[key] is None and text.lower() == "none":
            overrides[key] = None
        elif isinstance(typed_by, bool):
            if text.lower() not in ("true", "false"):
                raise ValueError(f"{key} takes true or false, not {text!r}")
            overrides[key] = text.lower() == "true"
        elif typed_by is None:
            for cast in (int, float, str):
                with contextlib.suppress(ValueError):
                    overrides[key] = cast(text)
                    break
        else:
            overrides[key] = type(typed_by)(text)  # ValueError: untypable
    return overrides


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in SCENARIOS:
        print(
            "usage: python -m repro.drill NAME [key=value ...]; NAME is "
            "one of: " + ", ".join(SCENARIOS), file=sys.stderr,
        )
        return 2
    name = argv[0]
    scenario, row = SCENARIOS[name]
    try:
        params = {**row, **parse_overrides(scenario, row, argv[1:])}
    except ValueError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    try:
        result = scenario(**params)
    except Exception as exc:
        # A drill that cannot finish has failed; the scenario's own
        # ``with`` blocks have already reaped what it started.
        traceback.print_exc()
        result = {"failures": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["failures"]:
        print(f"{name} FAILED: " + "; ".join(result["failures"]),
              file=sys.stderr)
        return 1
    print(f"{name} ok: {result['summary']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
