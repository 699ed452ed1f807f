"""The load generator: one asyncio thread, pipelined connections.

A round drives one freshly booted server through

1. an **open-loop phase** — writes leave on a fixed schedule whatever
   the server does, and each is timed from the instant it was *due*, so
   a stall is charged to every request it delays;
2. a **closed-loop phase** — 128 writes (one full block) are kept in
   flight: a reply triggers the next request on the same connection;
and, on ``reads_beside_writes`` only, a closed loop of 4 balance /
proof / receipt reads on the second connection for the whole round while
the first connection alone carries the writes.

Frames are pre-encoded before any timed window; the hot path only
writes bytes and parses replies.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

from workloads import (
    CLOSED_IN_FLIGHT,
    READS_IN_FLIGHT,
    FramePool,
    Workload,
    phase_seconds,
)

#: Bound on any wait for outstanding replies: the server's own default
#: deadline is 30 s, so past this a request counts as unanswered.
REPLY_TIMEOUT_S = 40.0
#: Read request ids start here, far above any pool index.
READ_ID_BASE = 1_000_000_000
#: Proof replies kept for the oracle to verify.
PROOF_SAMPLES = 200
#: Committed hashes the receipt reads cycle over (the server retains
#: receipts for 1024 blocks; this many recent ones are always there).
RECENT_HASHES = 256

now = time.perf_counter


class Connection:
    """A pipelined newline-delimited JSON-RPC connection."""

    def __init__(self, reader, writer, on_reply) -> None:
        self._reader = reader
        self._writer = writer
        self.on_reply = on_reply
        self._pump = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int, on_reply) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 20
        )
        return cls(reader, writer, on_reply)

    def send(self, frame: bytes) -> None:
        self._writer.write(frame)

    async def _read(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                return
            self.on_reply(self, json.loads(line), now())

    async def close(self) -> None:
        self._pump.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


class ControlClient:
    """Request/response calls for phase-boundary bookkeeping (stats,
    health, headers); never used inside a timed window's hot path."""

    def __init__(self) -> None:
        self._conn: Connection | None = None
        self._next_id = 1
        self._waiting: dict = {}

    async def connect(self, port: int) -> None:
        self._conn = await Connection.open(port, self._on_reply)

    def _on_reply(self, _conn, obj, _at) -> None:
        future = self._waiting.pop(obj.get("id"), None)
        if future is not None and not future.done():
            future.set_result(obj)

    async def call(self, method: str, params: dict | None = None):
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = future
        request = {"jsonrpc": "2.0", "id": request_id, "method": method}
        if params is not None:
            request["params"] = params
        self._conn.send(json.dumps(request).encode() + b"\n")
        reply = await asyncio.wait_for(future, REPLY_TIMEOUT_S)
        if "error" in reply:
            raise RuntimeError(f"{method}: {reply['error']}")
        return reply["result"]

    async def close(self) -> None:
        if self._conn is not None:
            await self._conn.close()


@dataclass
class RoundResult:
    """Everything one round observed, raw; metrics are derived later."""

    phases: dict
    #: perf_counter readings (system-wide monotonic clock on Linux, so
    #: they line up with the traced server's span timestamps).
    open_start: float = 0.0
    open_end: float = 0.0
    closed_start: float = 0.0
    closed_end: float = 0.0
    round_end: float = 0.0
    # -- writes, indexed by pool index (= request id) --------------------
    writes_sent: int = 0
    open_sent: int = 0
    due: list = field(default_factory=list)
    done: list = field(default_factory=list)
    #: (blockHeight, txIndex, success, gasUsed) per ok reply, else None.
    placed: list = field(default_factory=list)
    write_errors: dict = field(default_factory=dict)
    late_ms: list = field(default_factory=list)
    pool_exhausted: int = 0
    exhausted_at: float | None = None
    # -- reads -----------------------------------------------------------
    reads_sent: int = 0
    #: (sent, done, kind) per ok read.
    reads_ok: list = field(default_factory=list)
    read_errors: int = 0
    read_start: float = 0.0
    read_end: float = 0.0
    proofs: list = field(default_factory=list)
    # -- process readings at phase boundaries -----------------------------
    rss_mb_after_open: float = 0.0
    cpu_at_measure_start: float = 0.0
    cpu_at_closed_end: float = 0.0
    stats_after_open: dict = field(default_factory=dict)
    stats_final: dict = field(default_factory=dict)
    health_final: dict = field(default_factory=dict)
    #: height -> ``repro_getBlock`` header of every committed block
    #: (plus the genesis root under height 0).
    headers: dict = field(default_factory=dict)
    generator_cpu_s: float = 0.0

    @property
    def open_measure_start(self) -> float:
        return self.open_start + self.phases["open_warmup_s"]

    @property
    def closed_measure_start(self) -> float:
        return self.closed_start + self.phases["closed_warmup_s"]

    @property
    def closed_measure_end(self) -> float:
        """End of the measured closed window: the phase end, or the
        instant the frame pool ran dry if a fast server emptied it."""
        if self.exhausted_at is not None:
            return min(self.closed_end, self.exhausted_at)
        return self.closed_end

    def committed_between(self, t0: float, t1: float) -> tuple:
        """(ok write replies, their gasUsed) that arrived in [t0, t1]."""
        count = gas = 0
        for index in range(self.writes_sent):
            placed = self.placed[index]
            if placed is not None and t0 <= self.done[index] <= t1:
                count += 1
                gas += placed[3]
        return count, gas

    def unanswered_writes(self) -> int:
        return sum(
            1 for i in range(self.writes_sent) if self.done[i] is None
        )


class RoundDriver:
    """Runs the phases of one round against a listening server."""

    def __init__(self, workload: Workload, pool: FramePool, seed: int,
                 seconds: float, server) -> None:
        self.workload = workload
        self.pool = pool
        self.server = server
        self.rng = random.Random(seed ^ 0x5EED)
        self.result = RoundResult(phases=phase_seconds(seconds))
        size = len(pool.frames)
        self.result.due = [None] * size
        self.result.done = [None] * size
        self.result.placed = [None] * size
        self._next = 0
        self._closed_loop = False
        self._outstanding = 0
        self._writes_idle = asyncio.Event()
        self._recent_hashes: list = []
        # -- reader state --------------------------------------------------
        self._reading = False
        self._read_conn: Connection | None = None
        self._reads_in_flight: dict = {}
        self._reads_idle = asyncio.Event()
        self._next_read_id = READ_ID_BASE
        self._read_cycle = 0
        self._proofs_seen = 0

    # -- writes ------------------------------------------------------------
    def _send_write(self, conn: Connection, due: float) -> None:
        index = self._next
        self._next += 1
        result = self.result
        result.due[index] = due
        result.writes_sent += 1
        self._outstanding += 1
        self._writes_idle.clear()
        conn.send(self.pool.frames[index])

    def _on_write_reply(self, conn: Connection, obj: dict, at: float):
        result = self.result
        index = obj["id"]
        result.done[index] = at
        reply = obj.get("result")
        if reply is not None:
            result.placed[index] = (
                reply["blockHeight"], reply["txIndex"],
                reply["success"], reply["gasUsed"],
            )
            hashes = self._recent_hashes
            if len(hashes) < RECENT_HASHES:
                hashes.append(reply["txHash"])
            else:
                hashes[index % RECENT_HASHES] = reply["txHash"]
        else:
            code = obj.get("error", {}).get("code", 0)
            result.write_errors[code] = result.write_errors.get(code, 0) + 1
        self._outstanding -= 1
        if self._closed_loop:
            if self._next < len(self.pool.frames):
                self._send_write(conn, at)
                return
            if result.exhausted_at is None:
                result.pool_exhausted = 1
                result.exhausted_at = at
        if self._outstanding == 0:
            self._writes_idle.set()

    async def _await_writes(self) -> None:
        if self._outstanding:
            try:
                await asyncio.wait_for(
                    self._writes_idle.wait(), REPLY_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                pass  # counted as unanswered

    async def _open_phase(self, conns) -> None:
        result = self.result
        rate = self.workload.open_rate
        count = int(rate * result.phases["open_s"])
        start = result.open_start = now()
        for k in range(count):
            due = start + k / rate
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            result.late_ms.append((now() - due) * 1000.0)
            self._send_write(conns[k % len(conns)], due)
        result.open_sent = count
        await self._await_writes()
        result.open_end = now()

    async def _closed_phase(self, conns) -> None:
        result = self.result
        loop = asyncio.get_running_loop()
        start = result.closed_start = now()
        self._closed_loop = True
        per_conn = CLOSED_IN_FLIGHT // len(conns)
        for conn in conns:
            for _ in range(per_conn):
                self._send_write(conn, now())

        def mark_measure_start() -> None:
            result.cpu_at_measure_start = self.server.cpu_seconds()

        loop.call_later(result.phases["closed_warmup_s"], mark_measure_start)
        await asyncio.sleep(start + result.phases["closed_s"] - now())
        self._closed_loop = False
        result.closed_end = now()
        result.cpu_at_closed_end = self.server.cpu_seconds()
        await self._await_writes()

    # -- reads -------------------------------------------------------------
    def _send_read(self) -> None:
        kind = ("balance", "balance", "proof", "receipt")[
            self._read_cycle % 4
        ]
        self._read_cycle += 1
        request_id = self._next_read_id
        self._next_read_id += 1
        if kind == "receipt" and self._recent_hashes:
            frame = (
                b'{"jsonrpc":"2.0","id":%d,"method":"repro_getReceipt",'
                b'"params":{"txHash":"%s"}}\n'
                % (request_id, self.rng.choice(self._recent_hashes).encode())
            )
        else:
            # Before the first commit there is no hash to look up: a
            # balance read stands in for the receipt read.
            method = b"repro_getProof" if kind == "proof" else (
                b"repro_getBalance"
            )
            kind = "proof" if kind == "proof" else "balance"
            frame = (
                b'{"jsonrpc":"2.0","id":%d,"method":"%s",'
                b'"params":{"address":"%x"}}\n'
                % (request_id, method, self.rng.choice(self.pool.accounts))
            )
        self._reads_in_flight[request_id] = (now(), kind)
        self.result.reads_sent += 1
        self._reads_idle.clear()
        self._read_conn.send(frame)

    def _on_read_reply(self, _conn, obj: dict, at: float) -> None:
        sent, kind = self._reads_in_flight.pop(obj["id"])
        reply = obj.get("result")
        if reply is None:
            # An error, or a null receipt for a hash that did commit.
            self.result.read_errors += 1
        else:
            self.result.reads_ok.append((sent, at, kind))
            if kind == "proof":
                self._keep_proof(reply)
        if self._reading:
            self._send_read()
        elif not self._reads_in_flight:
            self._reads_idle.set()

    def _keep_proof(self, reply: dict) -> None:
        """Reservoir-sample PROOF_SAMPLES proof replies for the oracle."""
        self._proofs_seen += 1
        proofs = self.result.proofs
        if len(proofs) < PROOF_SAMPLES:
            proofs.append(reply)
        else:
            slot = self.rng.randrange(self._proofs_seen)
            if slot < PROOF_SAMPLES:
                proofs[slot] = reply

    def _start_reads(self, conn: Connection) -> None:
        self._read_conn = conn
        self._reading = True
        self.result.read_start = now()
        for _ in range(READS_IN_FLIGHT):
            self._send_read()

    async def _stop_reads(self) -> None:
        self._reading = False
        self.result.read_end = now()
        if self._reads_in_flight:
            try:
                await asyncio.wait_for(
                    self._reads_idle.wait(), REPLY_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                self.result.read_errors += len(self._reads_in_flight)

    # -- the round ---------------------------------------------------------
    async def run(self) -> RoundResult:
        result = self.result
        port = self.server.port
        control = ControlClient()
        await control.connect(port)
        reads = self.workload.reads_beside_writes
        first = await Connection.open(port, self._on_write_reply)
        second = await Connection.open(
            port, self._on_read_reply if reads else self._on_write_reply
        )
        write_conns = [first] if reads else [first, second]
        cpu_started = time.process_time()
        try:
            if reads:
                self._start_reads(second)
            await self._open_phase(write_conns)
            result.rss_mb_after_open = self.server.rss_mb()
            result.stats_after_open = await control.call("repro_stats")
            await self._closed_phase(write_conns)
            if reads:
                await self._stop_reads()
            result.round_end = now()
            result.generator_cpu_s = time.process_time() - cpu_started
            result.stats_final = await control.call("repro_stats")
            result.health_final = await control.call("repro_health")
            result.headers = await self._fetch_headers(control)
        finally:
            for conn in (first, second):
                await conn.close()
            await control.close()
        return result

    async def _fetch_headers(self, control: ControlClient) -> dict:
        """Every committed header as ``repro_getBlock`` reports it: the
        roots sampled proofs must verify against, the hashes the replay
        must reproduce."""
        height = self.result.health_final["height"]
        fetched = await asyncio.gather(*(
            control.call("repro_getBlock", {"height": h})
            for h in range(1, height + 1)
        ))
        headers = {header["height"]: header for header in fetched}
        headers[0] = {
            "stateRoot": self.server.health_at_boot["stateRoot"],
            "hash": "",
        }
        return headers


def run_round(workload: Workload, pool: FramePool, seed: int,
              seconds: float, server) -> RoundResult:
    async def main() -> RoundResult:
        return await RoundDriver(
            workload, pool, seed, seconds, server
        ).run()

    return asyncio.run(main())
