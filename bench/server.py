"""Boot, observe and drain ``python -m repro serve`` as a subprocess.

The server is always the real CLI in its own process, reached over the
wire protocol only. A traced boot swaps the launcher
(``traced_server.py`` instead of ``-m repro``) and nothing else.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

_LISTENING = re.compile(rb"listening on [\d.]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: How long a boot or a drain may take before the run is abandoned.
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server did not boot, answer or drain as it must."""


def pick_cores() -> tuple:
    """(server core, generator core), or (None, None) on a single core."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None, None
    return cores[0], cores[1]


def rpc_call(port: int, method: str):
    """One blocking JSON-RPC call on a short-lived connection."""
    request = {"jsonrpc": "2.0", "id": 1, "method": method}
    with socket.create_connection(("127.0.0.1", port), 30.0) as sock:
        sock.sendall(json.dumps(request).encode() + b"\n")
        with sock.makefile("rb") as replies:
            reply = json.loads(replies.readline())
    if "error" in reply:
        raise ServerError(f"{method}: {reply['error']}")
    return reply["result"]


class ServerProcess:
    """One ``repro serve`` subprocess on a data directory."""

    def __init__(self, data_dir, flags=(), core=None, spans_out=None):
        self.data_dir = str(data_dir)
        self.flags = tuple(flags)
        self.core = core
        #: Set: boot through the traced launcher, which dumps its spans
        #: to this file on drain.
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: perf_counter reading at spawn, and spawn -> first
        #: ``repro_health`` reply in seconds.
        self.spawned_at = 0.0
        self.setup_s = 0.0
        self.health_at_boot: dict = {}

    def argv(self) -> list:
        serve = ["serve", "--port", "0", "--data-dir", self.data_dir,
                 *self.flags]
        if self.spans_out is not None:
            return [sys.executable, str(BENCH_DIR / "traced_server.py"),
                    "--spans-out", str(self.spans_out), *serve]
        return [sys.executable, "-m", "repro", *serve]

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        spawned = self.spawned_at = time.perf_counter()
        # stderr is a raw pipe: _await_listening selects on its fd, and
        # a buffered reader could hold the line select is waiting for.
        self.proc = subprocess.Popen(
            self.argv(), env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, bufsize=0,
        )
        if self.core is not None:
            os.sched_setaffinity(self.proc.pid, {self.core})
        try:
            self.port = self._await_listening(spawned)
            self.health_at_boot = rpc_call(self.port, "repro_health")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - spawned
        return self

    def _await_listening(self, spawned: float) -> int:
        """The port from the server's "listening on" line. On a populated
        data directory the line follows "recovered height ..." at once,
        so everything read from the pipe is kept and searched by line."""
        fd = self.proc.stderr.fileno()
        seen = b""
        while True:
            remaining = BOOT_TIMEOUT_S - (time.perf_counter() - spawned)
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise ServerError("server boot timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServerError(
                    "server exited before listening:\n"
                    + seen.decode(errors="replace")
                )
            seen += chunk
            # Whole lines only: a chunk may end inside the port number.
            match = _LISTENING.search(seen[:seen.rfind(b"\n") + 1])
            if match:
                return int(match.group(1))

    # -- /proc ---------------------------------------------------------------
    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            # Fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the whole line.
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmRSS in /proc status")

    # -- shutdown ------------------------------------------------------------
    def stop(self) -> int:
        """SIGINT, wait for the drain, return the exit code."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain on SIGINT") from None
        code = self.proc.returncode
        self.proc = None
        return code

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.communicate()
            self.proc = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


def dir_bytes(path) -> int:
    return sum(
        entry.stat().st_size
        for entry in Path(path).rglob("*") if entry.is_file()
    )
