"""A host-speed probe on the server's core, for shared, drifting hosts.

The boxes this benchmark runs on slow down and recover by the second and
by the minute, each core on its own: over hundreds of runs made while
building this, the throughput of one unchanged commit spread 20-40%
(quartile distance over median), far more than any bound a regression
gate could use, and a longer run does not average it out.

So while a run measures the server, a probe process shares the server's
core at normal priority on a small duty cycle: about 2 ms of fixed,
interpreter-bound work, then 38 ms of sleep. It records how many units
of work it completed per second of CPU time it was given: the speed of
that core at that moment. It costs the server about 5% of its core, on
every commit alike.

A metric that is made of CPU time is then reported at a fixed reference
speed. Of a duration measured at reference speed, a share ``c`` stretches
with the host as the probe's work does and the rest (a block-interval
timer, an fsync) does not, so at probed speed ``s`` it reads

    raw = reference * (1 - c + c * REFERENCE_SPEED / s)

and the reference value is ``raw`` divided by that stretch for a
duration, multiplied by it for a rate, the speed taken over the metric's
own window. ``c`` is one constant per scaled metric (``run.py:
CPU_SHARE``). The raw readings are reported beside the scaled ones, and a
run whose probe has no samples in a scaled window is a failed run
(``run.py: probe_failures``), never one silently reported unscaled.

Run as a script it is the probe process itself:

    python3 bench/hostspeed.py OUT.json     # SIGTERM: dump samples, exit
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

#: Work units per CPU-second the probe reads beside a busy server on the
#: box the benchmark was sized on, when nothing disturbs it. A constant
#: of the benchmark: it only fixes the scale of the scaled metrics.
REFERENCE_SPEED = 12_000.0
#: Units of work per sample (about 2 ms of CPU) and the sleep between
#: samples: a 5% duty cycle.
UNITS_PER_SAMPLE = 20
SLEEP_S = 0.038


def work_unit(block: bytes, table: dict) -> bytes:
    """About 100 us of interpreter-bound work with some hashing in it:
    the mix a CPython server is made of."""
    for i in range(64):
        block = hashlib.sha3_256(block).digest()
        key = (block[0] | (block[1] << 8)) & 1023
        table[key] = table.get(key, 0) + i
    return block


def probe(out_path: str) -> None:
    samples = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    block, table = b"\x5a" * 32, {}
    parent = os.getppid()
    # Outliving a killed benchmark would tax the next one's server.
    while not stop and os.getppid() == parent:
        started_cpu = time.process_time()
        for _ in range(UNITS_PER_SAMPLE):
            block = work_unit(block, table)
        samples.append(
            (time.perf_counter(), time.process_time() - started_cpu)
        )
        time.sleep(SLEEP_S)
    with open(out_path, "w") as fh:
        json.dump(samples, fh)


class Probe:
    """The probe process, from the benchmark's side."""

    def __init__(self, out_path, core=None) -> None:
        self.out_path = Path(out_path)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             str(self.out_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if core is not None:
            os.sched_setaffinity(self.proc.pid, {core})

    def stop(self) -> "HostSpeed":
        """End the probe process and return what it sampled."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not self.out_path.exists():
            return HostSpeed([])
        return HostSpeed(json.loads(self.out_path.read_text()))


class HostSpeed:
    """The speed of the probed core over time. *samples*: (wall time at
    the end of the sample, CPU seconds its UNITS_PER_SAMPLE units took)."""

    def __init__(self, samples) -> None:
        self._at = [at for at, _cpu in samples]
        self._cpu = [cpu for _at, cpu in samples]

    def _window(self, t0: float, t1: float) -> list:
        return self._cpu[
            bisect_left(self._at, t0):bisect_right(self._at, t1)
        ]

    def samples(self, t0: float, t1: float) -> int:
        """How many samples ended in [t0, t1]."""
        return len(self._window(t0, t1))

    def speed(self, t0: float, t1: float) -> float:
        """Units per CPU-second over the samples taken in [t0, t1].
        With none it is REFERENCE_SPEED (factor 1) so that arithmetic
        goes on, but the caller must fail the run: see ``samples``."""
        cpu = self._window(t0, t1)
        if not cpu or sum(cpu) <= 0:
            return REFERENCE_SPEED
        return UNITS_PER_SAMPLE * len(cpu) / sum(cpu)

    def stretch(self, t0: float, t1: float, cpu_share: float) -> float:
        """How many times longer than at reference speed something took
        over [t0, t1], *cpu_share* of which (at reference speed) is CPU
        time; the rest, a timer or a disk, does not stretch."""
        return (
            1.0 - cpu_share
            + cpu_share * REFERENCE_SPEED / self.speed(t0, t1)
        )

    def scale_rate(self, rate: float, t0: float, t1: float,
                   cpu_share: float) -> float:
        return rate * self.stretch(t0, t1, cpu_share)

    def scale_duration(self, seconds: float, t0: float, t1: float,
                       cpu_share: float) -> float:
        return seconds / self.stretch(t0, t1, cpu_share)


if __name__ == "__main__":
    probe(sys.argv[1])
