"""The repo's benchmark: sustained socket-to-durable-receipt runs.

Two ways in, one measurement underneath:

    python3 bench/run.py --seed 11 [--workload W] [--rounds R] [--out FILE]
        the whole suite: R end-to-end runs per workload, interleaved
        round-robin so host drift hits every workload alike, then one
        per-layer (traced) run per workload; prints every metric by name
        with its unit and spread, exits 1 if any output was wrong.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1
        one run, as the benchmark driver invokes it: ``--trace 0`` is
        one end-to-end run, ``--trace 1`` one per-layer run; the last
        line of stdout is one JSON object with the run's metrics.

Every run boots the real ``python -m repro serve`` as a subprocess
pinned to one core, drives it over the wire protocol from this process
pinned to another, and checks the outputs with ``oracle.py``.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from server import (
    BENCH_DIR,
    REPO_ROOT,
    SRC_DIR,
    ServerProcess,
    dir_bytes,
    pick_cores,
)

OUT_DIR = BENCH_DIR / "out"

if not (SRC_DIR / "repro" / "cli.py").is_file():
    sys.exit(f"bench: no program to measure: {SRC_DIR}/repro is missing")
sys.path.insert(0, str(SRC_DIR))

import oracle  # noqa: E402
import stats  # noqa: E402
from hostspeed import REFERENCE_SPEED, Probe  # noqa: E402
from loadgen import RoundResult, run_round  # noqa: E402
from spans import Trace, accounting, layer_metrics, waterfall  # noqa: E402
from workloads import (  # noqa: E402
    COMMON_FLAGS,
    WORKLOADS,
    Workload,
    build_pool,
    phase_seconds,
    pool_size,
)

#: Length of one run's timed load, and rounds per workload, of the suite.
DEFAULT_SECONDS = 15
DEFAULT_ROUNDS = 3
QUICK_SECONDS = 6
#: Boots per end-to-end run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Share of each scaled metric that stretches with the host as the
#: probe's work does (hostspeed.py), at the commit that defined the
#: benchmark; constants of the benchmark, fitted on same-code runs under
#: interference and checked on runs the fit had not seen (README
#: "Host-speed scaling"). Of a median open-loop latency the rest is the
#: 50 ms block interval.
CPU_SHARE = {"setup_s": 0.8, "tx_per_s": 0.75, "latency_p50_ms": 0.4}
#: Fewest probe samples a scaled metric's window must hold (one is taken
#: every 40 ms); with fewer the run fails instead of reading unscaled.
MIN_PROBE_SAMPLES = 3
#: A latency percentile that lands on a failed request is +inf; JSON has
#: no infinity, so it is printed as this many milliseconds.
INF_MS = 1e9

#: (name, unit, better). Same names on every workload; each carries a
#: regression bound in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tx_per_s", "tx/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("rss_mb", "MB", "lower"),
)

#: End-to-end metrics that this class of host cannot hold within a 25%
#: run-to-run spread (README "Bounds"): measured and reported by every
#: run, marked unresolved, not gated on. The read ones exist on
#: ``reads_beside_writes`` only.
UNRESOLVED = (
    ("latency_p99_ms", "ms", "lower"),
    ("reads_per_s", "reads/s", "higher"),
    ("read_latency_p99_ms", "ms", "lower"),
)

PER_LAYER = UNRESOLVED + (
    ("serve.wire_in_us", "us/tx", "lower"),
    ("serve.wire_out_us", "us/tx", "lower"),
    ("serve.submit_us", "us/tx", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.resolve_wait_ms", "ms", "lower"),
    ("serve.loop_other_share", "share", "lower"),
    ("serve.engine_share", "share", "higher"),
    ("serve.txs_per_block", "tx/block", "higher"),
    ("serve.blocks", "count", "lower"),
    ("serve.fallbacks", "count", "lower"),
    ("serve.busy_rejects", "count", "lower"),
    ("serve.deadline_misses", "count", "lower"),
    ("serve.latency_p999_ms", "ms", "lower"),
    ("chain.admit_us", "us/tx", "lower"),
    ("chain.pack_us", "us/tx", "lower"),
    ("chain.packed_parallelism", "tx/lane", "higher"),
    ("chain.packed_deferred", "count", "lower"),
    ("chain.discover_us", "us/tx", "lower"),
    ("chain.dag_us", "us/tx", "lower"),
    ("chain.context_us", "us/tx", "lower"),
    ("chain.commit_self_us", "us/tx", "lower"),
    ("chain.height_slowdown", "ratio", "lower"),
    ("evm.execute_us", "us/tx", "lower"),
    ("evm.gas_per_s", "gas/s", "higher"),
    ("parallel.execute_us", "us/tx", "lower"),
    ("parallel.replayed_share", "share", "higher"),
    ("parallel.stale_share", "share", "lower"),
    ("parallel.fell_back", "count", "lower"),
    ("trie.update_us", "us/tx", "lower"),
    ("trie.nodes_rehashed_per_tx", "nodes/tx", "lower"),
    ("trie.proof_us", "us/read", "lower"),
    ("trie.proof_bytes", "bytes", "lower"),
    ("storage.append_us", "us/tx", "lower"),
    ("storage.fsync_ms", "ms", "lower"),
    ("storage.fsyncs_per_ktx", "1/ktx", "lower"),
    ("storage.wal_bytes_per_tx", "bytes/tx", "lower"),
    ("storage.snapshot_ms", "ms", "lower"),
    ("storage.snapshot_stall_ms_max", "ms", "lower"),
    ("storage.disk_bytes_per_tx", "bytes/tx", "lower"),
    ("storage.restart_s", "s", "lower"),
    ("server.cpu_us_per_tx", "us/tx", "lower"),
    ("core.sim_speedup", "ratio", "higher"),
    ("core.db_cache_hit_rate", "share", "higher"),
    ("core.pu_utilization", "share", "higher"),
    ("core.p99_tx_cycles", "cycles", "lower"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("loadgen.cpu_share", "share", "lower"),
    ("loadgen.pool_exhausted", "count", "lower"),
    ("host.calib_kops_before", "kops/s", "higher"),
    ("host.calib_kops_after", "kops/s", "higher"),
    ("host.speed_factor", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_share", "share", "lower"),
    ("trace.thread_overlap_share", "share", "lower"),
    ("trace.missing", "count", "lower"),
)


# -- host ------------------------------------------------------------------
def environment(server_core, generator_core) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned": server_core is not None,
        "server_core": server_core,
        "generator_core": generator_core,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


# -- one round against one server ------------------------------------------------
class Harness:
    """Scratch space, core pinning and the shared round procedure."""

    def __init__(self) -> None:
        self.server_core, self.generator_core = pick_cores()
        if self.generator_core is None:
            print("bench: WARNING: fewer than 2 cores, running unpinned; "
                  "generator and server share a core", file=sys.stderr)
        else:
            os.sched_setaffinity(0, {self.generator_core})
        OUT_DIR.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        self._dirs = 0

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"data-{self._dirs}"
        path.mkdir()
        return path

    def server(self, workload: Workload, data_dir, spans_out=None):
        return ServerProcess(
            data_dir, COMMON_FLAGS + workload.server_flags,
            core=self.server_core, spans_out=spans_out,
        )

    def measure(self, workload, pool, seed, seconds, traced=False,
                full_oracle=True, boots=1) -> dict:
        """Boot (``boots`` times, keeping the last), drive one round,
        drain, check. Returns the raw result and what surrounds it."""
        self._dirs += 1
        probe = Probe(
            self.scratch / f"hostspeed-{self._dirs}.json",
            core=self.server_core,
        )
        try:
            booted = []
            for _ in range(boots - 1):
                with self.server(workload, self.fresh_dir()) as extra:
                    extra.start()
                    booted.append((extra.spawned_at, extra.setup_s))
                    extra.stop()
            data_dir = self.fresh_dir()
            spans_out = (
                self.scratch / f"spans-{self._dirs}.json" if traced else None
            )
            with self.server(workload, data_dir, spans_out) as server:
                server.start()
                booted.append((server.spawned_at, server.setup_s))
                result = run_round(workload, pool, seed, seconds, server)
                exit_code = server.stop()
        finally:
            host = probe.stop()
        failures = []
        if exit_code != 0:
            failures.append(f"server exited with code {exit_code}")
        failures += probe_failures(host, booted, result)
        failures += oracle.check_round(
            result, pool, data_dir, full=full_oracle
        )
        return {
            "result": result,
            "data_dir": data_dir,
            "spans_out": spans_out,
            "booted": booted,
            "host": host,
            "failures": failures,
        }


def scaled_windows(booted, result: RoundResult) -> dict:
    """The windows over which the probe's speed scales a metric."""
    windows = {
        f"boot {index + 1}": (at, at + seconds)
        for index, (at, seconds) in enumerate(booted)
    }
    windows["open window"] = (result.open_measure_start, result.open_end)
    windows["closed window"] = (
        result.closed_measure_start, result.closed_measure_end
    )
    return windows


def probe_failures(host, booted, result: RoundResult) -> list:
    """A probe that died, wrote nothing or was starved would leave a
    metric unscaled (factor 1) on a host that may be 2x off: that is a
    wrong output, not a reading."""
    return [
        f"host-speed probe: {host.samples(t0, t1)} samples in the {label} "
        f"({t1 - t0:.2f} s), need {MIN_PROBE_SAMPLES}"
        for label, (t0, t1) in scaled_windows(booted, result).items()
        if host.samples(t0, t1) < MIN_PROBE_SAMPLES
    ]


def count_ops(result: RoundResult) -> tuple:
    attempted = result.writes_sent + result.reads_sent
    failed = (
        sum(result.write_errors.values())
        + result.unanswered_writes()
        + result.read_errors
    )
    return attempted, failed


def _finite_ms(value: float) -> float:
    return INF_MS if value == stats.INF else value


def open_latencies(result: RoundResult) -> tuple:
    """(ok samples in ms, failed count) of the measured open window."""
    samples = []
    failed = 0
    start = result.open_measure_start
    for index in range(result.open_sent):
        due = result.due[index]
        if due < start:
            continue
        if result.placed[index] is None:
            failed += 1
        else:
            samples.append((result.done[index] - due) * 1000.0)
    return samples, failed


def end_to_end_metrics(measured: dict) -> tuple:
    """(the gated end-to-end metrics; the unresolved ones, the raw
    readings behind the scaled metrics and the validity readings).

    ``setup_s``, ``tx_per_s`` and ``latency_p50_ms`` are reported at the
    reference host speed, each for its CPU_SHARE (see hostspeed.py);
    everything else is as measured.
    """
    result, host = measured["result"], measured["host"]
    c0, c1 = result.closed_measure_start, result.closed_measure_end
    committed, _gas = result.committed_between(c0, c1)
    tx_per_s = committed / (c1 - c0)
    samples, failed = open_latencies(result)
    p50 = stats.percentile(samples, 50, failed)
    metrics = {
        "setup_s": stats.median([
            host.scale_duration(
                seconds, at, at + seconds, CPU_SHARE["setup_s"]
            )
            for at, seconds in measured["booted"]
        ]),
        "tx_per_s": host.scale_rate(
            tx_per_s, c0, c1, CPU_SHARE["tx_per_s"]
        ),
        "latency_p50_ms": _finite_ms(host.scale_duration(
            p50, result.open_measure_start, result.open_end,
            CPU_SHARE["latency_p50_ms"],
        )),
        "rss_mb": result.rss_mb_after_open,
    }
    other = {
        "latency_p99_ms": _finite_ms(stats.percentile(samples, 99, failed)),
        "latency_p50_ms_raw": _finite_ms(p50),
        "setup_s_raw": stats.median(
            [seconds for _at, seconds in measured["booted"]]
        ),
        "tx_per_s_raw": tx_per_s,
        "host.speed_factor": host.speed(c0, c1) / REFERENCE_SPEED,
        "host.speed_open": host.speed(
            result.open_measure_start, result.open_end) / REFERENCE_SPEED,
        "loadgen.late_ms_p99": stats.percentile(result.late_ms, 99),
        "loadgen.pool_exhausted": float(result.pool_exhausted),
    }
    if result.reads_sent:
        read_ms = [
            (done - sent) * 1000.0 for sent, done, _kind in result.reads_ok
        ]
        other["reads_per_s"] = (
            len(result.reads_ok) / (result.read_end - result.read_start)
        )
        other["read_latency_p99_ms"] = _finite_ms(
            stats.percentile(read_ms, 99, result.read_errors)
        )
    return metrics, other


def describe(workload: Workload, pool, seconds: float) -> dict:
    return {
        "why": workload.why,
        "traffic": workload.traffic,
        "server_flags": list(COMMON_FLAGS + workload.server_flags),
        "open_rate_tx_per_s": workload.open_rate,
        "reads_beside_writes": workload.reads_beside_writes,
        "phases": phase_seconds(seconds),
        "pool_frames": len(pool.frames),
        "frames_sha256": pool.sha256,
    }


# -- the two kinds of run -----------------------------------------------------
def run_end_to_end(harness: Harness, workload: Workload, seed: int,
                   seconds: float) -> dict:
    """``--trace 0``: SETUP_BOOTS boots, one untraced round, full oracle."""
    pool = build_pool(workload, seed, pool_size(workload, seconds))
    outcome = harness.measure(
        workload, pool, seed, seconds, boots=SETUP_BOOTS
    )
    attempted, failed = count_ops(outcome["result"])
    if outcome["failures"]:
        failed = attempted
    metrics, raw = end_to_end_metrics(outcome)
    return {
        "workload": workload.name,
        "seed": seed,
        "describe": describe(workload, pool, seconds),
        "metrics": metrics,
        "raw": raw,
        "attempted": attempted,
        "failed": failed,
        "failures": outcome["failures"],
    }


def core_model_metrics() -> dict:
    """The paper's model result: simulated cycles, which must repeat
    exactly on every run of every commit that does not change the model."""
    from repro.experiments import measure_block

    report = measure_block(num_transactions=64, num_pus=8, ratio=0.5, seed=7)
    return {
        "core.sim_speedup": report.headline_speedup,
        "core.db_cache_hit_rate": report.cache_hit_rate,
        "core.pu_utilization": report.utilization,
        "core.p99_tx_cycles": float(report.p99_tx_cycles),
    }


def run_per_layer(harness: Harness, workload: Workload, seed: int,
                  seconds: float) -> dict:
    """``--trace 1``: an untraced and a traced round of the same shape,
    each half of *seconds* long; the traced one yields the waterfall,
    their throughput ratio is the cost of tracing."""
    half = seconds / 2.0
    pool = build_pool(workload, seed, pool_size(workload, half))
    plain = harness.measure(workload, pool, seed, half, full_oracle=False)
    traced = harness.measure(workload, pool, seed, half, traced=True)
    # Operator cost of coming back: reboot on the populated data
    # directory (snapshot load + WAL suffix replay) up to first health.
    with harness.server(workload, traced["data_dir"]) as again:
        restart_s = again.start().setup_s
        restarted_height = again.health_at_boot["height"]
        again.stop()
    failures = plain["failures"] + traced["failures"]
    result = traced["result"]
    if restarted_height != result.health_final["height"]:
        failures.append(
            f"restart recovered height {restarted_height}, server had "
            f"committed {result.health_final['height']}"
        )

    trace = Trace.load(traced["spans_out"])
    books = accounting(
        trace, result.closed_measure_start, result.closed_measure_end
    )
    metrics = layer_metrics(trace, result, books)
    stats_open, stats_end = result.stats_after_open, result.stats_final
    blocks = stats_end["blocksBuilt"] - stats_open["blocksBuilt"]
    txs = stats_end["txsCommitted"] - stats_open["txsCommitted"]
    proof_sizes = [len(reply["proof"]) // 2 for reply in result.proofs]
    wal_bytes = (traced["data_dir"] / "wal.log").stat().st_size
    committed = max(1, stats_end["txsCommitted"])
    metrics.update({
        "serve.txs_per_block": txs / blocks if blocks else 0.0,
        "serve.blocks": float(stats_end["blocksBuilt"]),
        "serve.fallbacks": float(stats_end["sequentialFallbacks"]),
        "serve.busy_rejects": float(stats_end["busyRejects"]),
        "serve.deadline_misses": float(stats_end["deadlineMisses"]),
        "chain.packed_parallelism": stats_end["packedParallelism"],
        "chain.packed_deferred": float(stats_end["packedDeferred"]),
        "trie.proof_bytes": (
            sum(proof_sizes) / len(proof_sizes) if proof_sizes else 0.0
        ),
        "storage.wal_bytes_per_tx": wal_bytes / committed,
        "storage.disk_bytes_per_tx": (
            dir_bytes(traced["data_dir"]) / committed
        ),
        "storage.restart_s": restart_s,
        "trace.missing": float(len(trace.missing)),
    })

    # What tracing would distort comes from the untraced twin.
    twin = plain["result"]
    twin_e2e, twin_raw = end_to_end_metrics(plain)
    traced_e2e, _raw = end_to_end_metrics(traced)
    twin_committed, _gas = twin.committed_between(
        twin.closed_measure_start, twin.closed_measure_end
    )
    samples, failed = open_latencies(twin)
    metrics.update({
        name: twin_raw[name]
        for name in ("latency_p99_ms", "reads_per_s", "read_latency_p99_ms",
                     "host.speed_factor", "loadgen.late_ms_p99")
        if name in twin_raw
    })
    metrics.update({
        "server.cpu_us_per_tx": (
            (twin.cpu_at_closed_end - twin.cpu_at_measure_start)
            / max(1, twin_committed) * 1e6
        ),
        "serve.latency_p999_ms": _finite_ms(
            stats.percentile(samples, 99.9, failed)
        ),
        "loadgen.cpu_share": (
            twin.generator_cpu_s / (twin.round_end - twin.open_start)
        ),
        "loadgen.pool_exhausted": float(
            twin.pool_exhausted + result.pool_exhausted
        ),
        "host.calib_kops_before": plain["host"].speed(
            plain["booted"][0][0], twin.closed_start) / 1000.0,
        "host.calib_kops_after": traced["host"].speed(
            result.closed_start, result.round_end) / 1000.0,
        "trace.overhead_ratio": (
            twin_e2e["tx_per_s"] / traced_e2e["tx_per_s"]
        ),
    })
    metrics.update(core_model_metrics())

    attempted = failed_ops = 0
    for round_result in (twin, result):
        ops = count_ops(round_result)
        attempted += ops[0]
        failed_ops += ops[1]
    if failures:
        failed_ops = attempted
    return {
        "workload": workload.name,
        "seed": seed,
        "describe": describe(workload, pool, half),
        "metrics": metrics,
        "missing": trace.missing,
        "waterfall": waterfall(books),
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failures,
    }


# -- printing --------------------------------------------------------------------
def print_metrics(report: dict, table) -> None:
    units = {name: unit for name, unit, _better in table}
    print(f"[{report['workload']}] seed {report['seed']}: "
          f"{report['attempted']} ops, {report['failed']} failed")
    for name, _unit, _better in table:
        if name in report["metrics"]:
            print(f"  {name:32s} {report['metrics'][name]:>16.4f} "
                  f"{units[name]}")
    for name, value in report.get("raw", {}).items():
        print(f"  ({name:30s} {value:>16.4f})")
    for name in report.get("missing", ()):
        print(f"  trace.missing: {name}")
    for failure in report["failures"]:
        print(f"  ORACLE: {failure}")


def contract_line(report: dict, table) -> str:
    """The driver's result object: every metric of *table*, by name. A
    per-layer metric that does not apply (layer bypassed on this
    workload, or its wrap point is missing) reads 0."""
    metrics = {
        name: {"value": float(report["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit, _better in table
    }
    return json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


# -- entry points ------------------------------------------------------------------
def contract_main(args) -> int:
    workload = WORKLOADS[args.workload]
    harness = Harness()
    try:
        if args.trace:
            report = run_per_layer(harness, workload, args.seed, args.seconds)
            table = PER_LAYER
        else:
            report = run_end_to_end(
                harness, workload, args.seed, args.seconds
            )
            table = END_TO_END
    finally:
        harness.close()
    print_metrics(report, table)
    print(contract_line(report, table))
    return 1 if report["failures"] else 0


def summarize(values, unit: str, better: str) -> dict:
    return {
        "unit": unit,
        "better": better,
        "values": values,
        "median": stats.median(values),
        "spread": stats.relative_spread(values),
        "range": stats.relative_range(values),
    }


def suite_main(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    harness = Harness()
    runs: dict = {name: [] for name in names}
    layers: dict = {}
    try:
        for round_index in range(args.rounds):
            for name in names:  # interleaved: drift hits all alike
                print(f"-- round {round_index + 1}/{args.rounds} {name}",
                      file=sys.stderr)
                runs[name].append(run_end_to_end(
                    harness, WORKLOADS[name], args.seed, args.seconds
                ))
        for name in names:
            print(f"-- traced {name}", file=sys.stderr)
            layers[name] = run_per_layer(
                harness, WORKLOADS[name], args.seed, args.seconds
            )
    finally:
        harness.close()

    document = {
        "schema": 1,
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "environment": environment(
            harness.server_core, harness.generator_core
        ),
        "workloads": {},
    }
    wrong = False
    for name in names:
        layer = layers[name]
        reports = runs[name] + [layer]
        failures = [f for report in reports for f in report["failures"]]
        wrong = wrong or bool(failures)
        entry = dict(runs[name][0]["describe"])
        entry.update({
            "end_to_end": {
                metric: summarize(
                    [run["metrics"][metric] for run in runs[name]],
                    unit, better,
                )
                for metric, unit, better in END_TO_END
            },
            # Measured by every run but not gated: see README "Bounds".
            "unresolved": {
                metric: summarize(
                    [run["raw"][metric] for run in runs[name]],
                    unit, better,
                )
                for metric, unit, better in UNRESOLVED
                if metric in runs[name][0]["raw"]
            },
            "per_layer": {
                metric: {"unit": unit, "value": layer["metrics"][metric]}
                for metric, unit, _better in PER_LAYER
                if metric in layer["metrics"]
            },
            "trace_missing": layer["missing"],
            "waterfall": layer["waterfall"],
            "raw": {
                key: [run["raw"][key] for run in runs[name]]
                for key in runs[name][0]["raw"]
            },
            "ops_attempted": sum(r["attempted"] for r in reports),
            "ops_failed": sum(r["failed"] for r in reports),
            "correct": not failures,
            "failures": failures,
        })
        document["workloads"][name] = entry
        print(f"\n== {name}: {entry['ops_attempted']} ops, "
              f"{entry['ops_failed']} failed, oracle "
              f"{'ok' if not failures else 'FAILED'}")
        for kind, table in (("end_to_end", END_TO_END),
                            ("unresolved", UNRESOLVED)):
            for metric, unit, _better in table:
                cell = entry[kind].get(metric)
                if cell is None:
                    continue
                values = " ".join(f"{v:.4g}" for v in cell["values"])
                print(f"  {metric:32s} {cell['median']:>14.4f} {unit:8s} "
                      f"spread {cell['spread']:.3f}  [{values}]"
                      + ("  (unresolved: not gated)"
                         if kind == "unresolved" else ""))
        print_metrics(layer, PER_LAYER)
        print("  waterfall (self time / closed-window wall time):")
        for span_name, share in entry["waterfall"].items():
            print(f"    {span_name:40s} {share:8.4f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, required=True,
                        help="the only source of randomness")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed load per run (default: "
                             f"{DEFAULT_SECONDS}; --quick: {QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one end-to-end (0) or one "
                             "per-layer (1) run of --workload")
    parser.add_argument("--rounds", type=int, default=None,
                        help="suite mode: end-to-end runs per workload "
                             f"(default: {DEFAULT_ROUNDS}; --quick: 1)")
    parser.add_argument("--quick", action="store_true",
                        help="suite mode: 1 round of short phases")
    parser.add_argument("--out", help="suite mode: write the full JSON here")
    args = parser.parse_args(argv)
    # Terminated politely, still stop the server and the probe: turn the
    # signal into an exit that unwinds the ``with``/``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.rounds is None:
        args.rounds = 1 if args.quick else DEFAULT_ROUNDS
    if args.seconds <= 0 or args.rounds <= 0:
        parser.error("--seconds and --rounds must be positive")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return contract_main(args)
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
