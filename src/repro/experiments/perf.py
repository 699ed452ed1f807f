"""Instrumented block runs: the plumbing behind ``repro obs-report``.

:func:`measure_block` is the one place that wires a workload, the full
co-design MTPU and the observability layer together: it generates a
dependency block, runs it spatio-temporally under a scoped
:func:`~repro.obs.use_registry`/:func:`~repro.obs.use_tracing` pair, runs
the paper's plain-core baseline for the headline speedup, and folds
everything into a :class:`~repro.obs.BlockPerfReport`. Both the CLI
subcommand and the repo's benchmark (``bench/run.py``, its ``core.*``
metrics) call it, so the benchmark JSON and the interactive report
always measure the same thing.
"""

from __future__ import annotations

import time

from ..chain.dag import build_dag_edges, discover_access_sets
from ..core.hotspot import HotspotOptimizer
from ..core.mtpu import MTPUExecutor, PUConfig
from ..core.scheduler import run_sequential, run_spatial_temporal
from ..evm.interpreter import EVM
from ..obs import (
    BlockPerfReport,
    LogicalClock,
    SpanTracer,
    use_registry,
    use_tracing,
)
from ..parallel import ParallelBlockExecutor
from ..workload import all_entry_function_calls
from ..workload.generator import INDEPENDENT_TOKENS, generate_dependency_block


def measure_block(
    num_transactions: int = 32,
    num_pus: int = 4,
    ratio: float = 0.5,
    seed: int = 7,
    label: str | None = None,
    optimize_hotspots: bool = True,
    deterministic_trace: bool = True,
) -> BlockPerfReport:
    """Run one generated block through the full co-design, instrumented.

    The returned report's ``headline_speedup`` compares the co-design's
    makespan against the paper's reference configuration: the same block
    executed sequentially on one plain core (no DB cache, no redundancy
    reuse), so ``sequential_cycles`` is a *measured* baseline rather than
    the parallel run's own sequentialized sum.
    """
    # Block generation runs the EVM for access discovery; keep it (and
    # the offline hotspot profiling) outside the registry scope so the
    # report only counts the block's own execution.
    block = generate_dependency_block(
        num_transactions=num_transactions, target_ratio=ratio, seed=seed,
    )
    deployment = block.deployment

    optimizer = None
    if optimize_hotspots:
        optimizer = HotspotOptimizer(deployment.state)
        for name in INDEPENDENT_TOKENS:
            samples = all_entry_function_calls(deployment, name, seed=seed)
            optimizer.optimize_contract(
                deployment.address_of(name), samples
            )

    baseline = run_sequential(
        MTPUExecutor(
            deployment.state.copy(), num_pus=1,
            pu_config=PUConfig(
                enable_db_cache=False, redundancy_reuse=False
            ),
        ),
        block.transactions,
    )

    clock = LogicalClock() if deterministic_trace else None
    tracer = SpanTracer(clock=clock) if clock is not None else SpanTracer()
    with use_registry() as registry, use_tracing(tracer):
        counters_before = registry.counters_flat()
        executor = MTPUExecutor(
            deployment.state.copy(), num_pus=num_pus,
            pu_config=PUConfig(), hotspot_optimizer=optimizer,
        )
        schedule = run_spatial_temporal(
            executor, block.transactions, block.dag_edges,
        )
        report = BlockPerfReport.from_execution(
            label=label or (
                f"dep-block n={num_transactions} pus={num_pus} "
                f"ratio={ratio:.2f} seed={seed}"
            ),
            schedule=schedule,
            executor=executor,
            counters_before=counters_before,
        )
    # Replace the self-relative sequentialized sum with the measured
    # plain-core baseline, making headline_speedup the paper's metric.
    report.sequential_cycles = baseline.makespan_cycles
    return report


def measure_wall_clock(
    num_transactions: int = 64,
    num_workers: int = 4,
    ratio: float = 0.0,
    seed: int = 7,
    backend: str = "process",
    repeats: int = 3,
) -> dict:
    """Wall-clock throughput: seed sequential path vs execute-once pipeline.

    The *sequential* lane reproduces the seed pipeline's real cost: one
    speculative pass for access discovery, DAG construction, then a
    second, full functional execution of every transaction. The
    *pipeline* lane keeps the discovery pass's artifacts and hands them
    to :class:`~repro.parallel.ParallelBlockExecutor`, which replays
    fresh write journals (and runs stale ones on workers), so each
    transaction executes once. Both lanes must land on bit-identical
    receipts and ``state_digest()`` — asserted, not assumed.

    Times are best-of-*repeats* to damp scheduler noise; the reported
    ``pipeline_speedup`` is a ratio of two runs on the same machine, so
    it is comparable across machines.
    """
    block = generate_dependency_block(
        num_transactions=num_transactions, target_ratio=ratio, seed=seed,
    )
    transactions = block.transactions
    base_state = block.deployment.state

    def run_sequential_lane() -> tuple[float, list, tuple]:
        state = base_state.copy()
        start = time.perf_counter()
        access = discover_access_sets(transactions, state)
        build_dag_edges(transactions, access)
        evm = EVM(state)
        receipts = [evm.execute_transaction(tx) for tx in transactions]
        elapsed = time.perf_counter() - start
        return elapsed, receipts, state.state_digest()

    def run_pipeline_lane() -> tuple[float, object, tuple]:
        state = base_state.copy()
        with ParallelBlockExecutor(
            state, num_workers=num_workers, backend=backend,
        ) as executor:
            start = time.perf_counter()
            artifacts = discover_access_sets(transactions, state)
            edges = build_dag_edges(transactions, artifacts)
            result = executor.execute_block(
                transactions, edges, artifacts, artifacts=artifacts,
            )
            elapsed = time.perf_counter() - start
        return elapsed, result, state.state_digest()

    seq_seconds, seq_receipts, seq_digest = min(
        (run_sequential_lane() for _ in range(repeats)),
        key=lambda item: item[0],
    )
    pipe_seconds, pipe_result, pipe_digest = min(
        (run_pipeline_lane() for _ in range(repeats)),
        key=lambda item: item[0],
    )
    if pipe_digest != seq_digest:
        raise AssertionError(
            "pipeline state digest diverged from sequential execution"
        )
    if pipe_result.receipts != seq_receipts:
        raise AssertionError(
            "pipeline receipts diverged from sequential execution"
        )

    seq_tps = num_transactions / seq_seconds if seq_seconds > 0 else 0.0
    pipe_tps = num_transactions / pipe_seconds if pipe_seconds > 0 else 0.0
    return {
        "num_transactions": num_transactions,
        "num_workers": num_workers,
        "backend": pipe_result.backend,
        "ratio": ratio,
        "seed": seed,
        "sequential": {
            "seconds": seq_seconds,
            "tx_per_second": seq_tps,
        },
        "pipeline": {
            "seconds": pipe_seconds,
            "tx_per_second": pipe_tps,
            "replayed": pipe_result.replayed,
            "dispatched": pipe_result.dispatched,
            "executed_inline": pipe_result.executed_inline,
            "stale_artifacts": pipe_result.stale_artifacts,
            "fell_back": pipe_result.fell_back,
        },
        "pipeline_speedup": (
            pipe_tps / seq_tps if seq_tps > 0 else 0.0
        ),
        "digest_match": True,
    }


def default_occ_backend() -> str:
    """Pool speculation needs real cores; degrade to serial on one."""
    import os

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cores = os.cpu_count() or 1
    return "process" if cores >= 2 else "serial"


def measure_occ_wall_clock(
    num_transactions: int = 192,
    num_workers: int = 4,
    seed: int = 11,
    backend: str | None = None,
    repeats: int = 4,
) -> dict:
    """Dynamic-storage-key wall clock: sequential vs declared-DAG vs OCC.

    The workload is the one declared access sets cannot describe —
    path-router swaps, batch airdrops and proxy hot paths whose storage
    keys derive from calldata. Three lanes execute the same block:

    * **sequential** — the seed pipeline's real cost (one speculative
      pass for access discovery, DAG construction, then the full
      in-order execution), exactly as in :func:`measure_wall_clock`;
    * **dag** — discovery plus the execute-once
      :class:`~repro.parallel.ParallelBlockExecutor` replay;
    * **occ** — :class:`~repro.parallel.SpeculativeBlockExecutor` with
      *no access sets anywhere*: speculate, validate, commit in order.

    Lanes run interleaved per repeat so adjacent timings share the
    machine's momentary load, and each lane reports its best-of-repeats;
    the quoted speedups are same-machine ratios. Receipts and
    ``state_digest()`` parity across all three lanes is asserted, never
    assumed. *backend* defaults to :func:`default_occ_backend`.
    """
    from ..workload.generator import generate_dynamic_block

    backend = backend or default_occ_backend()
    block = generate_dynamic_block(
        num_transactions=num_transactions, seed=seed,
    )
    transactions = block.transactions
    base_state = block.deployment.state

    def run_sequential_lane():
        state = base_state.copy()
        start = time.perf_counter()
        artifacts = discover_access_sets(transactions, state)
        build_dag_edges(transactions, artifacts)
        evm = EVM(state)
        receipts = [evm.execute_transaction(tx) for tx in transactions]
        return time.perf_counter() - start, receipts, state.state_digest()

    def run_dag_lane():
        state = base_state.copy()
        with ParallelBlockExecutor(
            state, num_workers=num_workers, backend=backend,
        ) as executor:
            start = time.perf_counter()
            artifacts = discover_access_sets(transactions, state)
            edges = build_dag_edges(transactions, artifacts)
            result = executor.execute_block(
                transactions, edges, artifacts, artifacts=artifacts,
            )
            elapsed = time.perf_counter() - start
        return elapsed, result.receipts, state.state_digest()

    def run_occ_lane():
        from ..parallel import SpeculativeBlockExecutor

        state = base_state.copy()
        with SpeculativeBlockExecutor(
            state, num_workers=num_workers, backend=backend,
        ) as executor:
            executor.warm()  # pool spawn outside the timed region
            start = time.perf_counter()
            result = executor.execute_block(transactions)
            elapsed = time.perf_counter() - start
        return elapsed, result, state.state_digest()

    lanes: dict[str, list] = {"sequential": [], "dag": [], "occ": []}
    for _ in range(repeats):
        lanes["sequential"].append(run_sequential_lane())
        lanes["dag"].append(run_dag_lane())
        lanes["occ"].append(run_occ_lane())

    seq_seconds, seq_receipts, seq_digest = min(
        lanes["sequential"], key=lambda item: item[0]
    )
    dag_seconds, dag_receipts, dag_digest = min(
        lanes["dag"], key=lambda item: item[0]
    )
    occ_seconds, occ_result, occ_digest = min(
        lanes["occ"], key=lambda item: item[0]
    )
    if not (seq_digest == dag_digest == occ_digest):
        raise AssertionError(
            "occ/dag state digest diverged from sequential execution"
        )
    if [r.to_rlp() for r in occ_result.receipts] != [
        r.to_rlp() for r in seq_receipts
    ] or [r.to_rlp() for r in dag_receipts] != [
        r.to_rlp() for r in seq_receipts
    ]:
        raise AssertionError(
            "occ/dag receipts diverged from sequential execution"
        )

    def lane(seconds: float) -> dict:
        return {
            "seconds": seconds,
            "tx_per_second": (
                num_transactions / seconds if seconds > 0 else 0.0
            ),
        }

    seq_tps = lane(seq_seconds)["tx_per_second"]
    occ_tps = lane(occ_seconds)["tx_per_second"]
    dag_tps = lane(dag_seconds)["tx_per_second"]
    return {
        "num_transactions": num_transactions,
        "num_workers": num_workers,
        "seed": seed,
        "backend": occ_result.backend,
        "repeats": repeats,
        "sequential": lane(seq_seconds),
        "dag": lane(dag_seconds),
        "occ": {
            **lane(occ_seconds),
            "executions": occ_result.executions,
            "aborts": occ_result.aborts,
            "validations": occ_result.validations,
            "retries": occ_result.retries,
            "rounds": occ_result.rounds,
            "fell_back": occ_result.fell_back,
        },
        "occ_speedup": occ_tps / seq_tps if seq_tps > 0 else 0.0,
        "dag_speedup": dag_tps / seq_tps if seq_tps > 0 else 0.0,
        "digest_match": True,
    }
