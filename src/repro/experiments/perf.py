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

:func:`measure_engines` is the wall-clock instrument: one table of
lanes (:data:`LANES`), every one timed against a single EVM pass over
the block — what the ``sequential`` engine does — and held to its
receipts and state digest. ``obs-report --wall-clock`` prints it.
"""

from __future__ import annotations

import time

from ..chain.dag import build_dag_edges, discover_access_sets
from ..chain.node import walk_in_order
from ..core.hotspot import HotspotOptimizer
from ..core.mtpu import MTPUExecutor, PUConfig
from ..core.scheduler import run_sequential, run_spatial_temporal
from ..obs import (
    BlockPerfReport,
    LogicalClock,
    SpanTracer,
    use_registry,
    use_tracing,
)
from ..parallel import SpeculativeBlockExecutor
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


def _counters(result, *names: str) -> dict:
    return {name: getattr(result, name) for name in names}


def _lane_sequential(state, transactions):
    start = time.perf_counter()
    receipts, _ = walk_in_order(state, transactions, None)
    return time.perf_counter() - start, receipts, {}


def _lane_parallel(state, transactions):
    # Walked in order over the artifacts its own discovery made, the block
    # replays every journal (``replayed == n``). The DAG is the one a node
    # builds for the block (at proposal, or checking another node's); the
    # walk does not read it. This lane is discover + DAG + replay.
    start = time.perf_counter()
    artifacts = discover_access_sets(transactions, state)
    build_dag_edges(transactions, artifacts)
    receipts, replayed = walk_in_order(state, transactions, artifacts)
    return time.perf_counter() - start, receipts, {
        "replayed": replayed, "reexecuted": len(receipts) - replayed,
    }


def _lane_occ(state, transactions):
    executor = SpeculativeBlockExecutor(state)
    start = time.perf_counter()
    result = executor.execute_block(transactions)
    return time.perf_counter() - start, result.receipts, _counters(
        result, "executions", "aborts", "validations", "retries",
        "rounds", "fell_back",
    )


#: The lane every ratio is to, and the reference every lane must match.
BASELINE = "sequential"
#: name -> ``lane(state, transactions)`` -> (seconds of the timed
#: region, receipts in block order, engine counters), the block's
#: effects applied to *state*. ``sequential`` is what
#: ``ENGINES["sequential"]`` does to a block it holds no artifacts for:
#: one EVM pass, no discovery, no DAG. ``parallel`` and ``occ`` are the
#: engines as a node runs them.
LANES = {
    BASELINE: _lane_sequential,
    "parallel": _lane_parallel,
    "occ": _lane_occ,
}


def measure_engines(block, repeats: int = 3) -> dict:
    """Wall clock of every lane in :data:`LANES` over one generated
    *block* (anything with ``transactions`` and ``deployment.state``),
    each on its own copy of the state.

    Lanes run interleaved — one pass over the table per repeat — so
    adjacent timings share the machine's momentary load. Every run's
    receipt RLP and ``state_digest()`` must equal the baseline's:
    asserted here, for every lane and repeat, naming the lane that broke.

    ``lanes[name]``: ``seconds`` (best of *repeats*), ``repeat_seconds``
    (every run, in order — the spread), ``tx_per_second`` and
    ``ratio_to_sequential`` (both from the bests, same machine, same
    interleaved runs), and the engine's counters (the same every run:
    the block and the engines are deterministic).
    """
    transactions = block.transactions
    base_state = block.deployment.state
    seconds: dict[str, list[float]] = {name: [] for name in LANES}
    counters = {}
    reference = None
    for _ in range(repeats):
        for name, lane in LANES.items():
            state = base_state.copy()
            elapsed, receipts, counters[name] = lane(state, transactions)
            outcome = (
                [receipt.to_rlp() for receipt in receipts],
                state.state_digest(),
            )
            if reference is None:
                reference = outcome  # the baseline runs first
            for what, got, want in zip(
                ("receipts", "state digest"), outcome, reference
            ):
                if got != want:
                    raise AssertionError(
                        f"lane {name!r}: {what} diverged from {BASELINE}"
                    )
            seconds[name].append(elapsed)

    count = len(transactions)
    best = {name: min(seconds[name]) for name in LANES}
    return {
        "num_transactions": count,
        "repeats": repeats,
        "lanes": {
            name: {
                "seconds": best[name],
                "repeat_seconds": seconds[name],
                "tx_per_second": count / best[name],
                "ratio_to_sequential": best[BASELINE] / best[name],
                **counters[name],
            }
            for name in LANES
        },
    }


_TIMING_KEYS = (
    "seconds", "repeat_seconds", "tx_per_second", "ratio_to_sequential",
)


def lane_lines(wall: dict) -> list[str]:
    """One line per lane: best and median tx/s, the ratio to the
    baseline, and what the engine counted."""
    # Imported here: `repro serve` imports this module through the CLI,
    # and statistics brings decimal + fractions (≈ 0.7 MB of RSS) along.
    import statistics

    lines = []
    for name, lane in wall["lanes"].items():
        median = statistics.median(lane["repeat_seconds"])
        counters = " ".join(
            f"{key}={value}" for key, value in lane.items()
            if key not in _TIMING_KEYS
        )
        lines.append(
            f"{name}: {lane['tx_per_second']:.0f} tx/s best, "
            f"{wall['num_transactions'] / median:.0f} median, "
            f"{lane['ratio_to_sequential']:.2f}x {BASELINE}"
            + (f" ({counters})" if counters else "")
        )
    return lines
