"""Transaction-parallelism experiments: Figs. 14, 15, 16."""

from __future__ import annotations

from ..core.hotspot import HotspotOptimizer
from ..core.mtpu import MTPUExecutor, PUConfig
from ..core.scheduler import (
    run_sequential,
    run_spatial_temporal,
    run_synchronous,
)
from ..workload import all_entry_function_calls, generate_dependency_block
from ..workload.generator import INDEPENDENT_TOKENS
from .common import ExperimentResult, trace_once

#: Dependency ratios swept on the x-axis of Figs. 14-16.
RATIO_SWEEP = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def _sequential_baseline(block, artifacts, **pu_kwargs) -> int:
    executor = MTPUExecutor(
        artifacts, num_pus=1, pu_config=PUConfig(**pu_kwargs),
    )
    return run_sequential(executor, block.transactions).makespan_cycles


def _parallel(block, artifacts, runner, num_pus, hotspot=None,
              **pu_kwargs):
    executor = MTPUExecutor(
        artifacts, num_pus=num_pus, pu_config=PUConfig(**pu_kwargs),
        hotspot_optimizer=hotspot,
    )
    return runner(executor, block.transactions, block.dag_edges)


def _blocks_for_sweep(num_transactions, seed, ratios):
    """(block, its traced artifacts) per ratio."""
    blocks = [
        generate_dependency_block(
            num_transactions=num_transactions, target_ratio=ratio,
            seed=seed + i,
        )
        for i, ratio in enumerate(ratios)
    ]
    return [
        (block, trace_once(block.deployment.state, block.transactions))
        for block in blocks
    ]


def fig14_scheduling_speedup(
    num_transactions: int = 48, seed: int = 100,
    pu_counts: tuple[int, ...] = (2, 4),
    ratios: list[float] | None = None,
) -> ExperimentResult:
    """Fig. 14: synchronous vs spatio-temporal speedup over a single PU.

    Both configurations run *without* redundancy reuse (that is Fig. 16's
    addition), against the same no-reuse sequential baseline.
    """
    ratios = ratios or RATIO_SWEEP
    blocks = _blocks_for_sweep(num_transactions, seed, ratios)
    headers = ["dep ratio"] + [
        f"sync x{k}" for k in pu_counts
    ] + [f"ST x{k}" for k in pu_counts]
    rows = []
    for block, artifacts in blocks:
        base = _sequential_baseline(block, artifacts, redundancy_reuse=False)
        row = [f"{block.measured_dependency_ratio:.2f}"]
        for k in pu_counts:
            sync = _parallel(block, artifacts, run_synchronous, k,
                             redundancy_reuse=False)
            row.append(base / sync.makespan_cycles)
        for k in pu_counts:
            st = _parallel(block, artifacts, run_spatial_temporal, k,
                           redundancy_reuse=False)
            row.append(base / st.makespan_cycles)
        rows.append(row)
    # The paper overlays fitted curves on the scatter; report linear-fit
    # slopes per configuration (speedup lost per unit dependency ratio).
    import numpy as np

    xs = np.array([float(row[0]) for row in rows])
    fit_notes = []
    for column in range(1, len(headers)):
        ys = np.array([float(row[column]) for row in rows])
        slope, intercept = np.polyfit(xs, ys, 1)
        fit_notes.append(
            f"{headers[column]}: fit {intercept:.2f} {slope:+.2f}*ratio"
        )
    return ExperimentResult(
        experiment_id="Fig. 14",
        title="Speedup vs dependency ratio: (a) synchronous execution, "
              "(b) spatio-temporal scheduling",
        headers=headers,
        rows=rows,
        notes="paper shape: both fall as the dependency ratio rises; "
              "spatio-temporal dominates synchronous at every point\n"
              "fitted curves: " + "; ".join(fit_notes),
    )


def fig15_utilization(
    num_transactions: int = 48, seed: int = 120, num_pus: int = 4,
    ratios: list[float] | None = None,
) -> ExperimentResult:
    """Fig. 15: PU resource utilization vs dependency ratio."""
    ratios = ratios or RATIO_SWEEP
    blocks = _blocks_for_sweep(num_transactions, seed, ratios)
    headers = ["dep ratio", f"sync x{num_pus}", f"ST x{num_pus}"]
    rows = []
    for block, artifacts in blocks:
        sync = _parallel(block, artifacts, run_synchronous, num_pus,
                         redundancy_reuse=False)
        st = _parallel(block, artifacts, run_spatial_temporal, num_pus,
                       redundancy_reuse=False)
        rows.append([
            f"{block.measured_dependency_ratio:.2f}",
            f"{100 * sync.utilization:.1f}%",
            f"{100 * st.utilization:.1f}%",
        ])
    return ExperimentResult(
        experiment_id="Fig. 15",
        title="Resource utilization vs dependency ratio",
        headers=headers,
        rows=rows,
        notes="paper shape: utilization falls with dependencies; "
              "asynchronous scheduling keeps PUs busier",
    )


def _workload_optimizer(deployment, seed: int) -> HotspotOptimizer:
    """Hotspot-optimize the token contracts the dependency sweep uses."""
    optimizer = HotspotOptimizer(deployment.state)
    for name in INDEPENDENT_TOKENS:
        samples = all_entry_function_calls(deployment, name, seed=seed)
        optimizer.optimize_contract(deployment.address_of(name), samples)
    return optimizer


def fig16_redundancy_hotspot(
    num_transactions: int = 48, seed: int = 140,
    pu_counts: tuple[int, ...] = (1, 4),
    ratios: list[float] | None = None,
) -> ExperimentResult:
    """Fig. 16: spatio-temporal scheduling + redundancy optimization (a),
    plus hotspot optimization (b)."""
    ratios = ratios or RATIO_SWEEP
    blocks = _blocks_for_sweep(num_transactions, seed, ratios)
    headers = ["dep ratio"]
    for k in pu_counts:
        headers += [f"ST+Re x{k}", f"ST+Re+Hot x{k}"]
    rows = []
    for block, artifacts in blocks:
        base = _sequential_baseline(block, artifacts, redundancy_reuse=False)
        optimizer = _workload_optimizer(block.deployment, seed)
        row = [f"{block.measured_dependency_ratio:.2f}"]
        for k in pu_counts:
            redundancy = _parallel(
                block, artifacts, run_spatial_temporal, k,
                redundancy_reuse=True,
            )
            hotspot = _parallel(
                block, artifacts, run_spatial_temporal, k,
                hotspot=optimizer, redundancy_reuse=True,
            )
            row.append(base / redundancy.makespan_cycles)
            row.append(base / hotspot.makespan_cycles)
        rows.append(row)
    return ExperimentResult(
        experiment_id="Fig. 16",
        title="Speedup with redundancy optimization (a) and + hotspot "
              "optimization (b)",
        headers=headers,
        rows=rows,
        notes="paper: reuse helps even on a single PU (16a); hotspot "
              "optimization adds further continuous acceleration (16b)",
    )
