"""Comparator experiments: Tables 5, 8, 9 and the headline speedup."""

from __future__ import annotations

from ..baselines.bpu import BPUModel, measure_gsc_costs
from ..core.hotspot import HotspotOptimizer
from ..core.mtpu import MTPUExecutor, PUConfig
from ..core.mtpu.area import bpu_equivalents, estimate_area
from ..core.scheduler import run_sequential, run_spatial_temporal
from ..workload import (
    all_entry_function_calls,
    generate_dependency_block,
    generate_erc20_block,
)
from ..workload.generator import INDEPENDENT_TOKENS
from .common import ExperimentResult, shared_deployment, trace_once

#: Paper Table 8 (single core, vs one GSC engine).
PAPER_TABLE8 = {
    1.0: (12.82, 2.79), 0.8: (3.40, 2.14), 0.6: (2.23, 2.16),
    0.4: (1.63, 2.05), 0.2: (1.33, 2.00), 0.0: (1.0, 1.71),
}

#: Paper Table 9 (quad core, dependency-ratio sweep).
PAPER_TABLE9 = {
    1.0: (3.51, 8.68), 0.8: (3.80, 9.36), 0.6: (4.69, 9.87),
    0.4: (4.95, 12.01), 0.2: (5.76, 12.08), 0.0: (7.4, 15.25),
}


def table5_area() -> ExperimentResult:
    """Table 5: MTPU area breakdown and power (analytical model)."""
    report = estimate_area()
    rows = [[name, f"{area:.3f}"] for name, area in report.rows()]
    rows.append(["Power @300MHz", f"{report.power_watts:.3f} W"])
    bpu_area, bpu_power = bpu_equivalents(report)
    rows.append(["BPU-equivalent area (paper: +17% overhead)",
                 f"{bpu_area:.3f}"])
    rows.append(["BPU-equivalent power (paper: +10% overhead)",
                 f"{bpu_power:.3f} W"])
    return ExperimentResult(
        experiment_id="Table 5",
        title="Key design parameters and area breakdown (mm^2, "
              "45nm-calibrated analytical model)",
        headers=["Component", "Area"],
        rows=rows,
        notes="paper: total 79.623 mm^2, 8.648 W at 300 MHz",
        paper_reference={"total_mm2": 79.623, "power_w": 8.648},
    )


def _hotspot_for_erc20(deployment, seed: int) -> HotspotOptimizer:
    optimizer = HotspotOptimizer(deployment.state)
    for name in ("TetherToken", "Dai", "LinkToken", "FiatTokenProxy"):
        samples = all_entry_function_calls(deployment, name, seed=seed)
        optimizer.optimize_contract(deployment.address_of(name), samples)
    return optimizer


def table8_bpu_erc20(
    num_transactions: int = 40, seed: int = 200,
    fractions: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0),
) -> ExperimentResult:
    """Table 8: BPU vs MTPU single-core, swept over the ERC20 share.

    Both are normalized to the same single-GSC-engine baseline (our
    baseline PU without reuse). The MTPU runs with its full single-core
    feature set (ILP + redundancy reuse + hotspot optimization).
    """
    deployment = shared_deployment()
    bpu = BPUModel()
    optimizer = _hotspot_for_erc20(deployment, seed)
    headers = ["ERC20 share", "BPU (ours)", "BPU (paper)",
               "MTPU (ours)", "MTPU (paper)"]
    rows = []
    for i, fraction in enumerate(fractions):
        block = generate_erc20_block(
            deployment, num_transactions=num_transactions,
            erc20_fraction=fraction, seed=seed + i,
        )
        artifacts = trace_once(deployment.state, block.transactions)
        gsc_costs = measure_gsc_costs(artifacts)
        gsc_total = sum(gsc_costs)
        bpu_total = bpu.run_single_core(block.transactions, gsc_costs)

        mtpu_executor = MTPUExecutor(
            artifacts, num_pus=1,
            pu_config=PUConfig(), hotspot_optimizer=optimizer,
        )
        mtpu = run_sequential(mtpu_executor, block.transactions)

        paper_bpu, paper_mtpu = PAPER_TABLE8[round(fraction, 1)]
        rows.append([
            f"{100 * fraction:.0f}%",
            f"{gsc_total / bpu_total:.2f}x", f"{paper_bpu:.2f}x",
            f"{gsc_total / mtpu.makespan_cycles:.2f}x",
            f"{paper_mtpu:.2f}x",
        ])
    return ExperimentResult(
        experiment_id="Table 8",
        title="BPU vs MTPU single-core speedup by ERC20 proportion "
              "(baseline: one GSC engine)",
        headers=headers,
        rows=rows,
        notes="paper shape: BPU collapses as the ERC20 share falls; "
              "MTPU stays stable (its acceleration is general)",
        paper_reference={"table": PAPER_TABLE8},
    )


def table9_bpu_parallel(
    num_transactions: int = 48, seed: int = 220, cores: int = 4,
    ratios: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0),
) -> ExperimentResult:
    """Table 9: BPU vs MTPU quad-core, swept over the dependency ratio.

    Both normalized to one GSC engine. BPU composes its engines with
    barrier rounds; the MTPU uses spatio-temporal scheduling plus its
    full single-PU feature set.
    """
    bpu = BPUModel()
    headers = ["dep ratio", "BPU (ours)", "BPU (paper)",
               "MTPU (ours)", "MTPU (paper)"]
    rows = []
    for i, ratio in enumerate(ratios):
        # Fixed 50% ERC20 composition (Dai vs the generic TokenA),
        # decoupled from the dependency ratio: the paper's blocks mix
        # App-engine-eligible and general contracts at every ratio.
        block = generate_dependency_block(
            num_transactions=num_transactions, target_ratio=ratio,
            seed=seed + i, token_names=["Dai", "TokenA"],
            num_conflict_chains=2, token_cycle=True,
        )
        deployment = block.deployment
        artifacts = trace_once(deployment.state, block.transactions)
        gsc_costs = measure_gsc_costs(artifacts)
        gsc_total = sum(gsc_costs)
        bpu_total = bpu.run_parallel(
            block.transactions, gsc_costs, block.dag_edges, cores=cores
        )

        optimizer = HotspotOptimizer(deployment.state)
        for name in INDEPENDENT_TOKENS:
            samples = all_entry_function_calls(
                deployment, name, seed=seed
            )
            optimizer.optimize_contract(
                deployment.address_of(name), samples
            )
        mtpu_executor = MTPUExecutor(
            artifacts, num_pus=cores,
            pu_config=PUConfig(), hotspot_optimizer=optimizer,
        )
        mtpu = run_spatial_temporal(
            mtpu_executor, block.transactions, block.dag_edges
        )
        paper_bpu, paper_mtpu = PAPER_TABLE9[round(ratio, 1)]
        rows.append([
            f"{100 * ratio:.0f}%",
            f"{gsc_total / bpu_total:.2f}x", f"{paper_bpu:.2f}x",
            f"{gsc_total / mtpu.makespan_cycles:.2f}x",
            f"{paper_mtpu:.2f}x",
        ])
    return ExperimentResult(
        experiment_id="Table 9",
        title="BPU vs MTPU quad-core speedup by dependency proportion "
              "(baseline: one GSC engine)",
        headers=headers,
        rows=rows,
        notes="paper shape: MTPU wins everywhere; dependencies hurt "
              "both, BPU relatively more at low ratios",
        paper_reference={"table": PAPER_TABLE9},
    )


def headline_speedup(
    num_transactions: int = 64, seed: int = 240,
    ratios: tuple[float, ...] = (0.0, 0.5, 1.0),
    pu_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> ExperimentResult:
    """Abstract: 3.53x-16.19x over existing schemes across configurations.

    Sweeps both the dependency ratio and the PU count of the full
    co-design (ILP + spatio-temporal scheduling + redundancy reuse +
    hotspot optimization), all normalized to a plain sequential core.
    """
    headers = ["dep ratio"] + [f"{k} PUs" for k in pu_counts]
    rows = []
    speedups = []
    for i, ratio in enumerate(ratios):
        block = generate_dependency_block(
            num_transactions=num_transactions, target_ratio=ratio,
            seed=seed + i,
        )
        deployment = block.deployment
        optimizer = HotspotOptimizer(deployment.state)
        for name in INDEPENDENT_TOKENS:
            samples = all_entry_function_calls(
                deployment, name, seed=seed
            )
            optimizer.optimize_contract(
                deployment.address_of(name), samples
            )
        artifacts = trace_once(deployment.state, block.transactions)
        baseline = run_sequential(
            MTPUExecutor(
                artifacts, num_pus=1,
                pu_config=PUConfig(enable_db_cache=False,
                                   redundancy_reuse=False),
            ),
            block.transactions,
        )
        row = [f"{block.measured_dependency_ratio:.2f}"]
        for pu_count in pu_counts:
            full = run_spatial_temporal(
                MTPUExecutor(
                    artifacts, num_pus=pu_count,
                    pu_config=PUConfig(), hotspot_optimizer=optimizer,
                ),
                block.transactions, block.dag_edges,
            )
            speedup = full.speedup_over(baseline)
            speedups.append(speedup)
            row.append(f"{speedup:.2f}x")
        rows.append(row)
    rows.append(["range", f"{min(speedups):.2f}x",
                 f"{max(speedups):.2f}x", "", ""])
    return ExperimentResult(
        experiment_id="Headline",
        title="Full co-design speedup over a plain single core",
        headers=headers,
        rows=rows,
        notes="paper abstract: 3.53x-16.19x",
        paper_reference={"range": (3.53, 16.19)},
    )
